"""Pipeline benchmark for embedloc.

Runs the nine `embedloc.cli` subcommands in user order (synth, extract,
train, embed, neighborhood, sweep, retrieval, probe, report) on a
workload built from --seed, in whole rounds: one unmeasured warm-up
round, then measured rounds until --seconds have passed (at least two).
Each round starts from an empty directory, and each subcommand
invocation is one operation. After a round every
operation's output is checked (see checks.py); an operation fails if it
exits non-zero or its output fails its check.

    python3 pipebench/run.py --workload catalog --seed 1 --seconds 32 --trace 0

The last line of standard output is one JSON object: correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, as medians over rounds. With --trace 1 rounds alternate
untraced and traced; the metrics are per-layer ones from the traced
rounds (see tracer.py) plus the tracing overhead.
"""

import os
import sys

# One process, single-threaded BLAS: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the CLI lets EMBEDLOC_SEED override every seed; the benchmark sets seeds itself
os.environ.pop("EMBEDLOC_SEED", None)

import argparse
import contextlib
import copy
import gc
import json
import resource
import shutil
import statistics
import subprocess
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".pipebench-out")

sys.path.insert(0, HERE)
import checks
import tracer as tracing

COMMANDS = ("synth", "extract", "train", "embed", "neighborhood", "sweep",
            "retrieval", "probe", "report")
PIPELINE = COMMANDS[1:]
ANALYSIS = ("embed", "neighborhood", "sweep", "retrieval", "probe", "report")
MIN_ROUNDS = 2
MEL_CHECK_TRACKS = 3
# the training and augmentation seed; --seed varies the corpus only, so
# every seed does the same work and the per-layer counts repeat exactly
TRAIN_SEED = 0

MEL = {"sample_rate_hz": 16000, "dft_size": 2048, "window_length": 400, "hop": 160,
       "num_bands": 96, "window_kind": "hann", "log_floor": 1e-10}
TRAIN = {"batch_pairs": 64, "total_steps": 4, "warmup_steps": 1, "peak_lr": 0.1,
         "temperature": 0.1, "momentum": 0.0, "embedding_dim": 64, "hidden_units": 256}
STUDIO = {
    "corpus": {"num_tracks": 24, "duration_s": 16.0, "test_fraction": 0.25},
    "mel": MEL,
    "train": TRAIN,
    "probe": {"batch_size": 64, "total_steps": 300, "learning_rate": 0.05,
              "dropout": 0.75, "hidden_units": 512},
    "metrics": {"k_grid": [1, 2, 4, 8],
                "stretch_grid": [0.75, 0.8409, 1.0, 1.1892, 1.5],
                "pitch_grid": [-4, -2, 0, 2, 4],
                "sweep_kind": "time_stretch"},
}


def _merge(base, override):
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


# Each workload: the CLI config document and the number of test tracks.
WORKLOADS = {
    "augmented-train": {
        "num_test": 6,
        "config": _merge(STUDIO, {"augmentation": {"chain": ["TS", "PS", "EQ"]}}),
    },
    # Runnable, but not listed in BENCHMARK.json: on a 2-vCPU VM whose
    # throughput drifts, three workloads left each run too short to be steady.
    "crop-train": {
        "num_test": 6,
        "config": _merge(STUDIO, {
            "augmentation": {"chain": ["RRC", "EQ"]},
            "train": {"total_steps": 8},
            "metrics": {"sweep_kind": "pitch_shift"}}),
    },
    "catalog": {
        "num_test": 6,
        "config": _merge(STUDIO, {
            "corpus": {"num_tracks": 96, "duration_s": 14.0},
            "augmentation": {"chain": []},
            "train": {"total_steps": 10, "warmup_steps": 1},
            "probe": {"total_steps": 100},
            "metrics": {"k_grid": [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64],
                        "stretch_grid": [0.9, 1.0, 1.1]}}),
    },
}


def round_config(spec, round_dir):
    return _merge(spec["config"], {
        "seed": TRAIN_SEED,
        "paths": {"corpus_dir": os.path.join(round_dir, "corpus"),
                  "output_dir": os.path.join(round_dir, "out")}})


# ---------------------------------------------------------------------------
# one round

IMPORT_PROBE = ("import time; t = time.perf_counter(); import embedloc.cli; "
                "print(repr(time.perf_counter() - t))")


def measure_import():
    """Seconds a fresh interpreter spends importing the CLI package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def fix_split(config, seed, num_test):
    """Mark exactly num_test tracks, chosen from the seed, as the test split,
    so the sweep and probe evaluation do the same work on every seed."""
    path = os.path.join(config["paths"]["corpus_dir"], "manifest.jsonl")
    records = checks.read_manifest(path)
    rng = np.random.default_rng([seed, 1])
    test = set(rng.choice(len(records), size=num_test, replace=False).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        for i, rec in enumerate(records):
            rec["split"] = "test" if i in test else "train"
            fh.write(json.dumps(rec) + "\n")


def check_context(spec, seed):
    """State the checks share across the rounds of one run."""
    rng = np.random.default_rng([seed, 2])
    num_tracks = spec["config"]["corpus"]["num_tracks"]
    return {"num_test": spec["num_test"],
            "mel_sample": sorted(rng.choice(num_tracks, MEL_CHECK_TRACKS,
                                            replace=False).tolist()),
            "checkpoint_digest": None}


def invoke(cli, argv, log, tracer):
    """Run one subcommand in this process; returns (exit code or None, seconds)."""
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        if tracer is not None:
            tracer.begin("cli." + argv[0])
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc(file=log)
            code = None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
    return code, elapsed


def run_round(cli, spec, seed, run_dir, ctx, tracer=None):
    """One round of every subcommand on the workload `spec` (an entry of
    WORKLOADS), followed by every check."""
    round_dir = os.path.join(run_dir, "round")
    shutil.rmtree(round_dir, ignore_errors=True)
    os.makedirs(round_dir)
    config = round_config(spec, round_dir)
    config_path = os.path.join(round_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)

    import_s = measure_import()
    times, failed, problems = {}, set(), []
    with open(os.path.join(round_dir, "cli.log"), "w", encoding="utf-8") as log:
        for command in COMMANDS:
            if failed:
                failed.add(command)   # its inputs are missing
                continue
            argv = [command, "--config", config_path]
            if command == "synth":
                argv += ["--set", "seed=%d" % seed]
            code, times[command] = invoke(cli, argv, log, tracer)
            if code != 0:
                failed.add(command)
                problems.append("%s exited with %s (see %s)" % (command, code, log.name))
            elif command == "synth":
                fix_split(config, seed, spec["num_test"])

    check_failed = False
    layout = checks.Layout(config)
    for command in COMMANDS:
        if command in failed:
            continue
        try:
            checks.CHECKS[command](layout, ctx)
        except Exception as exc:   # any error reading or checking the output
            failed.add(command)
            check_failed = True
            problems.append("%s: check failed: %s: %s" % (command, type(exc).__name__, exc))

    result = {"failed": len(failed), "check_failed": check_failed, "problems": problems,
              "spans": tracer.take() if tracer is not None else None}
    if len(times) == len(COMMANDS):
        train = config["train"]
        result["metrics"] = {
            "setup_s": import_s + times["synth"],
            "pipeline_s": sum(times[c] for c in PIPELINE),
            "train_views_per_s": 2 * train["batch_pairs"] * train["total_steps"] / times["train"],
            "extract_tracks_per_s": config["corpus"]["num_tracks"] / times["extract"],
            "analysis_s": sum(times[c] for c in ANALYSIS),
        }
    return result


# ---------------------------------------------------------------------------
# metrics

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "train_views_per_s": "views/s",
                    "extract_tracks_per_s": "tracks/s", "analysis_s": "s",
                    "peak_rss_mb": "MiB"}


def layer_metrics(spans, num_tracks):
    """Per-layer metrics of one traced round."""
    summary = tracing.summarize(spans)
    out = {}
    for name in tracing.span_names():
        entry = summary.get(name, {"calls": 0, "self_s": 0.0, "bytes": 0})
        out[name + ".calls"] = (entry["calls"], "count")
        out[name + ".s"] = (entry["self_s"], "s")
        if name in tracing.BYTES_SPANS:
            out[name + ".bytes"] = (entry["bytes"], "bytes")
    for command in COMMANDS:
        out["cli.%s.s" % command] = (summary["cli." + command]["total_s"], "s")
    eq_views = summary.get("augment.equalize", {"calls": 0})["calls"]
    builds = tracing.count_under(spans, "melfront.build_filterbank", {"augment.equalize"})
    out["augment.filterbank_builds_per_view"] = (builds / eq_views if eq_views else 0.0,
                                                 "ratio")
    knn_calls = tracing.count_under(spans, "embedspace.knn",
                                    {"cli.neighborhood", "cli.retrieval"})
    out["embedspace.knn_calls_per_seed"] = (knn_calls / num_tracks, "ratio")
    return out


def median_metrics(per_round):
    return {name: (statistics.median(r[name][0] for r in per_round), per_round[0][name][1])
            for name in per_round[0]}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_cli():
    if not os.path.isfile(os.path.join(SRC, "embedloc", "cli.py")):
        raise SystemExit("pipebench: no embedloc sources under %s" % SRC)
    sys.path.insert(0, SRC)
    from embedloc import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("pipebench: imported embedloc from %s, not %s" % (cli.__file__, SRC))
    return cli


def main(argv=None):
    args = parse_args(argv)
    cli = load_cli()
    run_dir = os.path.join(OUT, "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    spec = WORKLOADS[args.workload]
    num_tracks = spec["config"]["corpus"]["num_tracks"]
    ctx = check_context(spec, args.seed)
    tracer = tracing.Tracer() if args.trace else None

    def one_round(warmup=False, traced=False):
        gc.collect()
        # an untraced round must run the program's own functions
        stray = [] if traced else tracing.installed_wrappers()
        if traced:
            tracer.install()
        try:
            result = run_round(cli, spec, args.seed, run_dir, ctx,
                               tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        result.update(warmup=warmup, traced=traced)
        if stray:
            result["check_failed"] = True
            result["problems"].append("tracing wrappers installed: %s" % stray)
        label = "round %d%s" % (len(rounds),
                                " (warm-up)" if warmup else " (traced)" if traced else "")
        for problem in result["problems"]:
            print("%s: %s" % (label, problem), file=sys.stderr)
        if "metrics" in result:
            print("%s: %s" % (label, " ".join("%s=%.4g" % kv for kv in result["metrics"].items())),
                  file=sys.stderr)
        return result

    # Round 0 warms the process (allocator, page cache, lazy imports): its
    # operations are checked and counted, its times are left out.
    rounds = []
    rounds.append(one_round(warmup=True))
    start = time.perf_counter()
    while len(rounds) <= MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        rounds.append(one_round(traced=tracer is not None and len(rounds) % 2 == 0))
        if len(rounds) == 2:
            # later rounds only add allocator churn, and their number varies
            peak_rss = peak_rss_mb()

    leftover = tracing.installed_wrappers()
    print("tracing wrappers installed at the end of the run: %d" % len(leftover), file=sys.stderr)
    attempted = len(COMMANDS) * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = not leftover and not any(r["check_failed"] for r in rounds)

    plain = [r["metrics"] for r in rounds
             if not r["traced"] and not r["warmup"] and "metrics" in r]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        tracing.write_spans(os.path.join(run_dir, "spans.jsonl"),
                            [(i, r["spans"]) for i, r in enumerate(rounds) if r["traced"]])
        per_round = [layer_metrics(r["spans"], num_tracks) for r in traced
                     if "metrics" in r]
        metrics = median_metrics(per_round) if per_round else {}
        traced_pipeline = [r["metrics"]["pipeline_s"] for r in traced if "metrics" in r]
        if plain and traced_pipeline:
            ratio = (statistics.median(traced_pipeline)
                     / statistics.median(m["pipeline_s"] for m in plain))
            metrics["trace.overhead_ratio"] = (ratio, "ratio")
            print("tracing overhead: traced pipeline_s / untraced pipeline_s = %.4f" % ratio,
                  file=sys.stderr)
    else:
        metrics = {}
        if plain:
            for name in END_TO_END_UNITS:
                if name != "peak_rss_mb":
                    metrics[name] = (statistics.median(m[name] for m in plain),
                                     END_TO_END_UNITS[name])
            metrics["peak_rss_mb"] = (peak_rss, "MiB")

    print(json.dumps({"correct": bool(correct and metrics), "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

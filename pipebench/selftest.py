"""Fast self-test of the pipeline benchmark at tiny sizes.

For each workload it runs one untraced and one traced round of all nine
subcommands with every check, then corrupts each checked output in turn
(a truncated WAV, a shifted mel, an altered loss, a swapped neighbour,
...) and requires the matching check to reject it. It also requires the
traced round to leave no wrapper behind and to write the same checkpoint
tensors as the untraced one.

    python3 pipebench/selftest.py

Exits 0 when every step passes.
"""

import copy
import csv
import json
import os
import shutil
import struct
import sys
import wave

import run  # sets the BLAS thread count before numpy loads
import checks
import tracer as tracing

import numpy as np

SEED = 0
TINY = {
    "corpus": {"num_tracks": 10, "duration_s": 14.0},
    "train": {"batch_pairs": 8, "total_steps": 10, "warmup_steps": 1},
    "probe": {"total_steps": 40},
    "metrics": {"k_grid": [1, 3], "stretch_grid": [0.8409, 1.0, 1.1892],
                "pitch_grid": [-2, 0, 2]},
}


def tiny_spec(name):
    spec = copy.deepcopy(run.WORKLOADS[name])
    spec["config"] = run._merge(spec["config"], TINY)
    spec["num_test"] = 3
    return spec


# ---------------------------------------------------------------------------
# corruptions: each edits one output in place

def write_emlt(path, array):
    arr = np.ascontiguousarray(array, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"EMLT" + struct.pack("<HHH", 1, 1, arr.ndim))
        fh.write(struct.pack("<%dQ" % arr.ndim, *arr.shape) + arr.tobytes())


def edit_json(path, edit):
    data = checks.read_json(path)
    edit(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def edit_csv(path, edit):
    rows = checks.read_csv(path)
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def truncate_wav(layout, ctx):
    rec = checks.read_manifest(os.path.join(layout.corpus, "manifest.jsonl"))[0]
    path = os.path.join(layout.corpus, rec["feature_path"])
    pcm, rate = checks.read_wav(path)
    with wave.open(path, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes((pcm[:-160] * 32768.0).astype("<i2").tobytes())


def shift_mel(layout, ctx):
    records = checks.read_manifest(os.path.join(layout.features, "manifest.jsonl"))
    path = os.path.join(layout.features, records[ctx["mel_sample"][0]]["feature_path"])
    mel = checks.read_emlt(path).copy()
    mel[5, 7] += 1e-3
    write_emlt(path, mel)


def raise_last_loss(layout, ctx):
    def edit(rows):
        rows[-1]["loss"] = repr(float(rows[0]["loss"]) + 1.0)
    edit_csv(os.path.join(layout.checkpoint, "loss.csv"), edit)


def nan_loss(layout, ctx):
    def edit(rows):
        rows[3]["loss"] = "nan"
    edit_csv(os.path.join(layout.checkpoint, "loss.csv"), edit)


def perturb_checkpoint(layout, ctx):
    path = os.path.join(layout.checkpoint, "b2.emlt")
    b2 = checks.read_emlt(path).copy()
    b2[0] = np.nextafter(b2[0], np.float32(1.0))
    write_emlt(path, b2)


def scale_embedding(layout, ctx):
    path = layout.embeddings + ".emlt"
    matrix = checks.read_emlt(path).copy()
    matrix[2] *= 1.01
    write_emlt(path, matrix)


def swap_neighbour(layout, ctx):
    """Exchange the embeddings of two tracks whose labels all differ."""
    path = layout.embeddings + ".emlt"
    matrix = checks.read_emlt(path).copy()
    recs = checks.read_manifest(os.path.join(layout.features, "manifest.jsonl"))
    j = next(j for j, r in enumerate(recs)
             if r["bpm"] != recs[0]["bpm"] and r["key_label"] != recs[0]["key_label"]
             and not set(r["tags"]) & set(recs[0]["tags"]))
    matrix[[0, j]] = matrix[[j, 0]]
    write_emlt(path, matrix)


def nudge_rmms(layout, ctx):
    edit_json(layout.neighborhood, lambda d: d["tempo_rmms"].update({"1": d["tempo_rmms"]["1"] + 1e-9}))


def move_identity(layout, ctx):
    def edit(d):
        for row in d["rows"]:
            if row["factor"] in (0, 1.0):
                row["distances"] = [1e-3] * len(row["distances"])
                row["mean"] = 1e-3
    edit_json(layout.sweep, edit)


def nudge_retrieval(layout, ctx):
    edit_json(layout.retrieval, lambda d: d["rows"][0].update(
        {"tag_retrieval": d["rows"][0]["tag_retrieval"] + 1e-9}))


def move_estimate(layout, ctx):
    def edit(rows):
        truth = float(rows[0]["truth"])
        hit = abs(float(rows[0]["estimate"]) - truth) <= checks.ACC_TOLERANCE * truth
        rows[0]["estimate"] = repr(truth * 1.5 if hit else truth)
    edit_csv(os.path.join(layout.probe, "eval.csv"), edit)


def swap_accuracies(layout, ctx):
    edit_json(os.path.join(layout.probe, "summary.json"),
              lambda d: d.update({"acc1": d["acc2"] + 0.25}))


def alter_report(layout, ctx):
    def edit(d):
        name = sorted(d["artifacts"])[0]
        d["artifacts"][name]["provenance"]["seed"] = 99
    edit_json(layout.report, edit)


CORRUPTIONS = [
    ("synth", truncate_wav), ("extract", shift_mel),
    ("train", raise_last_loss), ("train", nan_loss), ("train", perturb_checkpoint),
    ("embed", scale_embedding), ("neighborhood", swap_neighbour),
    ("neighborhood", nudge_rmms), ("sweep", move_identity),
    ("retrieval", swap_neighbour), ("retrieval", nudge_retrieval),
    ("probe", move_estimate), ("probe", swap_accuracies), ("report", alter_report),
]


def expect(ok, message, failures):
    print("%s  %s" % ("ok  " if ok else "FAIL", message))
    if not ok:
        failures.append(message)


def selftest_workload(cli, name, failures):
    spec = tiny_spec(name)
    run_dir = os.path.join(run.OUT, "selftest-%s" % name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ctx = run.check_context(spec, SEED)

    plain = run.run_round(cli, spec, SEED, run_dir, ctx)
    expect(plain["failed"] == 0, "%s: untraced round passes every check %s"
           % (name, plain["problems"]), failures)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = len(tracing.installed_wrappers())
        traced = run.run_round(cli, spec, SEED, run_dir, ctx, tracer)
    finally:
        tracer.uninstall()
    expect(wrapped > 0 and not tracing.installed_wrappers(),
           "%s: %d wrappers installed while tracing, none after" % (name, wrapped), failures)
    expect(traced["failed"] == 0,
           "%s: traced round passes every check, checkpoint identical to the untraced one %s"
           % (name, traced["problems"]), failures)
    layers = run.layer_metrics(traced["spans"], spec["config"]["corpus"]["num_tracks"])
    k_count = len(spec["config"]["metrics"]["k_grid"])
    expect(layers["embedspace.knn_calls_per_seed"][0] == 6 * k_count,
           "%s: knn calls per seed %s = 6 x |k_grid|"
           % (name, layers["embedspace.knn_calls_per_seed"][0]), failures)

    layout = checks.Layout(run.round_config(spec, os.path.join(run_dir, "round")))
    for command, corrupt in CORRUPTIONS:
        backup = os.path.join(run_dir, "backup")
        shutil.rmtree(backup, ignore_errors=True)
        shutil.copytree(os.path.join(run_dir, "round"), backup)
        corrupt(layout, ctx)
        try:
            checks.CHECKS[command](layout, ctx)
            caught = None
        except checks.CheckError as exc:
            caught = str(exc)
        expect(caught is not None, "%s: %s check rejects %s: %s"
               % (name, command, corrupt.__name__, caught), failures)
        shutil.rmtree(os.path.join(run_dir, "round"))
        os.rename(backup, os.path.join(run_dir, "round"))
    shutil.rmtree(run_dir)


def main():
    cli = run.load_cli()
    failures = []
    for name in run.WORKLOADS:
        selftest_workload(cli, name, failures)
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

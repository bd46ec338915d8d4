"""Command-line pipeline driver.

Subcommands: synth, extract, train, embed, sweep, neighborhood,
retrieval, probe, report. Configuration is a single JSON document;
--set a.b.c=value overrides any leaf. Every command checks every section
at load: load_config builds each section into its type (SECTIONS), runs
the two checks that read two sections, and names the file or --set each
failing section came from; the commands take the RunConfig it returns.
Every random draw derives from the one top-level `seed`; there are no
per-section seed keys, and no environment variable is read.
Exit codes: 0 ok, 2 config, 3 data or out of memory, 4 numerical failure.
"""

import argparse
import contextlib
import copy
import functools
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from . import tensorio
from .augment import AugmentationSpec
from .corpus import (CorpusConfig, extract_features, generate_synthetic_corpus,
                     load_track_mel, read_manifest)
from .embedspace import EmbeddingSet, build_embedding_set
from .encoder import Mlp, TrainConfig, feature_dim, train, usable_train_tracks
from .errors import ConfigError, DataError, EmbedlocError, NumericalError
from .locality import (MetricsConfig, compute_neighborhood_report,
                       manipulation_sweep, tag_precision, tag_retrieval)
from .melfront import MelConfig
from .probe import ProbeConfig, acc1_hits, acc2_hits, estimate_tempo, train_probe


@dataclass(frozen=True)
class RunConfig:
    """One run's checked config: the merged document that config_hash
    hashes, its seed and paths, and each section built into its type."""
    document: dict
    seed: int
    corpus_dir: str
    output_dir: str
    corpus: CorpusConfig
    mel: MelConfig
    augmentation: AugmentationSpec
    train: TrainConfig
    probe: ProbeConfig
    metrics: MetricsConfig


# config section -> the type that holds and checks it: RunConfig's typed sections
SECTIONS = {f.name: f.type for f in fields(RunConfig) if is_dataclass(f.type)}

# each section holds its type's defaults as a JSON document spells them
DEFAULT_CONFIG = {
    "seed": 0,
    "paths": {"corpus_dir": "corpus", "output_dir": "out"},
    **{name: json.loads(json.dumps(asdict(section())))
       for name, section in SECTIONS.items()},
}


def _check_leaf(path, default, value):
    """Raise ConfigError unless `value` may stand where `default` stands
    in DEFAULT_CONFIG: it has the default's type (an int may stand for a
    float; a bool is never an int), a number that stands for a float is
    finite (json reads NaN, Infinity, 1e400 and ints beyond the float
    range), and each item of a list may stand for the items of the
    default list."""
    want = type(default)
    if type(value) is not want and not (want is float and type(value) is int):
        raise ConfigError("config path %r must be %s, got %s %r"
                          % (path, want.__name__, type(value).__name__, value))
    # False for NaN, for +-inf and for an int beyond the float range
    if want is float and not abs(value) <= sys.float_info.max:
        raise ConfigError("config path %r must be a finite number, got %r"
                          % (path, value))
    if want is list and default:
        for i, item in enumerate(value):
            _check_leaf("%s[%d]" % (path, i), default[0], item)


def _merge_known(base, override, schema=DEFAULT_CONFIG, prefix=""):
    """base with override merged in. Every override path must exist in
    `schema`, sections (dicts) may only be merged into sections, and each
    leaf is checked against the schema's default by _check_leaf."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        path = prefix + key
        if key not in schema:
            raise ConfigError("unknown config path %r" % path)
        if isinstance(schema[key], dict) != isinstance(value, dict):
            raise ConfigError("config path %r must %sbe an object"
                              % (path, "" if isinstance(schema[key], dict) else "not "))
        if isinstance(value, dict):
            out[key] = _merge_known(out[key], value, schema[key], path + ".")
            continue
        _check_leaf(path, schema[key], value)
        out[key] = copy.deepcopy(value)
    return out


def _apply_override(config, dotted, raw_value):
    try:
        value = json.loads(raw_value)
    except ValueError:   # not JSON, or an int of over 4300 digits
        value = raw_value
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return _merge_known(config, value)


def load_config(path=None, overrides=()):
    """The RunConfig of DEFAULT_CONFIG, the file at `path` and the `--set`
    items `overrides`, merged in that order."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        try:
            loaded = tensorio.read_json(path)
        except FileNotFoundError:
            raise ConfigError("config file not found: %s" % path)
        except DataError as exc:
            raise ConfigError("config file %s" % exc)
        if not isinstance(loaded, dict):
            raise ConfigError("config file %s must hold a JSON object" % path)
        config = _merge_known(config, loaded)
    for item in overrides:
        if "=" not in item:
            raise ConfigError("override %r is not of the form path=value" % item)
        dotted, raw = item.split("=", 1)
        config = _apply_override(config, dotted, raw)

    def checked(sections, check):
        try:
            return check()
        except ConfigError as exc:
            origin = ([path] if path else []) + [
                "--set " + item for item in overrides if item.split(".")[0] in sections]
            raise ConfigError("%s from %s: %s" % (sections[0], ", ".join(origin), exc))

    run = RunConfig(
        document=config, seed=config["seed"], **config["paths"],
        **{name: checked((name,), functools.partial(section, **config[name]))
           for name, section in SECTIONS.items()})
    checked(("augmentation", "mel"), lambda: run.augmentation.check_frames(run.mel))
    checked(("corpus", "mel"), lambda: run.corpus.check_wav(run.mel))
    return run


def config_hash(run):
    blob = json.dumps(run.document, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _provenance(run, **extra):
    prov = {"config_hash": config_hash(run), "seed": run.seed,
            "aug_chain": list(run.augmentation.chain)}
    prov.update(extra)
    return prov


def _artifact_id(run):
    return "%s-s%d" % (run.augmentation.chain_id, run.seed)


def _features_dir(run):
    return os.path.join(run.output_dir, "features")


def _feature_manifest(run):
    path = os.path.join(_features_dir(run), "manifest.jsonl")
    if not os.path.exists(path):
        raise DataError("feature manifest missing; run `extract` first (%s)" % path)
    return read_manifest(path)


def _load_mels(records, run):
    """The records' spectrograms, loaded one at a time as they are asked
    for, so a caller that walks them once holds one track at a time."""
    base = _features_dir(run)
    return (load_track_mel(rec, run.mel, base_dir=base) for rec in records)


def _checkpoint_dir(run):
    return os.path.join(run.output_dir, "checkpoints", _artifact_id(run))


def _load_checkpoint(run):
    """The run's encoder parameters, once w1's width is known to be the
    feature_dim of the configured mel bands (one-to-one in the count)."""
    path = _checkpoint_dir(run)
    params = Mlp.load(path, TrainConfig)
    bands = run.mel.num_bands
    if params.w1.shape[1] != feature_dim(bands):
        raise DataError(
            "checkpoint %s has w1 %s, but mel.num_bands %d needs feature dim %d"
            % (path, "x".join(map(str, params.w1.shape)), bands, feature_dim(bands)))
    return params


def _embedding_prefix(run):
    return os.path.join(run.output_dir, "embeddings", _artifact_id(run))


def _write_table(run, name, doc, columns, rows):
    """Write one analysis artifact as `doc` in <output_dir>/<name>-<artifact
    id>.json and as the table `columns`, `rows` beside it in .csv; returns
    that path without its extension."""
    stem = os.path.join(run.output_dir, "%s-%s" % (name, _artifact_id(run)))
    tensorio.write_json(stem + ".json", doc)
    tensorio.write_csv(stem + ".csv", columns, rows)
    return stem


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(run):
    records = generate_synthetic_corpus(run.corpus_dir, run.corpus,
                                        run.mel.sample_rate_hz, seed=run.seed)
    print("synth: wrote %d tracks to %s" % (len(records), run.corpus_dir))


def cmd_extract(run):
    manifest = os.path.join(run.corpus_dir, "manifest.jsonl")
    if not os.path.exists(manifest):
        raise DataError("corpus manifest missing: %s" % manifest)
    records = read_manifest(manifest)
    out = extract_features(records, run.mel, run.corpus_dir, _features_dir(run))
    print("extract: wrote %d feature files to %s" % (len(out), _features_dir(run)))


def cmd_train(run):
    records = _feature_manifest(run)
    mels = {mel.source_id: mel for mel in
            _load_mels(usable_train_tracks(records, run.augmentation), run)}
    params, losses = train(records, mels, run.augmentation, run.train, seed=run.seed)
    ckpt = _checkpoint_dir(run)
    params.save(ckpt, run.train, _provenance(run))
    tensorio.write_csv(os.path.join(ckpt, "loss.csv"), ["step", "loss"],
                       enumerate(losses))
    print("train: %d steps, final loss %.4f, checkpoint %s"
          % (len(losses), losses[-1], ckpt))


def cmd_embed(run):
    records = _feature_manifest(run)
    params = _load_checkpoint(run)
    mels = _load_mels(records, run)
    emb = build_embedding_set(
        mels, params, run.augmentation.output_frames(run.mel),
        provenance=_provenance(run, checkpoint=_checkpoint_dir(run)))
    prefix = _embedding_prefix(run)
    emb.save(prefix)
    print("embed: %d tracks -> %s.{json,emlt}" % (len(emb), prefix))


def cmd_sweep(run):
    records = _feature_manifest(run)
    params = _load_checkpoint(run)
    kind = run.metrics.sweep_kind
    test = [r for r in records if r.split == "test"] or records
    distances = manipulation_sweep(_load_mels(test, run), params, run.metrics,
                                   run.augmentation.output_frames(run.mel))
    rows = []
    for f, d in distances.items():
        lo, hi = np.percentile(d, [25, 75])
        rows.append({"factor": f, "mean": float(np.mean(d)), "iqr": float(hi - lo),
                     "distances": [float(x) for x in d]})
    stem = _write_table(
        run, "sweep-%s" % kind,
        {"kind": kind, "factors": list(distances),
         "provenance": _provenance(run, sweep_kind=kind), "rows": rows},
        ["factor", "mean_distance", "iqr"],
        [[row["factor"], row["mean"], row["iqr"]] for row in rows])
    print("sweep: %s over %d factors -> %s.{json,csv}" % (kind, len(distances), stem))


def _load_embeddings(run):
    prefix = _embedding_prefix(run)
    if not os.path.exists(prefix + ".json"):
        raise DataError("embedding set missing; run `embed` first (%s)" % prefix)
    return EmbeddingSet.load(prefix)


def cmd_neighborhood(run):
    records = _feature_manifest(run)
    emb = _load_embeddings(run)
    k_grid = list(run.metrics.k_grid)
    report = compute_neighborhood_report(emb, records, k_grid)
    doc = {"k_grid": k_grid, "provenance": _provenance(run)}
    doc.update((m, {str(k): v for k, v in by_k.items()}) for m, by_k in report.items())
    stem = _write_table(run, "neighborhood", doc, ["k"] + list(report),
                        [[k] + [by_k[k] for by_k in report.values()] for k in k_grid])
    print("neighborhood: k grid %s -> %s.{json,csv}" % (k_grid, stem))


def cmd_retrieval(run):
    records = _feature_manifest(run)
    emb = _load_embeddings(run)
    k_grid = list(run.metrics.k_grid)
    rows = [{"k": k, "tag_precision": tag_precision(emb, records, k),
             "tag_retrieval": tag_retrieval(emb, records, k)} for k in k_grid]
    columns = ["k", "tag_precision", "tag_retrieval"]
    stem = _write_table(run, "retrieval", {"provenance": _provenance(run),
                                           "rows": rows},
                        columns, [[row[c] for c in columns] for row in rows])
    print("retrieval: k grid %s -> %s.{json,csv}" % (k_grid, stem))


def cmd_probe(run):
    records = _feature_manifest(run)
    emb = _load_embeddings(run)
    model, losses = train_probe(emb, records, run.probe, seed=run.seed)
    probe_dir = os.path.join(run.output_dir, "probe-%s" % _artifact_id(run))
    # a former run's evaluation must not outlive the weights it scored
    for name in ("summary.json", "eval.csv"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(probe_dir, name))
    model.save(probe_dir, run.probe, _provenance(run))
    test = [r for r in records if r.split == "test" and r.bpm is not None]
    rows = []
    for rec in test:
        est = estimate_tempo(model, emb.vector(rec.track_id))
        rows.append({"track_id": rec.track_id, "truth": rec.bpm, "estimate": est})
    if rows:
        ests = [r["estimate"] for r in rows]
        tru = [r["truth"] for r in rows]
        hit1, hit2 = acc1_hits(ests, tru), acc2_hits(ests, tru)
        a1, a2 = float(np.mean(hit1)), float(np.mean(hit2))
        for r, h1, h2 in zip(rows, hit1, hit2):
            r["acc1_hit"], r["acc2_hit"] = int(h1), int(h2)
        columns = ["track_id", "truth", "estimate", "acc1_hit", "acc2_hit"]
        tensorio.write_csv(os.path.join(probe_dir, "eval.csv"), columns,
                           [[row[c] for c in columns] for row in rows])
        tensorio.write_json(os.path.join(probe_dir, "summary.json"), {
            "provenance": _provenance(run), "acc1": a1, "acc2": a2,
            "num_test_tracks": len(rows)})
        print("probe: acc1=%.3f acc2=%.3f over %d test tracks -> %s"
              % (a1, a2, len(rows), probe_dir))
    else:
        print("probe: trained (no labeled test tracks to evaluate) -> %s" % probe_dir)


def cmd_report(run):
    out = run.output_dir
    merged = {"config_hash": config_hash(run), "seed": run.seed,
              "artifacts": {}, "probes": {}}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        path = os.path.join(out, name)
        summary = os.path.join(path, "summary.json")
        if name.endswith(".json") and name != "report.json":
            merged["artifacts"][name] = tensorio.read_json(path)
        elif name.startswith("probe-") and os.path.isfile(summary):
            merged["probes"][name] = tensorio.read_json(summary)
    path = os.path.join(out, "report.json")
    tensorio.write_json(path, merged)
    print("report: merged %d artifacts -> %s" % (len(merged["artifacts"]), path))


COMMANDS = {
    "synth": cmd_synth,
    "extract": cmd_extract,
    "train": cmd_train,
    "embed": cmd_embed,
    "sweep": cmd_sweep,
    "neighborhood": cmd_neighborhood,
    "retrieval": cmd_retrieval,
    "probe": cmd_probe,
    "report": cmd_report,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="embedloc",
        description="Mel augmentation, contrastive training, and "
                    "embedding-space locality metrics.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="path to a JSON run config")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="PATH=VALUE", help="override a config leaf")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        run = load_config(args.config, args.overrides)
        COMMANDS[args.command](run)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 4
    except (EmbedlocError, OSError) as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 3
    except MemoryError as exc:
        print("out of memory: %s" % (str(exc) or "MemoryError"), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

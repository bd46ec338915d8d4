import hashlib
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from embedloc import cli
from embedloc.errors import MAX_SIZE


def run(args, env=None, monkeypatch=None):
    if env:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    return cli.main(args)


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = cli.load_config()
    assert cfg.seed == 0
    assert cfg.mel.num_bands == 96
    cfg = cli.load_config(overrides=["seed=7", "train.peak_lr=0.01",
                                     'augmentation.chain=["TS"]'])
    assert cfg.seed == 7
    assert cfg.train.peak_lr == 0.01
    assert cfg.augmentation.chain == ("TS",)
    assert cfg.document["augmentation"]["chain"] == ["TS"]


def test_load_config_file_merge(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 3, "train": {"total_steps": 1200}}))
    cfg = cli.load_config(str(path))
    assert cfg.seed == 3
    assert cfg.train.total_steps == 1200
    assert cfg.train.peak_lr == cli.DEFAULT_CONFIG["train"]["peak_lr"]


def test_load_config_errors(tmp_path):
    from embedloc.errors import ConfigError
    with pytest.raises(ConfigError):
        cli.load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        cli.load_config(str(bad))
    with pytest.raises(ConfigError):
        cli.load_config(overrides=["no.such.path=1"])
    with pytest.raises(ConfigError):
        cli.load_config(overrides=["malformed"])


def test_config_hash_stable_and_sensitive():
    a = cli.config_hash(cli.load_config())
    b = cli.config_hash(cli.load_config())
    c = cli.config_hash(cli.load_config(overrides=["seed=1"]))
    assert a == b and a != c and len(a) == 16


def test_exit_codes(tmp_path, capsys):
    # config error -> 2
    assert cli.main(["synth", "--set", "bogus=1"]) == 2
    # data error (missing manifest) -> 3
    assert cli.main(["extract", "--set",
                     'paths.corpus_dir="%s"' % (tmp_path / "nowhere")]) == 3
    # unknown command -> 2 via argparse
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["--help"]) == 0


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 745. GiB"), "Unable to allocate 745. GiB"),
    (MemoryError(), "MemoryError")])
def test_out_of_memory_exits_3_in_one_line(monkeypatch, capsys, exc, line):
    def exhausted(run):
        raise exc
    monkeypatch.setitem(cli.COMMANDS, "train", exhausted)
    assert cli.main(["train"]) == 3
    assert capsys.readouterr().err == "out of memory: %s\n" % line


@pytest.mark.slow
def test_pipeline_end_to_end(tmp_path, capsys):
    """synth -> extract -> train -> embed -> neighborhood -> sweep ->
    retrieval -> probe -> report on a tiny run."""
    base = [
        "--set", 'paths.corpus_dir="%s"' % (tmp_path / "corpus"),
        "--set", 'paths.output_dir="%s"' % (tmp_path / "out"),
        "--set", "corpus.num_tracks=16",
        "--set", "corpus.duration_s=16.0",
        "--set", "train.total_steps=30",
        "--set", "train.warmup_steps=3",
        "--set", "train.batch_pairs=4",
        "--set", "probe.total_steps=30",
        "--set", "metrics.k_grid=[1,2]",
        "--set", "metrics.stretch_grid=[0.75,1.0,1.5]",
        "--set", 'augmentation.chain=["TS"]',
    ]
    for command in ("synth", "extract", "train", "embed", "neighborhood",
                    "sweep", "retrieval", "probe", "report"):
        code = cli.main([command] + base)
        out = capsys.readouterr()
        assert code == 0, "%s failed: %s" % (command, out.err)

    outdir = tmp_path / "out"
    assert (outdir / "embeddings" / "TS-s0.json").exists()
    assert (outdir / "neighborhood-TS-s0.csv").exists()
    sweep = json.loads((outdir / "sweep-time_stretch-TS-s0.json").read_text())
    assert [r["factor"] for r in sweep["rows"]] == [0.75, 1.0, 1.5]
    assert abs(sweep["rows"][1]["mean"]) < 1e-9   # identity factor
    report = json.loads((outdir / "report.json").read_text())
    assert list(report) == ["config_hash", "seed", "artifacts", "probes"]
    assert sorted(report["artifacts"]) == [
        "neighborhood-TS-s0.json", "retrieval-TS-s0.json",
        "sweep-time_stretch-TS-s0.json"]
    probe_summary = json.loads(
        (outdir / "probe-TS-s0" / "summary.json").read_text())
    assert 0.0 <= probe_summary["acc1"] <= probe_summary["acc2"] <= 1.0
    assert report["probes"] == {"probe-TS-s0": probe_summary}
    # both parameter-set headers hold their tensors, the run config's
    # section and the run's provenance, and nothing else
    config = cli.load_config(overrides=base[1::2])
    for set_dir, section in (("checkpoints/TS-s0", "train"), ("probe-TS-s0", "probe")):
        header = json.loads((outdir / set_dir / "header.json").read_text())
        assert list(header) == ["tensors", "config", "provenance"]
        assert header["config"] == config.document[section]
        assert header["provenance"] == report["artifacts"][
            "retrieval-TS-s0.json"]["provenance"]

    # rerunning train is bit-reproducible: same checkpoint tensors
    from embedloc.encoder import Mlp, TrainConfig
    params1 = Mlp.load(str(outdir / "checkpoints" / "TS-s0"), TrainConfig)
    assert cli.main(["train"] + base) == 0
    capsys.readouterr()
    params2 = Mlp.load(str(outdir / "checkpoints" / "TS-s0"), TrainConfig)
    import numpy as np
    for name, tensor in params1.tensors().items():
        np.testing.assert_array_equal(tensor, params2.tensors()[name])


@pytest.mark.parametrize("section", ["train", "mel", "probe"])
def test_unknown_config_file_key_exits_2(tmp_path, capsys, section):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "paths": {"corpus_dir": str(tmp_path / "corpus")},
        section: {"bogus": 1}}))
    assert cli.main(["synth", "--config", str(path)]) == 2
    assert "%s.bogus" % section in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()


def test_config_section_must_stay_a_section(tmp_path):
    from embedloc.errors import ConfigError
    path = tmp_path / "c.json"
    for doc in ({"train": 5}, {"seed": {"x": 1}}, [1, 2]):
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            cli.load_config(str(path))
    with pytest.raises(ConfigError):
        cli.load_config(overrides=["seed.x=1"])


def _out_args(tmp_path):
    return ["--set", 'paths.output_dir="%s"' % (tmp_path / "out")]


def test_train_on_malformed_manifest_exits_3(tmp_path, capsys):
    features = tmp_path / "out" / "features"
    features.mkdir(parents=True)
    (features / "manifest.jsonl").write_text('{"track_id": "x"\n')
    assert cli.main(["train"] + _out_args(tmp_path)) == 3
    assert "manifest.jsonl:1" in capsys.readouterr().err


def test_embed_on_truncated_checkpoint_tensor_exits_3(tmp_path, capsys):
    from embedloc.corpus import TrackRecord, write_manifest
    from embedloc.encoder import Mlp, TrainConfig, feature_dim
    features = tmp_path / "out" / "features"
    features.mkdir(parents=True)
    write_manifest(features / "manifest.jsonl",
                   [TrackRecord("a", "a.emlt", 16.0)])
    ckpt = tmp_path / "out" / "checkpoints" / "none-s0"
    params = Mlp.init(feature_dim(96), 8, 4, np.random.default_rng(0))
    params.save(str(ckpt), TrainConfig(), {})
    w1 = ckpt / "w1.emlt"
    for cut in (12, len(w1.read_bytes()) - 4):
        params.save(str(ckpt), TrainConfig(), {})
        w1.write_bytes(w1.read_bytes()[:cut])
        assert cli.main(["embed"] + _out_args(tmp_path)) == 3
        assert "w1.emlt" in capsys.readouterr().err


def test_report_does_not_merge_its_own_report(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "neighborhood-x.json").write_text(json.dumps({"rows": [1]}))
    (out / "sweep-x.json").write_text(json.dumps({"rows": [2]}))
    assert cli.main(["report"] + _out_args(tmp_path)) == 0
    first = json.loads((out / "report.json").read_text())
    assert cli.main(["report"] + _out_args(tmp_path)) == 0
    second = json.loads((out / "report.json").read_text())
    assert sorted(first["artifacts"]) == ["neighborhood-x.json", "sweep-x.json"]
    assert second == first


def test_report_carries_probe_summaries_apart_from_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "probe-x").mkdir(parents=True)
    (out / "probe-empty").mkdir()
    (out / "probe-x" / "summary.json").write_text(json.dumps({"acc1": 0.5}))
    (out / "sweep-x.json").write_text(json.dumps({"rows": [2]}))
    assert cli.main(["report"] + _out_args(tmp_path)) == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report) == ["config_hash", "seed", "artifacts", "probes"]
    assert sorted(report["artifacts"]) == ["sweep-x.json"]
    assert report["probes"] == {"probe-x": {"acc1": 0.5}}


def test_report_into_a_missing_output_dir_exits_3_naming_it(tmp_path, capsys):
    missing = tmp_path / "out"
    assert cli.main(["report"] + _out_args(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert "directory %s does not exist" % missing in err and ".tmp" not in err
    assert not missing.exists()


@pytest.mark.parametrize("section,leaf,value", [
    ("mel", "num_bands", "x"),
    ("train", "total_steps", 2.5),
    ("probe", "dropout", "high"),
    ("metrics", "k_grid", 4),
    ("corpus", "num_tracks", True),
    ("metrics", "k_grid", ["a"]),
    ("metrics", "k_grid", [[2]]),
    ("metrics", "k_grid", [1.5]),
    ("metrics", "k_grid", [True]),
    ("metrics", "stretch_grid", ["x", 1.0]),
    ("metrics", "stretch_grid", [None, 1.0]),
])
def test_wrong_typed_config_leaf_exits_2(tmp_path, capsys, section, leaf, value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "paths": {"corpus_dir": str(tmp_path / "corpus"),
                  "output_dir": str(tmp_path / "out")},
        section: {leaf: value}}))
    assert cli.main(["extract", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "%s.%s" % (section, leaf) in err
    assert "Traceback" not in err


NON_FINITE = [
    ("synth", "corpus", "duration_s", "NaN"),
    ("synth", "corpus", "duration_s", "1e400"),
    ("synth", "corpus", "duration_s", "-Infinity"),
    ("synth", "corpus", "duration_s", "1" + "0" * 400),
    ("extract", "mel", "log_floor", "NaN"),
    ("train", "augmentation", "context_seconds", "NaN"),
    ("sweep", "metrics", "stretch_grid", "[1.0, Infinity]"),
]


@pytest.mark.parametrize("via", ["file", "set"])
@pytest.mark.parametrize("command,section,leaf,raw", NON_FINITE,
                         ids=lambda value: value[:16])
def test_non_finite_config_float_exits_2(tmp_path, capsys, via, command,
                                         section, leaf, raw):
    paths = json.dumps({"corpus_dir": str(tmp_path / "corpus"),
                        "output_dir": str(tmp_path / "out")})
    path = tmp_path / "c.json"
    if via == "file":   # the JSON text as written, not as json.dumps spells it
        path.write_text('{"paths": %s, "%s": {"%s": %s}}' % (paths, section, leaf, raw))
        args = ["--config", str(path)]
    else:
        path.write_text('{"paths": %s}' % paths)
        args = ["--config", str(path), "--set", "%s.%s=%s" % (section, leaf, raw)]
    assert cli.main([command] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert "%s.%s" % (section, leaf) in err and "finite number" in err
    assert not (tmp_path / "corpus").exists() and not (tmp_path / "out").exists()


def test_override_int_beyond_the_digit_limit_exits_2(capsys):
    # json.loads refuses ints of over 4300 digits with a plain ValueError
    assert cli.main(["synth", "--set", "corpus.duration_s=1" + "0" * 5000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "corpus.duration_s" in err


def test_int_config_leaf_may_replace_a_float(tmp_path):
    cfg = cli.load_config(overrides=["corpus.duration_s=12", "train.peak_lr=1"])
    assert cfg.corpus.duration_s == 12 and cfg.train.peak_lr == 1
    # an override is checked against the schema, not the int it replaces
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"train": {"peak_lr": 1}}))
    cfg = cli.load_config(str(path), overrides=["train.peak_lr=0.5"])
    assert cfg.train.peak_lr == 0.5


@pytest.mark.parametrize("leaf,value", [("num_tracks", 0), ("num_tracks", -1),
                                        ("test_fraction", -0.1),
                                        ("test_fraction", 1.5),
                                        ("duration_s", 0), ("duration_s", -1),
                                        ("duration_s", 0.00001),
                                        # past what a 16-bit mono WAV's u32
                                        # byte rate and chunk sizes hold
                                        ("mel.sample_rate_hz", 2147483648),
                                        ("duration_s", 1e16),
                                        ("duration_s", 1e305),
                                        ("duration_s", -1e305)])
def test_synth_of_no_tracks_or_a_bad_split_exits_2(tmp_path, capsys, leaf, value):
    corpus_dir = tmp_path / "corpus"
    path = leaf if "." in leaf else "corpus." + leaf
    assert cli.main(["synth", "--set", 'paths.corpus_dir="%s"' % corpus_dir,
                     "--set", "%s=%s" % (path, value)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and leaf in err
    assert not corpus_dir.exists()


def test_synth_at_the_wav_limits_passes_the_checks():
    # the largest rate and track a WAV holds load; two bands keep the
    # largest rate's bin spacing inside band 0
    from embedloc.corpus import WAV_MAX_RATE_HZ, WAV_MAX_SAMPLES
    for rate, duration in ((WAV_MAX_RATE_HZ, 1e-6), (16000, WAV_MAX_SAMPLES / 16000)):
        run = cli.load_config(overrides=[
            "mel.sample_rate_hz=%d" % rate, "mel.num_bands=2",
            "corpus.duration_s=%r" % duration])
        assert (run.mel.sample_rate_hz, run.corpus.duration_s) == (rate, duration)


@pytest.mark.parametrize("value", [0, -5])
def test_extract_with_a_window_below_one_sample_exits_2(tmp_path, capsys, value):
    assert cli.main(["extract", "--set", "mel.window_length=%d" % value]
                    + _out_args(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "window_length" in err
    assert not (tmp_path / "out").exists()


def test_extract_of_a_non_finite_f32_track_exits_3_naming_it(tmp_path, capsys):
    from embedloc.corpus import TrackRecord, write_manifest
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    pcm = np.zeros(16000, dtype="<f4")
    pcm[123] = np.nan
    pcm.tofile(corpus_dir / "a.f32")
    write_manifest(corpus_dir / "manifest.jsonl", [TrackRecord("a", "a.f32", 1.0)])
    assert cli.main(["extract", "--set", 'paths.corpus_dir="%s"' % corpus_dir]
                    + _out_args(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "a.f32" in err
    assert not (tmp_path / "out" / "features" / "manifest.jsonl").exists()


@pytest.mark.parametrize("command,chain", [("synth", "[1]"), ("extract", '["XX"]'),
                                           ("report", '["PS", "TS"]')])
def test_bad_augmentation_chain_exits_2_at_every_command(tmp_path, capsys,
                                                         command, chain):
    corpus_dir = tmp_path / "corpus"
    assert cli.main([command, "--set", 'paths.corpus_dir="%s"' % corpus_dir,
                     "--set", "augmentation.chain=%s" % chain]
                    + _out_args(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "augmentation.chain" in err
    assert not corpus_dir.exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", [["--workers", "2"], ["--deterministic"]])
def test_removed_flags_are_unknown_arguments(flag, capsys):
    assert cli.main(["report"] + flag) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["rmms_direction", "tag_precision_variant"])
def test_removed_metric_keys_are_unknown_config_paths(key):
    from embedloc.errors import ConfigError
    with pytest.raises(ConfigError, match="unknown config path"):
        cli.load_config(overrides=["metrics.%s=x" % key])
    prov = cli._provenance(cli.load_config())
    assert key not in prov and "config_hash" in prov


def _features_and_checkpoint(tmp_path, feature_bands, ckpt_bands,
                             track_ids=("a",), frames=1600):
    """A feature set of test-split tracks `track_ids` (by default one),
    each `feature_bands` mel bands by `frames` frames, and a checkpoint
    whose w1 is sized for `ckpt_bands`."""
    from embedloc import tensorio
    from embedloc.corpus import TrackRecord, write_manifest
    from embedloc.encoder import Mlp, TrainConfig, feature_dim
    features = tmp_path / "out" / "features"
    features.mkdir(parents=True)
    write_manifest(features / "manifest.jsonl",
                   [TrackRecord(tid, tid + ".emlt", 16.0, split="test")
                    for tid in track_ids])
    rng = np.random.default_rng(0)
    for tid in track_ids:
        tensorio.write_tensor(features / (tid + ".emlt"),
                              rng.uniform(-4, 1, size=(feature_bands, frames)))
    ckpt = tmp_path / "out" / "checkpoints" / "none-s0"
    params = Mlp.init(feature_dim(ckpt_bands), 8, 4, rng)
    params.save(str(ckpt), TrainConfig(), {})
    return ckpt


@pytest.mark.parametrize("command", ["embed", "sweep"])
@pytest.mark.parametrize("feature_bands,ckpt_bands", [(96, 96), (64, 96), (96, 64)])
def test_checkpoint_with_other_mel_bands_exits_3(tmp_path, capsys, command,
                                                 feature_bands, ckpt_bands):
    # the config asks for other bands than the checkpoint's w1 was sized
    # for, whether the features agree with the checkpoint or the config
    bands = 64 if ckpt_bands == 96 else 96
    _features_and_checkpoint(tmp_path, feature_bands, ckpt_bands)
    code = cli.main([command, "--set", "mel.num_bands=%d" % bands]
                    + _out_args(tmp_path))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error:") and "checkpoints/none-s0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "embeddings" / "none-s0.json").exists()


@pytest.mark.parametrize("command", ["embed", "sweep"])
def test_features_with_other_mel_bands_exit_3(tmp_path, capsys, command):
    # checkpoint and config agree on 64 bands; the features hold 96
    _features_and_checkpoint(tmp_path, 96, 64)
    code = cli.main([command, "--set", "mel.num_bands=64"] + _out_args(tmp_path))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error:") and "a.emlt" in err and "64" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["embed", "sweep"])
def test_matching_mel_bands_run(tmp_path, capsys, command):
    _features_and_checkpoint(tmp_path, 64, 64)
    assert cli.main([command, "--set", "mel.num_bands=64"] + _out_args(tmp_path)) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# every corrupt input ends in exit 2 or 3, never a traceback

def _valid_tree(tmp_path):
    """A corpus of one WAV, three extracted tracks, a checkpoint and an
    embedding set: every input the table below corrupts, intact. Returns
    the overrides that point the CLI at it and keep each command small."""
    from embedloc import melfront, tensorio
    from embedloc.corpus import TrackRecord, write_manifest
    from embedloc.embedspace import EmbeddingSet
    from embedloc.encoder import Mlp, TrainConfig, feature_dim
    rng = np.random.default_rng(0)
    corpus_dir, out = tmp_path / "corpus", tmp_path / "out"
    (out / "features").mkdir(parents=True)
    corpus_dir.mkdir()
    melfront.write_pcm_wav(corpus_dir / "a.wav", 0.1 * rng.standard_normal(16000), 16000)
    write_manifest(corpus_dir / "manifest.jsonl", [TrackRecord("a", "a.wav", 1.0)])
    records = [TrackRecord(tid, tid + ".emlt", 16.0, bpm=bpm, key_label="C:maj",
                           tags=("sine",), split=split)
               for tid, bpm, split in (("a", 120.0, "train"), ("b", 130.0, "train"),
                                       ("c", 90.0, "test"))]
    write_manifest(out / "features" / "manifest.jsonl", records)
    for rec in records:
        tensorio.write_tensor(out / "features" / rec.feature_path,
                              rng.uniform(-4, 1, size=(96, 1600)))
    Mlp.init(feature_dim(96), 8, 4, rng).save(
        str(out / "checkpoints" / "none-s0"), TrainConfig(), {})
    (out / "embeddings").mkdir()
    matrix = rng.standard_normal((3, 4))
    EmbeddingSet(ids=["a", "b", "c"],
                 matrix=matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
                 ).save(str(out / "embeddings" / "none-s0"))
    # k_grid is set in the file, so that a row below can corrupt it there
    (tmp_path / "c.json").write_text('{"metrics": {"k_grid": [1]}}')
    sets = {"paths.corpus_dir": '"%s"' % corpus_dir, "paths.output_dir": '"%s"' % out,
            "train.total_steps": 2, "train.warmup_steps": 1, "train.batch_pairs": 2,
            "probe.total_steps": 2}
    return [arg for key, value in sets.items()
            for arg in ("--set", "%s=%s" % (key, value))]


def test_valid_tree_runs_every_command(tmp_path, capsys):
    base = _valid_tree(tmp_path)
    for command in ("train", "embed", "neighborhood", "retrieval", "probe", "extract"):
        assert cli.main([command, "--config", str(tmp_path / "c.json")] + base) == 0, \
            capsys.readouterr().err


def test_analysis_artifacts_hold_the_library_values(tmp_path, capsys):
    """neighborhood, retrieval and sweep each write a JSON document with
    its keys in a fixed order and a CSV table of the same values, and
    every value is what a direct library call gives."""
    from dataclasses import replace
    from embedloc import locality
    from embedloc.augment import TimeStretchParams, time_stretch
    from embedloc.corpus import read_manifest, write_manifest
    from embedloc.embedspace import EmbeddingSet, cosine_distance, embed_track
    base = _valid_tree(tmp_path) + ["--set", "metrics.k_grid=[1,2]",
                                    "--set", "metrics.stretch_grid=[0.8,1.0,1.25]"]
    out = tmp_path / "out"
    manifest = out / "features" / "manifest.jsonl"
    # every track in the test split, so the sweep has three distances per factor
    write_manifest(manifest, [replace(r, split="test") for r in read_manifest(manifest)])
    for command in ("neighborhood", "retrieval", "sweep"):
        assert cli.main([command] + base) == 0, capsys.readouterr().err
    config = cli.load_config(overrides=base[1::2])
    records = read_manifest(manifest)
    es = EmbeddingSet.load(str(out / "embeddings" / "none-s0"))

    def table(stem):
        doc = json.loads((out / (stem + ".json")).read_text())
        lines = (out / (stem + ".csv")).read_text().splitlines()
        return doc, [line.split(",") for line in lines]

    metrics = ["tempo_rmms", "key_precision", "tag_precision", "tag_retrieval"]
    doc, lines = table("neighborhood-none-s0")
    assert list(doc) == ["k_grid", "provenance"] + metrics
    assert doc["k_grid"] == [1, 2] and doc["provenance"] == cli._provenance(config)
    assert lines[0] == ["k"] + metrics and len(lines) == 3
    for k, line in zip((1, 2), lines[1:]):
        want = [getattr(locality, m)(es, records, k) for m in metrics]
        assert [doc[m][str(k)] for m in metrics] == want
        assert line == [repr(v) for v in [k] + want]
    assert all(list(doc[m]) == ["1", "2"] for m in metrics)

    doc, lines = table("retrieval-none-s0")
    columns = ["k", "tag_precision", "tag_retrieval"]
    assert list(doc) == ["provenance", "rows"]
    assert doc["provenance"] == cli._provenance(config)
    assert lines[0] == columns and len(lines) == 3
    for k, row, line in zip((1, 2), doc["rows"], lines[1:]):
        want = [k, locality.tag_precision(es, records, k),
                locality.tag_retrieval(es, records, k)]
        assert list(row) == columns and [row[c] for c in columns] == want
        assert line == [repr(v) for v in want]

    doc, lines = table("sweep-time_stretch-none-s0")
    assert list(doc) == ["kind", "factors", "provenance", "rows"]
    assert doc["kind"] == "time_stretch" and doc["factors"] == [0.8, 1.0, 1.25]
    assert doc["provenance"] == cli._provenance(config, sweep_kind="time_stretch")
    assert lines[0] == ["factor", "mean_distance", "iqr"] and len(lines) == 4
    params = cli._load_checkpoint(config)
    window = config.augmentation.output_frames(config.mel)
    mels = list(cli._load_mels(records, config))
    for f, row, line in zip(doc["factors"], doc["rows"], lines[1:]):
        assert list(row) == ["factor", "mean", "iqr", "distances"] and row["factor"] == f
        assert row["distances"] == [
            cosine_distance(embed_track(mel, params, window),
                            embed_track(time_stretch(mel, TimeStretchParams(tau=f)),
                                        params, window))
            for mel in mels]
        lo, hi = np.percentile(row["distances"], [25, 75])
        assert row["mean"] == float(np.mean(row["distances"]))
        assert row["iqr"] == float(hi - lo)
        assert line == [repr(v) for v in (f, row["mean"], row["iqr"])]


def test_sweep_grid_with_a_repeated_factor_exits_2(tmp_path, capsys):
    base = _valid_tree(tmp_path)
    assert cli.main(["sweep", "--set", "metrics.stretch_grid=[1.0,1.0,1.25]"] + base) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "repeats a factor" in err
    assert "Traceback" not in err
    assert not list((tmp_path / "out").glob("sweep-*"))


@pytest.mark.parametrize("factor", ["100000", "1" + "0" * 400, "-100000"],
                         ids=["overflow", "400-digit-int", "underflow"])
def test_sweep_pitch_factor_without_a_finite_ratio_exits_2_naming_it(tmp_path, capsys,
                                                                     factor):
    base = _valid_tree(tmp_path)
    code = cli.main(["sweep", "--set", 'metrics.sweep_kind="pitch_shift"',
                     "--set", "metrics.pitch_grid=[0, %s]" % factor] + base)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "sweep factor %s:" % factor in err
    assert "Traceback" not in err
    assert not list((tmp_path / "out").glob("sweep-*"))


@pytest.mark.parametrize("command", ["extract", "train", "embed", "sweep",
                                     "neighborhood", "retrieval", "probe"])
def test_manifest_that_lists_no_tracks_exits_3_naming_it(tmp_path, capsys, command):
    base = _valid_tree(tmp_path)
    manifest = (tmp_path / ("corpus" if command == "extract" else "out/features")
                / "manifest.jsonl")
    manifest.write_text("\n")
    assert cli.main([command] + base) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert "%s: lists no tracks" % manifest in err


@pytest.mark.parametrize("command", ["neighborhood", "retrieval", "probe"])
def test_command_without_an_embedding_set_creates_no_directory(tmp_path, capsys,
                                                              command):
    _features_and_checkpoint(tmp_path, 96, 96)
    assert cli.main([command] + _out_args(tmp_path)) == 3
    assert "run `embed` first" in capsys.readouterr().err
    assert not (tmp_path / "out" / "embeddings").exists()


CHECKPOINT_HEADER = "out/checkpoints/none-s0/header.json"
EMBEDDING_HEADER = "out/embeddings/none-s0.json"
DEEP = b"[" * 100000


def _emlt(array):
    """The bytes of an EMLT file holding `array` as float32."""
    stored = np.asarray(array, dtype="<f4")
    return (b"EMLT" + struct.pack("<3H%dQ" % stored.ndim, 1, 1, stored.ndim,
                                  *stored.shape) + stored.tobytes())


def _reshaped_tensor(name, shape):
    """A corruption of the checkpoint header that also rewrites tensor
    `name` as zeros of `shape`, with header dims and digest to match: it
    returns the new contents of both files by path under the tree."""
    def corrupt(header):
        doc = json.loads(header)
        zeros = np.zeros(shape, dtype="<f4")
        doc["tensors"][name].update(dims=list(shape),
                                    sha256=hashlib.sha256(zeros).hexdigest())
        return {CHECKPOINT_HEADER: json.dumps(doc).encode(),
                "out/checkpoints/none-s0/%s.emlt" % name: _emlt(zeros)}
    return corrupt


def _tensor_from_another_run(rel, shape):
    """A corruption that leaves a header as it is and puts in `rel` a
    tensor of the `shape` that header gives it, holding other values: a
    set mixed from two runs."""
    def corrupt(header):
        return {rel: _emlt(np.random.default_rng(1).standard_normal(shape))}
    return corrupt


def _without_digests(header):
    """The header of a set written before headers held digests."""
    doc = json.loads(header)
    for meta in doc["tensors"].values():
        del meta["sha256"]
    return json.dumps(doc).encode()


def _second_tensor(header):
    """An embedding header that indexes its tensor twice, by two names."""
    doc = json.loads(header)
    (meta,) = doc["tensors"].values()
    doc["tensors"]["again"] = meta
    return json.dumps(doc).encode()


def _with_seed_fields(header):
    """A checkpoint header laid out as before the seed had one home:
    rng_seed in its config, and the band count, step count and seed as
    keys of their own."""
    doc = json.loads(header)
    return json.dumps({"tensors": doc["tensors"],
                       "config": dict(doc["config"], rng_seed=0),
                       "num_bands": 96, "step": 2, "seed": 0,
                       "provenance": doc["provenance"]}).encode()


def _first_row(field, value):
    """A corruption of a manifest that sets `field` of its first record
    (a train track) to `value`, written as JSON."""
    def corrupt(manifest):
        first, rest = manifest.split(b"\n", 1)
        doc = json.loads(first)
        doc[field] = value
        return json.dumps(doc).encode() + b"\n" + rest
    return corrupt


FEATURE_MANIFEST = "out/features/manifest.jsonl"

CORRUPT_INPUTS = [
    # (command, file under the tree, new contents from the intact ones, exit
    # code); new contents given as a dict replace several files by path
    ("extract", "c.json", lambda b: b"{not json", 2),
    ("extract", "c.json", lambda b: b'{"seed": "\xff"}', 2),
    ("extract", "c.json", lambda b: DEEP, 2),
    ("extract", "c.json", lambda b: b"[1]", 2),
    ("extract", "corpus/manifest.jsonl", lambda b: b'{"track_id": "a"\n', 3),
    ("extract", "corpus/manifest.jsonl", lambda b: b"\xff\xfe\n", 3),
    ("extract", "corpus/a.wav", lambda b: b[:30], 3),
    ("extract", "corpus/a.wav", lambda b: b[:-1], 3),
    ("train", "out/features/manifest.jsonl", lambda b: b"[1]\n", 3),
    ("train", "out/features/a.emlt", lambda b: b[:12], 3),
    ("train", "out/features/a.emlt", lambda b: b[:-4], 3),
    ("train", "out/features/a.emlt", lambda b: b"XXXX" + b[4:], 3),
    ("embed", CHECKPOINT_HEADER, lambda b: b[:-10], 3),
    ("embed", CHECKPOINT_HEADER, lambda b: b"\xff" + b, 3),
    ("embed", CHECKPOINT_HEADER, lambda b: DEEP, 3),
    ("embed", CHECKPOINT_HEADER, lambda b: b"[1, 2]", 3),
    ("embed", "out/checkpoints/none-s0/w2.emlt", lambda b: b[:20], 3),
    ("neighborhood", EMBEDDING_HEADER, lambda b: b'{"ids": ["a"', 3),
    ("retrieval", EMBEDDING_HEADER, lambda b: b"\xff" + b, 3),
    ("probe", EMBEDDING_HEADER, lambda b: DEEP, 3),
    ("neighborhood", EMBEDDING_HEADER, lambda b: b"[1, 2]", 3),
    ("retrieval", EMBEDDING_HEADER, lambda b: b'{"dim": 4}', 3),
    ("probe", EMBEDDING_HEADER, lambda b: b'{"ids": "abc"}', 3),
    ("neighborhood", EMBEDDING_HEADER, lambda b: b'{"ids": ["a", 2, "c"]}', 3),
    ("retrieval", EMBEDDING_HEADER, lambda b: b'{"ids": ["a", "b"]}', 3),
    ("probe", "out/embeddings/none-s0.emlt", lambda b: b[:-8], 3),
    # a data chunk holding half the frames its header declares
    ("extract", "corpus/a.wav", lambda b: b[:len(b) // 2], 3),
    # a chain that only the augmenting commands used to build and reject
    ("synth", "c.json", lambda b: b'{"augmentation": {"chain": [1]}}', 2),
    ("extract", "c.json", lambda b: b'{"augmentation": {"chain": ["XX"]}}', 2),
    # output windows under the 2 frames that pooling differences need
    ("embed", "c.json", lambda b: b'{"augmentation": {"output_seconds": 0}}', 2),
    ("sweep", "c.json", lambda b: b'{"augmentation": {"output_seconds": 0}}', 2),
    ("embed", "c.json", lambda b: b'{"augmentation": {"output_seconds": 0.01}}', 2),
    ("sweep", "c.json", lambda b: b'{"augmentation": {"output_seconds": 0.01}}', 2),
    ("train", "c.json", lambda b: b'{"augmentation": {"output_seconds": 0.01}}', 2),
    ("train", "c.json", lambda b: b'{"augmentation": {"output_seconds": -1}}', 2),
    # a whole 5 x 7 tensor where the header gives w1 dims [96, 8]
    ("embed", "out/checkpoints/none-s0/w1.emlt",
     lambda b: b[:10] + struct.pack("<2Q", 5, 7) + bytes(4 * 35), 3),
    # a stored config that TrainConfig rejects, though the user's is valid
    ("embed", CHECKPOINT_HEADER,
     lambda b: b.replace(b'"temperature": 0.1', b'"temperature": 0'), 3),
    # tensors whose files match the header's dims but whose layers do not
    # chain under w1 (8, 216)
    ("embed", CHECKPOINT_HEADER, _reshaped_tensor("w2", (4, 9)), 3),
    ("embed", CHECKPOINT_HEADER, _reshaped_tensor("b1", (3,)), 3),
    ("embed", CHECKPOINT_HEADER, _reshaped_tensor("b2", (4, 1)), 3),
    # a tensor file outside the checkpoint directory (here: the same file)
    ("embed", CHECKPOINT_HEADER,
     lambda b: b.replace(b'"w2.emlt"', b'"../none-s0/w2.emlt"'), 3),
    # sets mixed from two runs: a tensor of the dims the header gives it,
    # but not the values its digest records
    ("embed", CHECKPOINT_HEADER,
     _tensor_from_another_run("out/checkpoints/none-s0/w1.emlt", (8, 216)), 3),
    ("neighborhood", EMBEDDING_HEADER,
     _tensor_from_another_run("out/embeddings/none-s0.emlt", (3, 4)), 3),
    # sets written before headers held digests
    ("embed", CHECKPOINT_HEADER, _without_digests, 3),
    ("retrieval", EMBEDDING_HEADER, _without_digests, 3),
    ("probe", EMBEDDING_HEADER,
     lambda b: b'{"dim": 4, "ids": ["a", "b", "c"], "provenance": {}}', 3),
    # an embedding header that indexes two tensors
    ("neighborhood", EMBEDDING_HEADER, _second_tensor, 3),
    # sizes below 1
    ("train", "c.json", lambda b: b'{"train": {"embedding_dim": -3}}', 2),
    ("train", "c.json", lambda b: b'{"train": {"hidden_units": 0}}', 2),
    ("probe", "c.json", lambda b: b'{"probe": {"hidden_units": -2}}', 2),
    # manifest fields of the wrong type or range
    ("train", FEATURE_MANIFEST, _first_row("duration_s", float("inf")), 3),
    ("neighborhood", FEATURE_MANIFEST, _first_row("tags", [{"a": 1}]), 3),
    ("retrieval", FEATURE_MANIFEST, _first_row("tags", ["a", 1]), 3),
    ("neighborhood", FEATURE_MANIFEST, _first_row("tags", [None]), 3),
    ("train", FEATURE_MANIFEST, _first_row("feature_path", 5), 3),
    ("embed", FEATURE_MANIFEST, _first_row("feature_path", 5), 3),
    ("sweep", FEATURE_MANIFEST, _first_row("feature_path", 5), 3),
    ("neighborhood", FEATURE_MANIFEST, _first_row("track_id", 5), 3),
    # a checkpoint written before its header held only tensors, config
    # and provenance
    ("embed", CHECKPOINT_HEADER, _with_seed_fields, 3),
    # learning rates that are not above 0
    ("probe", "c.json", lambda b: b'{"probe": {"learning_rate": -1}}', 2),
    ("train", "c.json", lambda b: b'{"train": {"peak_lr": 0}}', 2),
    # k grids that no set size makes valid
    ("neighborhood", "c.json", lambda b: b'{"metrics": {"k_grid": [0]}}', 2),
    ("retrieval", "c.json", lambda b: b'{"metrics": {"k_grid": [-3]}}', 2),
    ("neighborhood", "c.json", lambda b: b'{"metrics": {"k_grid": [1, 1]}}', 2),
    ("retrieval", "c.json", lambda b: b'{"metrics": {"k_grid": []}}', 2),
    ("synth", "c.json", lambda b: b'{"metrics": {"k_grid": [1, 1]}}', 2),
    # a TS chain whose context cannot hold its reach at tau 1.5
    ("train", "c.json",
     lambda b: b'{"augmentation": {"chain": ["TS"], "context_seconds": 3.5}}', 2),
]


@pytest.mark.parametrize("command,name,corrupt,code", CORRUPT_INPUTS,
                         ids=["%s-%s-%d" % (c[0], c[1].rsplit("/", 1)[-1], i)
                              for i, c in enumerate(CORRUPT_INPUTS)])
def test_corrupt_input_exits_2_or_3_naming_the_file(tmp_path, capsys, command,
                                                    name, corrupt, code):
    base = _valid_tree(tmp_path)
    path = tmp_path / name
    new = corrupt(path.read_bytes())
    for rel, data in (new if isinstance(new, dict) else {name: new}).items():
        (tmp_path / rel).write_bytes(data)
    assert cli.main([command, "--config", str(tmp_path / "c.json")] + base) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 2 else "data error:")
    assert path.name in err and "Traceback" not in err


def test_train_on_a_track_declared_longer_than_any_float_window_exits_0(tmp_path,
                                                                          capsys):
    # the windows clamp to the track's last one, as for a smaller overshoot
    base = _valid_tree(tmp_path)
    manifest = tmp_path / FEATURE_MANIFEST
    manifest.write_bytes(_first_row("duration_s", 1e308)(manifest.read_bytes()))
    assert cli.main(["train"] + base) == 0, capsys.readouterr().err


@pytest.mark.parametrize("name", ["w2", "b1", "b2"])
def test_reshaped_tensors_reach_the_layers_chain_check(tmp_path, capsys, name):
    # their digests match, so loading fails on the layers, not the bytes
    base = _valid_tree(tmp_path)
    shape = {"w2": (4, 9), "b1": (3,), "b2": (4, 1)}[name]
    new = _reshaped_tensor(name, shape)((tmp_path / CHECKPOINT_HEADER).read_bytes())
    for rel, data in new.items():
        (tmp_path / rel).write_bytes(data)
    assert cli.main(["embed"] + base) == 3
    err = capsys.readouterr().err
    assert "header.json: bad parameter set: layers do not chain" in err


@pytest.mark.parametrize("key", ["train.embedding_dim", "train.hidden_units",
                                 "probe.hidden_units"])
@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("command", ["synth", "train", "probe"])
def test_size_below_one_exits_2_at_every_command(tmp_path, capsys, key, value,
                                                  command):
    assert cli.main([command, "--set", "%s=%d" % (key, value)]
                    + _valid_tree(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert "--set %s=%d" % (key, value) in err
    assert "%s must be at least 1" % key.split(".")[1] in err


@pytest.mark.parametrize("key", ["probe.learning_rate", "train.peak_lr"])
@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", ["train", "probe"])
def test_learning_rate_not_above_zero_exits_2_writing_nothing(tmp_path, capsys,
                                                               key, value, command):
    # a negative rate used to train by gradient ascent and exit 0
    base = _valid_tree(tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert cli.main([command, "--set", "%s=%s" % (key, value)] + base) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert "--set %s=%s" % (key, value) in err
    assert "%s must be positive" % key.split(".")[1] in err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("section", ["train", "probe", "augmentation"])
def test_removed_seed_keys_are_unknown_config_paths(section, capsys):
    assert cli.main(["report", "--set", "%s.rng_seed=5" % section]) == 2
    assert "unknown config path '%s.rng_seed'" % section in capsys.readouterr().err


def test_augmentation_check_names_the_mel_settings_it_reads(tmp_path, capsys):
    # the frame check reads mel.hop, so a hop that leaves too few frames
    # is named with the augmentation settings, and other sections are not
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"augmentation": {"output_seconds": 3.0}}))
    assert cli.main(["report", "--config", str(path), "--set", "mel.hop=40000",
                     "--set", "train.peak_lr=0.1"] + _out_args(tmp_path)) == 2
    assert capsys.readouterr().err == (
        "config error: augmentation from %s, --set mel.hop=40000: output_seconds"
        " 3 is 1 frame(s) at 0.4 frames/s; need at least 2\n" % path)


@pytest.mark.parametrize("command", ["train", "embed", "sweep"])
def test_ts_chain_short_of_its_reach_exits_2_at_load_writing_nothing(tmp_path, capsys,
                                                                     command):
    # it used to pass load, and train read every track to fail in step 0
    base = _valid_tree(tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    sets = ['--set', 'augmentation.chain=["TS"]',
            "--set", "augmentation.context_seconds=3.5"]
    assert cli.main([command] + sets + base) == 2
    assert capsys.readouterr().err == (
        'config error: augmentation from --set augmentation.chain=["TS"], --set'
        " augmentation.context_seconds=3.5: context_seconds 3.5 is 350 frames,"
        " which TS at tau 1.5 stretches to 233; output_seconds 3 needs 300\n")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_default_ts_geometry_loads():
    # 450 context frames reach exactly the 300 output frames at tau 1.5
    cli.load_config(overrides=['augmentation.chain=["TS", "PS", "EQ"]'])


@pytest.mark.parametrize("via", ["file", "set"])
def test_mel_error_names_where_mel_was_set(tmp_path, capsys, via):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"mel": {"hop": 0}} if via == "file" else {}))
    args = ["report", "--config", str(path)] + _out_args(tmp_path)
    if via == "set":
        args += ["--set", "mel.hop=0", "--set", "augmentation.output_seconds=2.0"]
    assert cli.main(args) == 2
    origin = str(path) + (", --set mel.hop=0" if via == "set" else "")
    assert capsys.readouterr().err == (
        "config error: mel from %s: hop must be at least 1 and at most %d, got 0\n"
        % (origin, MAX_SIZE))


@pytest.mark.parametrize("k_grid", ["[0]", "[-3]", "[1,1]", "[]"])
def test_k_grid_of_no_valid_ks_exits_2_naming_it(tmp_path, capsys, k_grid):
    # [1,1] used to write one k=1 entry in the JSON beside two CSV rows
    base = _valid_tree(tmp_path)
    for command in ("neighborhood", "retrieval", "report"):
        assert cli.main([command, "--set", "metrics.k_grid=%s" % k_grid] + base) == 2
        assert capsys.readouterr().err == (
            "config error: metrics from --set metrics.k_grid=%s: metrics.k_grid %s"
            " must hold distinct ks >= 1\n" % (k_grid, json.loads(k_grid)))
    assert not list((tmp_path / "out").glob("*.json"))


# (the section named, a --set item that section's checks reject)
LOAD_RULES = [
    ("metrics", 'metrics.sweep_kind="bogus"'),
    ("metrics", "metrics.stretch_grid=[]"),
    ("metrics", "metrics.stretch_grid=[1.0,1.0]"),
    ("metrics", "metrics.pitch_grid=[2]"),
    ("corpus", "corpus.num_tracks=0"),
    ("corpus", "corpus.test_fraction=7"),
    ("mel", "mel.num_bands=500"),
    ("mel", "mel.num_bands=100000000000"),
    # each of these two ended in an OverflowError traceback
    ("augmentation", "augmentation.context_seconds=1e308"),
    ("mel", "mel.sample_rate_hz=1" + "0" * 400),
    # train ended in an OverflowError traceback in lr_at, and in numpy's
    # "Maximum allowed dimension exceeded" for the two sizes
    ("train", ("train.warmup_steps=1" + "0" * 400, "train.total_steps=1" + "0" * 401)),
    ("train", "train.batch_pairs=1" + "0" * 400),
    ("train", "train.hidden_units=1" + "0" * 400),
    # extract would size a filterbank of 5e10 bins
    ("mel", "mel.dft_size=100000000000"),
    # each of these passed a cap of sys.maxsize, then ended in numpy's
    # "array is too big" traceback
    ("train", "train.hidden_units=9223372036854775807"),
    ("train", "train.batch_pairs=9223372036854775807"),
    ("train", "train.embedding_dim=9223372036854775807"),
    ("probe", "probe.batch_size=9223372036854775807"),
    ("probe", "probe.hidden_units=9223372036854775807"),
]


def _items(item):
    """A LOAD_RULES row's `--set` items: one, or a tuple of them."""
    return (item,) if isinstance(item, str) else item


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@pytest.mark.parametrize("section,item", LOAD_RULES,
                         ids=[" ".join(_items(item))[:32] for _, item in LOAD_RULES])
def test_every_command_checks_every_section_at_load(tmp_path, capsys, command,
                                                    section, item):
    corpus_dir, out = tmp_path / "corpus", tmp_path / "out"
    items = _items(item) + ('paths.corpus_dir="%s"' % corpus_dir,
                            'paths.output_dir="%s"' % out)
    assert cli.main([command] + [arg for one in items for arg in ("--set", one)]) == 2
    err = capsys.readouterr().err
    origin = ", ".join("--set " + one for one in _items(item))
    assert err.startswith("config error: %s from %s: " % (section, origin))
    assert "Traceback" not in err
    assert not corpus_dir.exists() and not out.exists()


def test_k_at_the_set_size_stays_a_data_error(tmp_path, capsys):
    # valid at load; the 3-track set makes k=3 too large
    base = _valid_tree(tmp_path)
    assert cli.main(["neighborhood", "--set", "metrics.k_grid=[1,3]"] + base) == 3
    assert "k=3 must be in [1, set size 3)" in capsys.readouterr().err


def test_probe_without_labelled_test_tracks_drops_the_former_evaluation(
        tmp_path, capsys):
    base = _valid_tree(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["probe"] + base) == 0
    assert {"eval.csv", "summary.json"} <= {p.name for p in (out / "probe-none-s0").iterdir()}
    # the one test track becomes a train track, as after a re-synth with
    # corpus.test_fraction=0
    manifest = tmp_path / FEATURE_MANIFEST
    manifest.write_bytes(manifest.read_bytes().replace(b'"split": "test"',
                                                       b'"split": "train"'))
    assert cli.main(["probe"] + base) == 0
    assert sorted(p.name for p in (out / "probe-none-s0").iterdir()) == [
        "b1.emlt", "b2.emlt", "header.json", "w1.emlt", "w2.emlt"]
    assert cli.main(["report"] + base) == 0
    assert json.loads((out / "report.json").read_text())["probes"] == {}


@pytest.mark.parametrize("command", ["embed", "sweep"])
def test_peak_memory_does_not_grow_with_the_track_count(tmp_path, capsys, command):
    trees = []
    for n in (8, 64):
        _features_and_checkpoint(tmp_path / str(n), 96, 96, frames=400,
                                 track_ids=["t%03d" % i for i in range(n)])
        trees.append(_out_args(tmp_path / str(n))
                     + ["--set", "metrics.stretch_grid=[0.8,1.0,1.25]"])
    small, large = trees
    assert cli.main([command] + small) == 0   # fills the process's caches
    peaks = []
    tracemalloc.start()
    try:
        for args in (small, large):
            tracemalloc.reset_peak()
            assert cli.main([command] + args) == 0, capsys.readouterr().err
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    # the 56 more tracks hold 8.6 MB as float32; the peak may grow by
    # what they add to the manifest and the results, not by one track
    track_bytes = 96 * 400 * 4
    assert peaks[1] - peaks[0] < track_bytes, peaks


def test_train_holds_the_tracks_as_stored_float32(tmp_path, capsys, monkeypatch):
    base = _valid_tree(tmp_path)
    dtypes = []
    real_train = cli.train

    def spy(records, mels, spec, config, *, seed):
        dtypes.extend(mel.values.dtype for mel in mels.values())
        return real_train(records, mels, spec, config, seed=seed)

    monkeypatch.setattr(cli, "train", spy)
    assert cli.main(["train"] + base) == 0, capsys.readouterr().err
    assert dtypes == [np.float32, np.float32]

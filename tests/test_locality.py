import itertools
import json

import numpy as np
import pytest

from embedloc import cli, corpus, embedspace, encoder, locality, melfront
from embedloc.embedspace import EmbeddingSet
from embedloc.errors import ConfigError, DataError
from embedloc.locality import MetricsConfig


def unit_rows(arr):
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def planted_set(rng, n, d=6):
    """Embedding set plus records with random bpm / key / tags."""
    ids = ["t%03d" % i for i in range(n)]
    es = EmbeddingSet(ids=ids, matrix=unit_rows(rng.standard_normal((n, d))))
    records = []
    for tid in ids:
        records.append(corpus.TrackRecord(
            tid, tid + ".emlt", 20.0,
            bpm=float(rng.integers(60, 181)),
            key_label=corpus.KEY_VOCABULARY[rng.integers(0, 24)],
            tags=tuple(t for t in ("x", "y", "z") if rng.uniform() < 0.5)))
    return es, records


# ---------------------------------------------------------------------------
# worked examples

def two_point_set():
    # "seed" has exactly one neighbor at k=1: the other vector
    m = unit_rows(np.array([[1.0, 0.1], [1.0, 0.0], [0.0, 1.0]]))
    return EmbeddingSet(ids=["seed", "near", "far"], matrix=m)


def rec(tid, bpm=None, key=None, tags=()):
    return corpus.TrackRecord(tid, tid + ".emlt", 20.0, bpm=bpm,
                              key_label=key, tags=tags)


def test_tempo_rmms_worked_examples():
    es = two_point_set()
    # same tempo: zero
    recs = [rec("seed", 120.0), rec("near", 120.0), rec("far", 120.0)]
    seeds_only = EmbeddingSet(ids=es.ids[:2] + ["far"], matrix=es.matrix)
    assert locality.tempo_rmms(es, recs, 1) == 0.0
    # neighbor one octave up still scores zero (2x is allowed)
    recs = [rec("seed", 80.0), rec("near", 160.0), rec("far", 120.0)]
    assert locality.tempo_rmms(es, recs, 1) == pytest.approx(
        np.mean([0.0, np.sqrt(min((o * 160 - 80) ** 2
                                  for o in locality.TEMPO_OCTAVES)),
                 np.sqrt(min((o * 120 - 80) ** 2
                             for o in locality.TEMPO_OCTAVES))]))
    # plain offset: neighbor at 130 vs seed 120 -> 10 for that seed
    recs = [rec("seed", 120.0), rec("near", 130.0), rec("far", 120.0)]
    per_seed = [10.0,                       # seed -> near
                10.0,                       # near -> seed offset 10
                0.0]                        # far -> seed? depends on geometry
    # compute the third term honestly via the same octave rule
    got = locality.tempo_rmms(es, recs, 1)
    nb_far = embedspace.knn(es, "far", 1)[0][0]
    bpm = {"seed": 120.0, "near": 130.0, "far": 120.0}
    per_seed[2] = np.sqrt(min((o * 120.0 - bpm[nb_far]) ** 2
                              for o in locality.TEMPO_OCTAVES))
    assert got == pytest.approx(np.mean(per_seed))


def test_tempo_rmms_brute_force_oracle():
    rng = np.random.default_rng(5)
    for trial in range(10):
        es, records = planted_set(rng, int(rng.integers(8, 30)))
        k = int(rng.integers(1, 5))
        got = locality.tempo_rmms(es, records, k)
        bpm = {r.track_id: r.bpm for r in records}
        per_seed = []
        for seed in es.ids:
            sq = []
            for nb, _ in embedspace.knn(es, seed, k):
                best = min(abs(o * bpm[seed] - bpm[nb])
                           for o in (1 / 3, 0.5, 1.0, 2.0, 3.0))
                sq.append(best ** 2)
            per_seed.append(np.sqrt(np.mean(sq)))
        assert got == pytest.approx(np.mean(per_seed))


def test_key_and_tag_precision_brute_force():
    rng = np.random.default_rng(6)
    for trial in range(10):
        es, records = planted_set(rng, int(rng.integers(8, 30)))
        k = int(rng.integers(1, 5))
        keys = {r.track_id: r.key_label for r in records}
        tags = {r.track_id: set(r.tags) for r in records}

        got_key = locality.key_precision(es, records, k)
        ref = np.mean([sum(keys[nb] == keys[seed]
                           for nb, _ in embedspace.knn(es, seed, k)) / k
                       for seed in es.ids])
        assert got_key == pytest.approx(ref)

        seeds_with_tags = [s for s in es.ids if tags[s]]
        if not seeds_with_tags:
            continue
        got_tag = locality.tag_precision(es, records, k)
        per_seed = []
        for seed in seeds_with_tags:
            neighbor_tags = list(itertools.chain.from_iterable(
                sorted(tags[nb]) for nb, _ in embedspace.knn(es, seed, k)))
            if neighbor_tags:
                per_seed.append(np.mean([t in tags[seed] for t in neighbor_tags]))
            else:
                per_seed.append(0.0)
        assert got_tag == pytest.approx(np.mean(per_seed))


def test_tag_retrieval_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(10):
        es, records = planted_set(rng, int(rng.integers(8, 30)))
        k = int(rng.integers(1, 5))
        tags = {r.track_id: set(r.tags) for r in records}
        if not any(tags.values()):
            continue
        got = locality.tag_retrieval(es, records, k)
        all_tags = sorted(set(itertools.chain.from_iterable(tags.values())))
        per_tag = []
        for t in all_tags:
            members = [tid for tid in es.ids if t in tags[tid]]
            hits = 0
            for tid in members:
                nb_ids = {nb for nb, _ in embedspace.knn(es, tid, k)}
                if any(m in nb_ids for m in members if m != tid):
                    hits += 1
            per_tag.append(hits / len(members))
        assert got == pytest.approx(np.mean(per_tag))


def test_single_carrier_tag_scores_zero():
    rng = np.random.default_rng(8)
    m = unit_rows(rng.standard_normal((4, 3)))
    es = EmbeddingSet(ids=["a", "b", "c", "d"], matrix=m)
    records = [rec("a", tags=("solo",)), rec("b", tags=("duo",)),
               rec("c", tags=("duo",)), rec("d", tags=())]
    got = locality.tag_retrieval(es, records, 3)
    # "solo" contributes 0; "duo" carriers always see each other at k=3
    assert got == pytest.approx(0.5)


def test_metrics_require_labels():
    rng = np.random.default_rng(9)
    m = unit_rows(rng.standard_normal((4, 3)))
    es = EmbeddingSet(ids=["a", "b", "c", "d"], matrix=m)
    unlabeled = [rec(t) for t in es.ids]
    with pytest.raises(DataError):
        locality.tempo_rmms(es, unlabeled, 2)
    with pytest.raises(DataError):
        locality.key_precision(es, unlabeled, 2)
    with pytest.raises(DataError):
        locality.tag_precision(es, unlabeled, 2)
    with pytest.raises(DataError):
        locality.tag_retrieval(es, unlabeled, 2)


def test_metrics_skip_missing_labels_like_a_plain_loop():
    """Seeds without a label, neighbours without a label and tracks
    without a record are skipped exactly as a per-seed loop skips them."""
    rng = np.random.default_rng(12)
    for trial in range(30):
        n = int(rng.integers(4, 40))
        es = EmbeddingSet(ids=["t%03d" % i for i in rng.permutation(n)],
                          matrix=unit_rows(rng.standard_normal((n, 4))))
        by_id = {t: rec(t, bpm=None if rng.uniform() < 0.3 else float(rng.integers(60, 181)),
                        key=None if rng.uniform() < 0.3
                        else corpus.KEY_VOCABULARY[rng.integers(0, 24)],
                        tags=tuple(x for x in "abcd" if rng.uniform() < 0.3))
                 for t in es.ids if rng.uniform() > 0.15}
        records = list(by_id.values())
        k = int(rng.integers(1, n))
        hood = {s: [nb for nb, _ in embedspace.knn(es, s, k)] for s in es.ids}
        bpm = {t: by_id[t].bpm if t in by_id else None for t in es.ids}
        key = {t: by_id[t].key_label if t in by_id else None for t in es.ids}
        tags = {t: set(by_id[t].tags) if t in by_id else set() for t in es.ids}

        rmms, keyp, tagp, tagr = [], [], [], []
        for s in es.ids:
            sq = [min((o * bpm[s] - bpm[nb]) ** 2 for o in locality.TEMPO_OCTAVES)
                  for nb in hood[s] if bpm[s] is not None and bpm[nb] is not None]
            if sq:
                rmms.append(np.sqrt(np.mean(sq)))
            if key[s] is not None:
                keyp.append(sum(key[nb] == key[s] for nb in hood[s]) / k)
            if tags[s]:
                pool = [t for nb in hood[s] for t in tags[nb]]
                tagp.append(np.mean([t in tags[s] for t in pool]) if pool else 0.0)
        for tag in sorted(set().union(*tags.values())):
            members = [t for t in es.ids if tag in tags[t]]
            tagr.append(np.mean([any(m in hood[t] for m in members) for t in members]))

        for metric, ref in ((locality.tempo_rmms, rmms), (locality.key_precision, keyp),
                            (locality.tag_precision, tagp), (locality.tag_retrieval, tagr)):
            if ref:
                assert metric(es, records, k) == pytest.approx(np.mean(ref), abs=1e-12)
            else:
                with pytest.raises(DataError):
                    metric(es, records, k)


# ---------------------------------------------------------------------------
# sweeps

@pytest.fixture(scope="module")
def sweep_inputs():
    cfg = melfront.MelConfig()
    rng = np.random.default_rng(10)
    params = encoder.Mlp.init(encoder.feature_dim(cfg.num_bands), 16, 8, rng)
    mels = []
    for i in range(3):
        values = rng.uniform(-4, 1, size=(cfg.num_bands, 900))
        mels.append(melfront.MelSpectrogram(values=values, config=cfg,
                                            source_id="m%d" % i))
    return cfg, params, mels


def test_sweep_identity_factor_is_zero(sweep_inputs):
    _, params, mels = sweep_inputs
    res = locality.manipulation_sweep(
        mels, params, MetricsConfig(stretch_grid=(0.8, 1.0, 1.25)), 300)
    assert list(res) == [0.8, 1.0, 1.25]
    assert np.mean(res[1.0]) == pytest.approx(0.0, abs=1e-9)
    for f in (0.8, 1.25):
        lo, hi = np.percentile(res[f], [25, 75])
        assert np.mean(res[f]) >= 0.0
        assert hi - lo >= 0.0
    res = locality.manipulation_sweep(
        mels, params, MetricsConfig(sweep_kind="pitch_shift", pitch_grid=(-2, 0, 2)), 300)
    assert np.mean(res[0]) == pytest.approx(0.0, abs=1e-9)


def test_sweep_grid_must_contain_identity():
    with pytest.raises(ConfigError, match="stretch_grid .* identity factor 1"):
        MetricsConfig(stretch_grid=(0.8, 1.25))
    with pytest.raises(ConfigError, match="pitch_grid .* identity factor 0"):
        MetricsConfig(sweep_kind="pitch_shift", pitch_grid=(-2, 2))
    with pytest.raises(ConfigError, match="unknown sweep kind 'volume'"):
        MetricsConfig(sweep_kind="volume", stretch_grid=(1.0,))
    with pytest.raises(ConfigError, match="repeats a factor"):
        MetricsConfig(stretch_grid=(1.0, 1.0, 1.25))
    with pytest.raises(ConfigError, match="repeats a factor"):
        MetricsConfig(sweep_kind="pitch_shift", pitch_grid=(0, 0, 2))
    # both grids are checked, whichever kind the sweep runs
    with pytest.raises(ConfigError, match="pitch_grid"):
        MetricsConfig(pitch_grid=(2,))


@pytest.mark.parametrize("kind,factor,reason", [
    ("pitch_shift", 100000, "Numerical result out of range"),
    ("pitch_shift", 10 ** 400, "int too large"),
    ("pitch_shift", -100000, "mu must be positive"),
    ("time_stretch", 4.0, "outside operational range"),
], ids=["pitch-overflow", "pitch-400-digit-int", "pitch-underflow", "stretch-range"])
def test_sweep_factor_out_of_range_raises_config_error_before_any_track(
        kind, factor, reason):
    # the config that holds the factor rejects it, so no sweep starts
    name, identity = locality.SWEEPS[kind]
    with pytest.raises(ConfigError, match="%s sweep factor %r: .*%s"
                       % (kind, factor, reason)):
        MetricsConfig(sweep_kind=kind, **{name: (identity, factor)})


def test_sweep_serialization(tmp_path, sweep_inputs):
    """The sweep keys its per-track distances by factor in grid order, and
    the CLI table writer writes them as they are."""
    _, params, mels = sweep_inputs
    res = locality.manipulation_sweep(
        mels, params, MetricsConfig(stretch_grid=(0.8, 1.0, 1.25)), 300)
    assert list(res) == [0.8, 1.0, 1.25]
    assert all(len(d) == len(mels) for d in res.values())
    config = cli.load_config(overrides=['paths.output_dir="%s"' % tmp_path])
    rows = [{"factor": f, "mean": float(np.mean(d)), "distances": [float(x) for x in d]}
            for f, d in res.items()]
    stem = cli._write_table(config, "sweep-time_stretch",
                            {"kind": "time_stretch", "provenance": {"chain": "none"},
                             "rows": rows},
                            ["factor", "mean_distance"],
                            [[row["factor"], row["mean"]] for row in rows])
    payload = json.loads((tmp_path / "sweep-time_stretch-none-s0.json").read_text())
    assert stem == str(tmp_path / "sweep-time_stretch-none-s0")
    assert payload["kind"] == "time_stretch"
    assert payload["provenance"] == {"chain": "none"}
    assert [row["factor"] for row in payload["rows"]] == [0.8, 1.0, 1.25]
    assert [row["distances"] for row in payload["rows"]] == [list(d) for d in res.values()]
    lines = (tmp_path / "sweep-time_stretch-none-s0.csv").read_text().strip().splitlines()
    assert lines[0] == "factor,mean_distance"
    assert len(lines) == 4


def test_default_grids():
    stretch_grid, pitch_grid = MetricsConfig().stretch_grid, MetricsConfig().pitch_grid
    assert stretch_grid[8] == 1.0
    assert stretch_grid[0] == pytest.approx(0.5)
    assert stretch_grid[-1] == pytest.approx(2.0)
    assert pitch_grid == tuple(range(-12, 13))


def test_neighborhood_report_roundtrip(tmp_path):
    """The report holds each metric by k in grid order, equal to a direct
    call, and the CLI table writer writes it as it is."""
    rng = np.random.default_rng(11)
    es, records = planted_set(rng, 20)
    report = locality.compute_neighborhood_report(es, records, (2, 8))
    assert list(report) == ["tempo_rmms", "key_precision", "tag_precision",
                            "tag_retrieval"]
    for k in (2, 8):
        assert report["tempo_rmms"][k] == pytest.approx(
            locality.tempo_rmms(es, records, k))
    config = cli.load_config(overrides=['paths.output_dir="%s"' % tmp_path])
    doc = {"k_grid": [2, 8]}
    doc.update((m, {str(k): v for k, v in by_k.items()}) for m, by_k in report.items())
    cli._write_table(config, "neighborhood", doc, ["k"] + list(report),
                     [[k] + [by_k[k] for by_k in report.values()] for k in (2, 8)])
    payload = json.loads((tmp_path / "neighborhood-none-s0.json").read_text())
    assert payload["k_grid"] == [2, 8]
    assert set(payload["tempo_rmms"]) == {"2", "8"}
    assert payload["tempo_rmms"] == {str(k): report["tempo_rmms"][k] for k in (2, 8)}
    lines = (tmp_path / "neighborhood-none-s0.csv").read_text().strip().splitlines()
    assert lines[0].startswith("k,tempo_rmms")
    assert len(lines) == 3

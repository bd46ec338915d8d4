import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embedloc import augment, corpus, embedspace, encoder, locality, melfront
from embedloc.embedspace import EmbeddingSet
from embedloc.errors import DataError


def unit_rows(arr):
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def random_set(rng, n=20, d=8):
    ids = ["t%03d" % i for i in range(n)]
    return EmbeddingSet(ids=ids, matrix=unit_rows(rng.standard_normal((n, d))))


def test_embedding_set_validation():
    m = unit_rows(np.random.default_rng(0).standard_normal((3, 4)))
    with pytest.raises(DataError):
        EmbeddingSet(ids=["a", "a", "b"], matrix=m)
    with pytest.raises(DataError):
        EmbeddingSet(ids=["a", "b"], matrix=m)
    es = EmbeddingSet(ids=["a", "b", "c"], matrix=m)
    np.testing.assert_array_equal(es.vector("b"), m[1])
    with pytest.raises(DataError):
        es.vector("z")


def test_embedding_set_persistence(tmp_path):
    es = random_set(np.random.default_rng(1))
    es.provenance = {"chain": "TS", "seed": 3}
    prefix = str(tmp_path / "emb")
    es.save(prefix)
    # one tensor set: the header beside its one tensor, named for the prefix
    assert sorted(os.listdir(tmp_path)) == ["emb.emlt", "emb.json"]
    header = json.loads((tmp_path / "emb.json").read_text())
    assert list(header) == ["tensors", "ids", "provenance"]
    assert list(header["tensors"]) == ["emb"]
    assert header["tensors"]["emb"]["file"] == "emb.emlt"
    back = EmbeddingSet.load(prefix)
    assert back.ids == es.ids
    # the stored float32 rows, read as float64 like the rows embed builds
    assert back.matrix.dtype == np.float64
    assert back.provenance == es.provenance
    np.testing.assert_allclose(back.matrix, es.matrix, atol=1e-6)


def test_track_windows_counts():
    cfg = melfront.MelConfig()
    values = np.zeros((cfg.num_bands, 1000))
    mel = melfront.MelSpectrogram(values=values, config=cfg, source_id="w")
    assert len(embedspace.track_windows(mel, 300)) == 3
    assert len(embedspace.track_windows(mel, 1001)) == 0


def test_embed_track_unit_norm_and_short_error():
    cfg = melfront.MelConfig()
    rng = np.random.default_rng(2)
    params = encoder.Mlp.init(encoder.feature_dim(cfg.num_bands), 16, 8, rng)
    values = rng.uniform(-4, 1, size=(cfg.num_bands, 700))
    mel = melfront.MelSpectrogram(values=values, config=cfg, source_id="e")
    z = embedspace.embed_track(mel, params, 300)
    assert abs(np.linalg.norm(z) - 1.0) < 1e-12
    short = melfront.MelSpectrogram(values=values[:, :200], config=cfg,
                                    source_id="s")
    with pytest.raises(DataError, match="track s: 200 frames < window of 300"):
        embedspace.embed_track(short, params, 300)


@pytest.mark.parametrize("tau", [None, 0.84, 1.19])
def test_embed_track_pools_its_windows_as_a_stacked_batch_bitwise(tau):
    # the sweep embeds time-stretched tracks, whose values are column-major
    cfg = melfront.MelConfig()
    rng = np.random.default_rng(3)
    params = encoder.Mlp.init(encoder.feature_dim(cfg.num_bands), 32, 8, rng)
    mel = melfront.MelSpectrogram(values=rng.uniform(-4, 1, size=(cfg.num_bands, 1400)),
                                  config=cfg, source_id="e")
    if tau is not None:
        mel = augment.time_stretch(mel, augment.TimeStretchParams(tau=tau))
        assert mel.values.flags.f_contiguous
    z = encoder.encode(params, np.stack(embedspace.track_windows(mel, 300)))
    want = z.mean(axis=0) / np.linalg.norm(z.mean(axis=0))
    np.testing.assert_array_equal(embedspace.embed_track(mel, params, 300), want)


def test_knn_matches_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(5, 40))
        es = random_set(rng, n=n, d=int(rng.integers(2, 10)))
        k = int(rng.integers(1, n))
        q = es.ids[int(rng.integers(0, n))]
        got = embedspace.knn(es, q, k)
        # independent oracle: plain python sort over explicit dot products
        ref = []
        for tid, row in zip(es.ids, es.matrix):
            if tid == q:
                continue
            ref.append((1.0 - float(np.dot(row, es.vector(q))), tid))
        ref.sort()
        assert [tid for tid, _ in got] == [tid for _, tid in ref[:k]]
        np.testing.assert_allclose([d for _, d in got],
                                   [d for d, _ in ref[:k]], atol=1e-12)


def test_knn_tie_break_by_id():
    # three identical neighbors at the same distance: id order decides
    v = np.array([1.0, 0.0])
    m = np.stack([v, v, v, np.array([0.0, 1.0])])
    es = EmbeddingSet(ids=["q", "c", "a", "b"], matrix=m)
    got = embedspace.knn(es, "q", 3)
    assert [tid for tid, _ in got] == ["a", "c", "b"]


def test_knn_k_bounds():
    es = random_set(np.random.default_rng(4), n=5)
    with pytest.raises(DataError):
        embedspace.knn(es, es.ids[0], 5)
    with pytest.raises(DataError):
        embedspace.knn(es, "missing", 2)


def test_cosine_distance_basics():
    a = np.array([1.0, 0.0])
    assert embedspace.cosine_distance(a, a) == 0.0
    assert embedspace.cosine_distance(a, -a) == 2.0
    assert abs(embedspace.cosine_distance(a, np.array([0.0, 1.0])) - 1.0) < 1e-15


@st.composite
def sets_with_ties(draw):
    """Unit rows with some exact duplicates, under ids not in index order."""
    n = draw(st.integers(2, 150))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = rng.standard_normal((n, d))
    dup_of = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    dup = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = np.where(np.array(dup)[:, None], base[dup_of], base)
    ids = ["t%03d" % i for i in rng.permutation(n)]
    return EmbeddingSet(ids=ids, matrix=unit_rows(rows))


@settings(max_examples=60, deadline=None)
@given(sets_with_ties())
def test_neighbor_table_matches_plain_sort(es):
    n = len(es)
    assert es.neighbor_table().shape == (n, n - 1)
    for i, (q, qrow) in enumerate(zip(es.ids, es.matrix)):
        ref = sorted((1.0 - float(np.dot(row, qrow)), tid)
                     for tid, row in zip(es.ids, es.matrix) if tid != q)
        ref_rows = [es.index(tid) for _, tid in ref]
        for k in range(1, n):
            assert es.neighbors(k)[i].tolist() == ref_rows[:k]
        got = embedspace.knn(es, q, n - 1)
        assert [tid for tid, _ in got] == [tid for _, tid in ref]
        np.testing.assert_allclose([d for _, d in got], [d for d, _ in ref],
                                   atol=1e-12)


def test_neighborhood_report_builds_the_table_once(monkeypatch):
    rng = np.random.default_rng(6)
    es = random_set(rng, n=30)
    records = [corpus.TrackRecord(tid, tid + ".emlt", 20.0,
                                  bpm=float(rng.integers(60, 181)),
                                  key_label=corpus.KEY_VOCABULARY[i % 24],
                                  tags=("x",) if i % 2 else ("x", "y"))
               for i, tid in enumerate(es.ids)]
    builds = []
    real = embedspace.build_neighbor_table

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(embedspace, "build_neighbor_table", counting)
    locality.compute_neighborhood_report(es, records, [1, 2, 3, 4, 8, 16])
    embedspace.knn(es, es.ids[0], 29)
    assert len(builds) == 1


def test_matrix_and_table_are_read_only():
    m = unit_rows(np.random.default_rng(7).standard_normal((6, 3)))
    es = EmbeddingSet(ids=list("abcdef"), matrix=m)
    m[0, 0] = 5.0                       # the set keeps its own copy
    assert es.matrix[0, 0] != 5.0
    with pytest.raises(ValueError):
        es.matrix[0, 0] = 5.0
    table = es.neighbor_table()
    with pytest.raises(ValueError):
        table[0, 0] = 0


def test_neighbor_table_is_the_order_alone():
    # the set keeps one read-only (N, N-1) intp order; the (N, N)
    # distances and sort of the build are freed once it returns, and at
    # most two of them are alive at once. The peak's slack covers
    # numpy's indexing and sorting buffers.
    n = 500
    es = random_set(np.random.default_rng(8), n=n, d=16)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = es.neighbor_table()
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert table.shape == (n, n - 1) and table.dtype == np.intp
    assert table.base is None and not table.flags.writeable
    assert es.neighbor_table() is table
    square = n * n * 8
    assert held <= table.nbytes + 16 * 1024
    assert peak <= 2 * square + 512 * 1024 < 3 * square

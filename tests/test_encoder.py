import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from embedloc import corpus, encoder, melfront, tensorio
from embedloc.augment import (AugmentationSpec, TimeStretchParams, apply_chain,
                              derive_rng, time_stretch)
from embedloc.corpus import TrackRecord, sample_pair
from embedloc.embedspace import build_embedding_set
from embedloc.encoder import Mlp, TrainConfig, feature_dim
from embedloc.errors import MAX_SIZE, ConfigError, DataError
from embedloc.locality import MetricsConfig, manipulation_sweep


def unit_rows(arr):
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# NT-Xent

def test_ntxent_orthogonal_pair_closed_form():
    # B=2, all four vectors mutually orthogonal, t=1:
    # every row has pos sim 0 against two other sims of 0, so
    # loss = -0 + ln(e^0 + e^0 + e^0) = ln 3; with the positive at
    # similarity 1 instead: loss = -1 + ln(e + 2) = ln((e + 2) / e) after
    # folding. Check both via explicit construction.
    z = np.eye(4)
    loss, _ = encoder.ntxent_loss(z, 1.0)
    assert abs(loss - np.log(3.0)) < 1e-12

    # identical partners, orthogonal across pairs
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    loss, _ = encoder.ntxent_loss(z, 1.0)
    want = -1.0 + np.log(np.e + 2.0)
    assert abs(loss - want) < 1e-12


def test_ntxent_all_identical_closed_form():
    # every similarity is 1, so each row is -1 + ln((2B-1) e) = ln(2B-1)
    for b in (2, 5, 16):
        z = np.tile([1.0, 0.0, 0.0], (2 * b, 1))
        loss, _ = encoder.ntxent_loss(z, 1.0)
        assert abs(loss - np.log(2 * b - 1)) < 1e-12


def test_ntxent_rejects_small_or_odd_batches():
    with pytest.raises(DataError):
        encoder.ntxent_loss(np.eye(2), 1.0)
    with pytest.raises(DataError):
        encoder.ntxent_loss(np.eye(5), 1.0)


def test_ntxent_pair_permutation_invariance():
    rng = np.random.default_rng(0)
    z = unit_rows(rng.standard_normal((12, 8)))
    base, _ = encoder.ntxent_loss(z, 0.1)
    # swapping whole pairs preserves the loss
    order = np.array([4, 5, 0, 1, 10, 11, 2, 3, 8, 9, 6, 7])
    swapped, _ = encoder.ntxent_loss(z[order], 0.1)
    assert abs(base - swapped) < 1e-12


def test_ntxent_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for trial in range(5):
        z = rng.standard_normal((8, 6))
        _, dz = encoder.ntxent_loss(z, 0.2)
        eps = 1e-6
        for _ in range(10):
            i, j = rng.integers(0, 8), rng.integers(0, 6)
            zp, zm = z.copy(), z.copy()
            zp[i, j] += eps
            zm[i, j] -= eps
            lp, _ = encoder.ntxent_loss(zp, 0.2)
            lm, _ = encoder.ntxent_loss(zm, 0.2)
            fd = (lp - lm) / (2 * eps)
            assert abs(dz[i, j] - fd) < 1e-5 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# encoder forward / backward

def test_encode_outputs_unit_vectors():
    rng = np.random.default_rng(2)
    params = Mlp.init(feature_dim(96), 32, 16, rng)
    batch = rng.uniform(-4, 1, size=(6, 96, 120))
    z = encoder.encode(params, batch)
    assert z.shape == (6, 16)
    np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)


def test_encode_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    params = Mlp.init(feature_dim(16), 8, 4, rng)
    batch = rng.uniform(-3, 1, size=(4, 16, 40))
    dz = rng.standard_normal((4, 4))

    def scalar_loss(p):
        return float(np.sum(encoder.encode(p, batch) * dz))

    z, cache = encoder.encode(params, batch, return_cache=True)
    grads = encoder.encode_backward(params, cache, dz, {
        name: np.empty_like(t) for name, t in params.tensors().items()})
    eps = 1e-6
    for name in ("w1", "b1", "w2", "b2"):
        tensor = getattr(params, name)
        flat = tensor.reshape(-1)
        for idx in rng.integers(0, flat.size, size=6):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = scalar_loss(params)
            flat[idx] = orig - eps
            down = scalar_loss(params)
            flat[idx] = orig
            fd = (up - down) / (2 * eps)
            got = grads[name].reshape(-1)[idx]
            assert abs(got - fd) < 1e-4 * max(1.0, abs(fd)), name


def test_pooling_is_sensitive_to_time_stretch():
    # the pooled features must move under resampling of the time axis,
    # otherwise tempo structure cannot reach the embedding
    cfg = melfront.MelConfig()
    rng = np.random.default_rng(4)
    values = rng.uniform(-4, 1, size=(cfg.num_bands, 900))
    mel = melfront.MelSpectrogram(values=values, config=cfg, source_id="x")
    a = time_stretch(mel, TimeStretchParams(tau=1.0), out_frames=450)
    b = time_stretch(mel, TimeStretchParams(tau=1.4), out_frames=450)
    fa = encoder.pool_features([a.values])
    fb = encoder.pool_features([b.values])
    assert np.linalg.norm(fa - fb) > 0.1


def test_envelope_lags_are_the_unique_rounded_log_spaced_lags():
    want = np.unique(np.round(np.geomspace(8, 128, 24)).astype(int))
    assert encoder.ENVELOPE_LAGS.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(encoder.ENVELOPE_LAGS, want)
    assert len(encoder.ENVELOPE_LAGS) == 24


def reference_pool_features(batch_values):
    """Pooling written with whole-batch temporaries, as a plain reference."""
    x = np.asarray(batch_values, dtype=float)
    if x.ndim == 2:
        x = x[None]
    mean = x.mean(axis=2)
    diff = np.abs(np.diff(x, axis=2)).mean(axis=2)
    env = x.mean(axis=1)
    env = env - env.mean(axis=1, keepdims=True)
    m = env.shape[1]
    power = np.maximum(np.sum(env * env, axis=1), 1e-12)
    lags = encoder.ENVELOPE_LAGS[encoder.ENVELOPE_LAGS < m]
    ac = np.zeros((x.shape[0], len(encoder.ENVELOPE_LAGS)))
    for j, lag in enumerate(lags):
        ac[:, j] = np.sum(env[:, lag:] * env[:, :m - lag], axis=1) / power
    return np.concatenate([mean, 16.0 * diff, 24.0 * ac], axis=1)


@pytest.mark.parametrize("views", [1, 3, 4, 5, 128])
@pytest.mark.parametrize("frames", [2, 300])
def test_pool_features_equals_the_plain_reference_bitwise(views, frames):
    rng = np.random.default_rng(views * 1000 + frames)
    x = rng.uniform(-4, 1, size=(views, 96, frames))
    # row-major views, column-major views stacked (as time-stretched and
    # pitch-shifted views are), and float32 input
    column_major = np.stack([np.asfortranarray(v) for v in x])
    for batch in (x, column_major, x.astype(np.float32)):
        np.testing.assert_array_equal(encoder.pool_features(batch),
                                      reference_pool_features(batch))
    np.testing.assert_array_equal(encoder.pool_features([x[0]]),
                                  reference_pool_features(x[0]))
    # windows of a longer track, as sample_pair and center_crop leave
    # them: strided row-major ones in a list and from a generator, and
    # column-major ones (a time-stretched track's, as the sweep embeds)
    track = rng.uniform(-4, 1, size=(96, 3 * frames + 7))
    starts = rng.integers(0, track.shape[1] - frames + 1, size=views)
    for source in (track, np.asfortranarray(track)):
        windows = [source[:, s:s + frames] for s in starts]
        want = reference_pool_features(np.stack(windows))
        np.testing.assert_array_equal(encoder.pool_features(windows), want)
        np.testing.assert_array_equal(
            encoder.pool_features(w for w in windows), want)


def test_pool_features_returns_a_fresh_array_each_call():
    rng = np.random.default_rng(6)
    a_in, b_in = rng.uniform(-4, 1, size=(2, 9, 96, 300))
    a = encoder.pool_features(a_in)
    kept = a.copy()
    b = encoder.pool_features(b_in)
    assert not np.shares_memory(a, b)
    np.testing.assert_array_equal(a, kept)
    np.testing.assert_array_equal(b, reference_pool_features(b_in))


def test_pool_features_allocates_no_batch_sized_temporary():
    x = np.random.default_rng(7).uniform(-4, 1, size=(128, 96, 300))
    batch_mb = x.nbytes / 1e6   # 29.5 MB
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        encoder.pool_features(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < 8.0 < batch_mb


def test_pool_features_peak_memory_is_one_workspace_and_the_sums():
    # a call allocates one difference buffer, and one float64 patch buffer
    # only for views that are not float64 (the float32 windows of stored
    # tracks); a float64 view is never copied. Beside them it keeps each
    # view's sums, then their stacks. The slack covers numpy's iteration
    # buffers (128 KiB in np.subtract) and the per-view arrays' headers.
    b, u, m = 128, 96, 300
    rng = np.random.default_rng(7)
    track = rng.uniform(-4, 1, size=(u, 10 * m)).astype(np.float32)
    windows = [track[:, s:s + m] for s in rng.integers(0, 9 * m, size=b)]
    held = list(rng.uniform(-4, 1, size=(b, u, m)))
    patch, diff = 8 * u * m, 8 * u * (m - 1)
    sums = 8 * b * (2 * u + m)
    slack = 256 * 1024
    for views, workspace in ((windows, patch + diff), (held, diff)):
        pooling_peaks = []

        def stream():
            yield from views
            # every view has been summed, and the workspace is still alive
            pooling_peaks.append(tracemalloc.get_traced_memory()[1])

        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            encoder.pool_features(stream())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pooling_peaks[0] <= workspace + sums + slack
        assert peak <= max(workspace + sums, 2 * sums) + slack


@pytest.mark.parametrize("shape", [(300,), (2, 96, 300)])
def test_pool_features_rejects_a_view_that_is_not_one_patch(shape):
    # one (U, M) patch is a batch of its rows, which are not patches
    rng = np.random.default_rng(8)
    for batch in ([rng.uniform(size=shape)], rng.uniform(size=(96, 300))):
        with pytest.raises(ValueError, match="not a \\(U, M\\) patch"):
            encoder.pool_features(batch)


@pytest.mark.parametrize("other", [(96, 299), (95, 300)])
def test_pool_features_rejects_views_of_unequal_shape(other):
    rng = np.random.default_rng(8)
    views = [rng.uniform(size=(96, 300)), rng.uniform(size=other)]
    for batch in (views, iter(views), [v.astype(np.float32) for v in views]):
        with pytest.raises(ValueError, match="unequal shape"):
            encoder.pool_features(batch)


def reference_train(records, spec, config, seed, mel_config, mel_cache):
    """The training loop written plainly: views collected in a list,
    np.stack'ed, and pooled by the reference above."""
    tracks = encoder.usable_train_tracks(records, spec)
    params = Mlp.init(feature_dim(mel_config.num_bands), config.hidden_units,
                      config.embedding_dim, derive_rng(seed, "init"))
    velocity = {k: np.zeros_like(v) for k, v in params.tensors().items()}
    losses = []
    for step in range(config.total_steps):
        picks = derive_rng(seed, "step", step).integers(
            0, len(tracks), size=config.batch_pairs)
        views = []
        for i, ti in enumerate(picks):
            rec = tracks[ti]
            anchor, positive = sample_pair(rec, mel_cache[rec.track_id], spec,
                                           derive_rng(seed, "pair", step, i))
            for vi, seg in enumerate((anchor, positive)):
                views.append(apply_chain(
                    seg, spec, rng=derive_rng(seed, "augment", step, i, vi)).values)
        pooled = reference_pool_features(np.stack(views))
        h = np.tanh(pooled @ params.w1.T + params.b1)
        e = h @ params.w2.T + params.b2
        norms = np.linalg.norm(e, axis=1, keepdims=True)
        loss, dz = encoder.ntxent_loss(e / norms, config.temperature)
        grads = encoder.encode_backward(params, (pooled, h, e, norms), dz, {
            name: np.empty_like(t) for name, t in params.tensors().items()})
        lr = encoder.lr_at(step, config)
        for name, grad in grads.items():
            velocity[name] = config.momentum * velocity[name] - lr * grad
            getattr(params, name)[...] += velocity[name]
        losses.append(float(loss))
    return params, losses


@pytest.fixture(scope="module")
def random_tracks(mel_config):
    rng = np.random.default_rng(8)
    records = [TrackRecord("r%d" % i, "r%d.emlt" % i, 16.0) for i in range(5)]
    mels = {r.track_id: melfront.MelSpectrogram(
        rng.uniform(-4, 1, size=(mel_config.num_bands, 1600)), mel_config,
        r.track_id) for r in records}
    return records, mels


# the empty chain leaves row-major views; TS and PS leave column-major ones
@pytest.mark.parametrize("chain", [(), ("TS",), ("TS", "PS", "EQ")])
def test_train_equals_a_stacking_reference_bitwise(random_tracks, mel_config, chain):
    records, mels = random_tracks
    spec = AugmentationSpec(chain=chain)
    cfg = TrainConfig(batch_pairs=4, total_steps=3, warmup_steps=1,
                      peak_lr=0.1, momentum=0.5)
    params, losses = encoder.train(records, mels, spec, cfg, seed=9)
    ref_params, ref_losses = reference_train(records, spec, cfg, 9, mel_config, mels)
    assert losses == ref_losses
    for name, tensor in params.tensors().items():
        np.testing.assert_array_equal(tensor, ref_params.tensors()[name])


@pytest.mark.parametrize("chain", [(), ("TS", "PS", "EQ")])
def test_train_derives_augmentation_rngs_only_for_a_chain_with_a_stage(
        random_tracks, monkeypatch, chain):
    records, mels = random_tracks
    keys = []

    def spy(seed, *key):
        keys.append(key)
        return derive_rng(seed, *key)

    monkeypatch.setattr(encoder, "derive_rng", spy)
    cfg = TrainConfig(batch_pairs=4, total_steps=3, warmup_steps=1)
    encoder.train(records, mels, AugmentationSpec(chain=chain), cfg, seed=9)
    pairs = [(step, i) for step in range(3) for i in range(4)]
    # an empty chain reads no rng; a chain with a stage gets one per view
    assert [k for k in keys if k[0] == "augment"] == (
        [("augment", step, i, vi) for step, i in pairs for vi in (0, 1)]
        if chain else [])
    assert [k for k in keys if k[0] != "augment"] == [("init",)] + [
        key for step in range(3)
        for key in [("step", step)] + [("pair", step, i) for i in range(4)]]


# each stage's way from float32 to float64: the empty chain pools float32
# windows, TS converts the frames it reaches, PS its whole input, and EQ
# and RRC promote in their arithmetic
STORED_CHAINS = [(), ("TS",), ("PS",), ("EQ",), ("RRC", "EQ"), ("TS", "PS", "EQ")]


@pytest.mark.parametrize("chain", STORED_CHAINS,
                         ids=lambda chain: "+".join(chain) or "none")
def test_float32_stored_tracks_give_the_float64_bits(random_tracks, mel_config,
                                                     tmp_path, chain):
    # tracks loaded from .emlt stay float32; every result must have the
    # bits of the same values held as float64
    records, mels = random_tracks
    stored, held = {}, {}
    for tid, mel in mels.items():
        mel.save(tmp_path / (tid + ".emlt"))
        stored[tid] = melfront.MelSpectrogram.load(tmp_path / (tid + ".emlt"),
                                                   mel_config, tid)
        held[tid] = replace(stored[tid], values=stored[tid].values.astype(float))
        assert stored[tid].values.dtype == np.float32
    spec = AugmentationSpec(chain=chain)
    cfg = TrainConfig(batch_pairs=4, total_steps=3, warmup_steps=1,
                      peak_lr=0.1, momentum=0.5)
    params, losses = encoder.train(records, stored, spec, cfg, seed=9)
    ref_params, ref_losses = encoder.train(records, held, spec, cfg, seed=9)
    assert losses == ref_losses
    for name, tensor in params.tensors().items():
        assert tensor.dtype == np.float64
        assert tensor.tobytes() == ref_params.tensors()[name].tobytes()

    window = spec.output_frames(mel_config)
    for metrics in (MetricsConfig(stretch_grid=(0.8, 1.0, 1.25)),
                    MetricsConfig(sweep_kind="pitch_shift", pitch_grid=(-3, 0, 2))):
        assert (manipulation_sweep(stored.values(), params, metrics, window)
                == manipulation_sweep(held.values(), params, metrics, window))
    got = build_embedding_set(stored.values(), params, window)
    want = build_embedding_set(held.values(), params, window)
    assert got.ids == want.ids and got.matrix.tobytes() == want.matrix.tobytes()


TRAIN_AND_SAVE = """
import sys
import numpy as np
from embedloc import encoder, melfront
from embedloc.augment import AugmentationSpec
from embedloc.corpus import TrackRecord
mel_config = melfront.MelConfig()
rng = np.random.default_rng(8)
records = [TrackRecord("r%d" % i, "r%d.emlt" % i, 16.0) for i in range(5)]
mels = {r.track_id: melfront.MelSpectrogram(
    rng.uniform(-4, 1, size=(mel_config.num_bands, 1600)), mel_config,
    r.track_id) for r in records}
config = encoder.TrainConfig(batch_pairs=4, total_steps=3, warmup_steps=1,
                             peak_lr=0.1, momentum=0.5)
params, losses = encoder.train(records, mels,
                               AugmentationSpec(("TS", "PS", "EQ")), config, seed=9)
params.save(sys.argv[1], config, {"seed": 9})
# the float64 state, which the float32 checkpoint tensors round away
print(repr(losses), [t.tobytes().hex() for t in params.tensors().values()])
"""


def run_with_blas_threads(threads, script, *args):
    """Run `script` in a child whose OpenBLAS uses `threads` threads;
    returns its stdout."""
    package_root = os.path.dirname(os.path.dirname(encoder.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args],
                          env=env, check=True, timeout=300,
                          capture_output=True, text=True).stdout


def test_training_does_not_depend_on_blas_threads(tmp_path):
    # pitch shift and the encoder run GEMMs large enough for OpenBLAS to
    # split across threads; neither the checkpoint nor the float64 state
    # it was rounded from may change
    runs = []
    for i, threads in enumerate(("1", "2", "1")):
        ckpt = tmp_path / str(i)
        stdout = run_with_blas_threads(threads, TRAIN_AND_SAVE, str(ckpt))
        runs.append({p.name: p.read_bytes() for p in ckpt.iterdir()})
        runs[-1]["float64 state"] = stdout
    assert sorted(runs[0]) == ["b1.emlt", "b2.emlt", "float64 state",
                               "header.json", "w1.emlt", "w2.emlt"]
    assert runs[1] == runs[0] and runs[2] == runs[0]


# TRAIN_AND_SAVE on tracks stored as float32, held as the dtype argv[2] names
TRAIN_AND_SAVE_STORED = TRAIN_AND_SAVE.replace(
    "rng.uniform(-4, 1, size=(mel_config.num_bands, 1600))",
    "rng.uniform(-4, 1, size=(mel_config.num_bands, 1600))"
    ".astype(np.float32).astype(sys.argv[2])")


def test_float32_tracks_train_the_float64_checkpoint_at_1_and_2_blas_threads(
        tmp_path):
    assert TRAIN_AND_SAVE_STORED != TRAIN_AND_SAVE
    runs = []
    for i, (dtype, threads) in enumerate((("float64", "1"), ("float32", "1"),
                                          ("float32", "2"))):
        ckpt = tmp_path / str(i)
        stdout = run_with_blas_threads(threads, TRAIN_AND_SAVE_STORED, str(ckpt), dtype)
        runs.append({p.name: p.read_bytes() for p in ckpt.iterdir()})
        runs[-1]["float64 state"] = stdout
    assert len(runs[0]) == 6
    assert runs[1] == runs[0] and runs[2] == runs[0]


TRAIN_PROBE = """
import hashlib
import numpy as np
from embedloc import corpus, probe
from embedloc.embedspace import EmbeddingSet
rng = np.random.default_rng(0)
matrix = rng.standard_normal((200, 64))
ids = ["t%03d" % i for i in range(200)]
records = [corpus.TrackRecord(t, t + ".emlt", 20.0, bpm=float(rng.integers(60, 200)))
           for t in ids]
emb = EmbeddingSet(ids=ids, matrix=matrix / np.linalg.norm(matrix, axis=1, keepdims=True))
model, losses = probe.train_probe(emb, records, probe.ProbeConfig(total_steps=300),
                                  seed=0)
print(repr(losses), [hashlib.sha256(t.tobytes()).hexdigest()
                     for t in model.tensors().values()])
"""


def test_probe_training_does_not_depend_on_blas_threads():
    # at the default probe shape (64 x 512 hidden, 271 classes) the
    # output layer's GEMM is large enough for OpenBLAS to split; the
    # float64 weights and losses may not change
    runs = [run_with_blas_threads(threads, TRAIN_PROBE) for threads in ("1", "2", "1")]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_train_opens_no_file_and_names_a_missing_track(random_tracks,
                                                       monkeypatch):
    records, mels = random_tracks

    def no_io(*args, **kwargs):
        raise AssertionError("train read a file")

    monkeypatch.setattr(corpus, "load_track_mel", no_io)
    monkeypatch.setattr(tensorio, "read_tensor", no_io)
    spec = AugmentationSpec(chain=())
    cfg = TrainConfig(batch_pairs=2, total_steps=2, warmup_steps=1)
    _, losses = encoder.train(records, mels, spec, cfg, seed=0)
    assert len(losses) == 2
    partial = {tid: mel for tid, mel in mels.items() if tid != "r3"}
    with pytest.raises(DataError, match="r3"):
        encoder.train(records, partial, spec, cfg, seed=0)


def test_train_keeps_no_batch_array_and_caches_only_pooled_features(
        random_tracks, mel_config, monkeypatch):
    records, mels = random_tracks
    caches = []
    real_encode = encoder.encode

    def spy(params, views, return_cache=False):
        z, cache = real_encode(params, views, return_cache=True)
        caches.append(cache)
        return (z, cache) if return_cache else z

    monkeypatch.setattr(encoder, "encode", spy)
    cfg = TrainConfig(batch_pairs=64, total_steps=2, warmup_steps=1)
    for chain in ((), ("TS", "PS", "EQ")):
        spec = AugmentationSpec(chain=chain)
        batch_mb = (2 * cfg.batch_pairs * mel_config.num_bands
                    * spec.output_frames(mel_config) * 8 / 1e6)   # 29.5 MB
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            encoder.train(records, mels, spec, cfg, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 1e6 < 8.0 < batch_mb, chain
    assert len(caches) == 4
    for cache in caches:
        assert not any(np.shares_memory(a, mel.values)
                       for a in cache for mel in mels.values())


# ---------------------------------------------------------------------------
# schedule

def test_lr_schedule_endpoints_and_peak():
    cfg = TrainConfig(total_steps=1000, warmup_steps=100, peak_lr=0.001,
                      batch_pairs=4)
    assert encoder.lr_at(0, cfg) == 0.0
    assert abs(encoder.lr_at(100, cfg) - 0.001) < 1e-15
    assert abs(encoder.lr_at(1000, cfg)) < 1e-18
    assert abs(encoder.lr_at(50, cfg) - 0.0005) < 1e-15
    mid = encoder.lr_at(550, cfg)
    assert abs(mid - 0.0005) < 1e-15   # cosine midpoint
    with pytest.raises(ConfigError):
        encoder.lr_at(1001, cfg)
    with pytest.raises(ConfigError):
        encoder.lr_at(-1, cfg)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(total_steps=10, warmup_steps=10)
    with pytest.raises(ConfigError):
        TrainConfig(temperature=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_pairs=1)
    with pytest.raises(ConfigError, match="warmup_steps"):
        TrainConfig(total_steps=10, warmup_steps=-1)


@pytest.mark.parametrize("value", [0, 0.0, -1e-3, float("nan")])
def test_train_config_rejects_a_peak_lr_not_above_zero(value):
    # a negative rate would train by gradient ascent
    with pytest.raises(ConfigError, match="peak_lr must be positive"):
        TrainConfig(peak_lr=value)


@pytest.mark.parametrize("value", [0, -3, MAX_SIZE + 1])
@pytest.mark.parametrize("field", ["batch_pairs", "total_steps", "embedding_dim",
                                   "hidden_units"])
def test_train_config_rejects_sizes_below_one(field, value):
    minimum = 2 if field == "batch_pairs" else 1
    with pytest.raises(ConfigError, match="%s must be at least %d and at most %d, got %d"
                       % (field, minimum, MAX_SIZE, value)):
        TrainConfig(**{field: value})
    # building the config allocates nothing, so the cap itself is tried
    assert getattr(TrainConfig(**{field: MAX_SIZE}), field) == MAX_SIZE


# ---------------------------------------------------------------------------
# training loop

@pytest.fixture(scope="module")
def tiny_training(small_corpus, mel_config):
    records, mels = small_corpus
    spec = AugmentationSpec(chain=())
    cfg = TrainConfig(batch_pairs=8, total_steps=40, warmup_steps=4,
                      peak_lr=0.003)
    params, losses = encoder.train(records, mels, spec, cfg, seed=5)
    return records, mels, spec, cfg, params, losses


def test_train_loss_decreases(tiny_training):
    _, _, _, _, _, losses = tiny_training
    assert len(losses) == 40
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_train_is_deterministic(small_corpus, mel_config, tiny_training):
    records, mels, spec, cfg, params, losses = tiny_training
    params2, losses2 = encoder.train(records, mels, spec, cfg, seed=5)
    assert losses == losses2
    for name, tensor in params.tensors().items():
        np.testing.assert_array_equal(tensor, params2.tensors()[name])


def test_usable_tracks_and_pair_offsets_share_the_minimum_length():
    # 2 contexts of 4.5 s and the 5 s separation: 14.0 s holds a pair
    records = [TrackRecord(tid, tid + ".emlt", d) for tid, d in (("a", 14.0),
                                                                  ("b", 13.9))]
    usable = encoder.usable_train_tracks(records, AugmentationSpec(context_seconds=4.5))
    assert [r.track_id for r in usable] == ["a"]
    corpus.sample_pair_offsets(14.0, 4.5, np.random.default_rng(0))
    with pytest.raises(DataError, match="below minimum 14.00 s"):
        corpus.sample_pair_offsets(13.9, 4.5, np.random.default_rng(0))


def test_train_rejects_empty_track_list(mel_config):
    with pytest.raises(DataError):
        encoder.train([], {}, AugmentationSpec(chain=()),
                      TrainConfig(batch_pairs=4, total_steps=4,
                                  warmup_steps=1), seed=0)


def test_checkpoint_roundtrip(tmp_path, tiny_training):
    _, _, _, cfg, params, _ = tiny_training
    path = str(tmp_path / "ckpt")
    params.save(path, cfg, {"chain": "none"})
    back = Mlp.load(path, TrainConfig)
    header = json.loads((tmp_path / "ckpt" / "header.json").read_text())
    back_cfg = TrainConfig(**header["config"])
    assert header["provenance"] == {"chain": "none"}
    assert back_cfg == cfg
    for name, tensor in params.tensors().items():
        np.testing.assert_allclose(back.tensors()[name], tensor, atol=1e-6)


def test_checkpoint_directory_layout(tmp_path):
    params = Mlp.init(feature_dim(4), 3, 2, np.random.default_rng(0))
    cfg = TrainConfig(batch_pairs=4, total_steps=4, warmup_steps=1)
    path = tmp_path / "ckpt"
    params.save(str(path), cfg, {"x": 1})
    # each digest is of the file's float32 values, after its dims
    tensors = {name: {"file": name + ".emlt", "dims": list(t.shape),
                      "sha256": hashlib.sha256((path / (name + ".emlt")).read_bytes()
                                               [10 + 8 * t.ndim:]).hexdigest()}
               for name, t in params.tensors().items()}
    config = {"batch_pairs": 4, "total_steps": 4, "warmup_steps": 1,
              "peak_lr": 0.001, "temperature": 0.1, "momentum": 0.0,
              "embedding_dim": 64, "hidden_units": 256}
    want = {"tensors": tensors, "config": config, "provenance": {"x": 1}}
    assert (path / "header.json").read_text() == json.dumps(want, indent=2)
    assert sorted(p.name for p in path.iterdir()) == [
        "b1.emlt", "b2.emlt", "header.json", "w1.emlt", "w2.emlt"]


@pytest.mark.parametrize("header", ["{not json", "[1, 2]", '{"tensors": 3}',
                                    '{"tensors": {"w1": {}}}',
                                    '{"tensors": {"w1": {"file": 3}}}',
                                    "[" * 100000],
                         ids=["not-json", "list", "index-not-object",
                              "no-file", "file-not-string", "deep-nesting"])
def test_load_checkpoint_with_a_bad_header_raises_data_error(tmp_path, header):
    params = Mlp.init(feature_dim(4), 3, 2, np.random.default_rng(0))
    cfg = TrainConfig(batch_pairs=4, total_steps=4, warmup_steps=1)
    params.save(str(tmp_path), cfg, {})
    (tmp_path / "header.json").write_text(header)
    with pytest.raises(DataError, match="header.json"):
        Mlp.load(str(tmp_path), TrainConfig)


def test_load_checkpoint_with_unknown_tensor_names_raises_data_error(tmp_path):
    params = Mlp.init(feature_dim(4), 3, 2, np.random.default_rng(0))
    cfg = TrainConfig(batch_pairs=4, total_steps=4, warmup_steps=1)
    params.save(str(tmp_path), cfg, {})
    header = json.loads((tmp_path / "header.json").read_text())
    header["tensors"]["w3"] = header["tensors"].pop("w2")
    (tmp_path / "header.json").write_text(json.dumps(header))
    with pytest.raises(DataError, match="header.json"):
        Mlp.load(str(tmp_path), TrainConfig)

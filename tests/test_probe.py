import json
import tracemalloc

import numpy as np
import pytest

from embedloc import corpus, probe
from embedloc.augment import derive_rng
from embedloc.embedspace import EmbeddingSet
from embedloc.encoder import Mlp
from embedloc.errors import MAX_SIZE, ConfigError, DataError
from embedloc.probe import ProbeConfig


def unit_rows(arr):
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def test_class_grid_constants():
    # one labelled tempo range, which the probe takes from the corpus
    assert (probe.BPM_MIN, probe.BPM_MAX) == (corpus.BPM_MIN, corpus.BPM_MAX) == (30, 300)
    assert probe.NUM_CLASSES == 271
    assert probe.SMOOTHING_TAPS == 15


def test_probe_config_validation():
    with pytest.raises(ConfigError):
        ProbeConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        ProbeConfig(total_steps=0)


@pytest.mark.parametrize("value", [0, -2, MAX_SIZE + 1])
@pytest.mark.parametrize("field", ["batch_size", "total_steps", "hidden_units"])
def test_probe_config_rejects_sizes_below_one(field, value):
    with pytest.raises(ConfigError, match="%s must be at least 1 and at most %d, got %d"
                       % (field, MAX_SIZE, value)):
        ProbeConfig(**{field: value})
    # building the config allocates nothing, so the cap itself is tried
    assert getattr(ProbeConfig(**{field: MAX_SIZE}), field) == MAX_SIZE


@pytest.mark.parametrize("value", [0, 0.0, -1, float("nan")])
def test_probe_config_rejects_a_learning_rate_not_above_zero(value):
    # a negative rate would train by gradient ascent
    with pytest.raises(ConfigError, match="learning_rate must be positive"):
        ProbeConfig(learning_rate=value)


def test_smooth_scores_matches_direct_convolution():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal(271)
    got = probe.smooth_scores(scores)
    # independent oracle: explicit zero-padded sliding window
    window = np.hamming(15)
    padded = np.concatenate([np.zeros(7), scores, np.zeros(7)])
    want = np.array([np.dot(padded[i:i + 15], window[::-1])
                     for i in range(271)])
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_smoothing_merges_split_peak():
    # two adjacent spikes beat a single larger isolated spike after
    # smoothing, rewarding locally consistent score mass
    scores = np.zeros(271)
    scores[100] = 1.0
    scores[200] = scores[201] = 0.7
    smoothed = probe.smooth_scores(scores)
    assert np.argmax(smoothed) in (200, 201)
    assert np.argmax(scores) == 100


def test_estimate_tempo_reads_argmax():
    rng = np.random.default_rng(1)
    model = Mlp.init(4, 8, probe.NUM_CLASSES, rng)
    # force the logits by constructing a model with zero weights and a
    # chosen bias vector
    model.w1[:] = 0.0
    model.w2[:] = 0.0
    model.b2[:] = 0.0
    model.b2[90] = 5.0   # class 90 -> 120 BPM
    assert probe.estimate_tempo(model, np.zeros(4)) == 120


def test_estimate_tempo_tie_breaks_low():
    model = Mlp.init(4, 8, probe.NUM_CLASSES, np.random.default_rng(2))
    model.w1[:] = 0.0
    model.w2[:] = 0.0
    model.b2[:] = 0.0
    model.b2[50] = model.b2[120] = 3.0
    assert probe.estimate_tempo(model, np.zeros(4)) == probe.BPM_MIN + 50


def test_acc1_acc2_worked_examples():
    truths = [100.0, 100.0, 100.0, 100.0]
    estimates = [100.0, 104.0, 105.0, 200.0]
    # 104 is within 4%, 105 is not, 200 only under octave folding
    assert np.mean(probe.acc1_hits(estimates, truths)) == pytest.approx(0.5)
    assert np.mean(probe.acc2_hits(estimates, truths)) == pytest.approx(0.75)
    # acc2 never below acc1
    rng = np.random.default_rng(3)
    t = rng.uniform(60, 180, size=200)
    e = t * rng.choice([1.0, 1.02, 2.0, 0.5, 1.3], size=200)
    assert np.mean(probe.acc2_hits(e, t)) >= np.mean(probe.acc1_hits(e, t))


def test_hit_vectors_are_per_item_and_average_to_acc():
    rng = np.random.default_rng(5)
    truths = rng.uniform(40.0, 200.0, size=200)
    estimates = truths * rng.choice([1 / 3, 0.5, 0.7, 1.0, 1.02, 2.0, 3.1], size=200)
    hit1 = probe.acc1_hits(estimates, truths)
    hit2 = probe.acc2_hits(estimates, truths)
    assert hit1.dtype == bool and hit1.shape == (200,)
    assert np.all(hit2[hit1])
    for e, t, h1, h2 in zip(estimates, truths, hit1, hit2):
        assert h1 == (abs(e - t) / t <= probe.ACC_TOLERANCE)
        assert h2 == any(abs(e - o * t) / (o * t) <= probe.ACC_TOLERANCE
                         for o in (1 / 3, 0.5, 1.0, 2.0, 3.0))


def test_acc_input_validation():
    with pytest.raises(DataError):
        probe.acc1_hits([1.0], [1.0, 2.0])
    with pytest.raises(DataError):
        probe.acc2_hits([], [])


def make_separable_problem(rng, n=120, dim=16, bpms=(80.0, 140.0)):
    """Embeddings clustered by tempo so a probe can recover BPM."""
    centers = unit_rows(rng.standard_normal((len(bpms), dim)))
    ids, rows, records = [], [], []
    for i in range(n):
        c = i % len(bpms)
        tid = "p%03d" % i
        vec = centers[c] + 0.05 * rng.standard_normal(dim)
        ids.append(tid)
        rows.append(vec / np.linalg.norm(vec))
        records.append(corpus.TrackRecord(
            tid, tid + ".emlt", 20.0, bpm=bpms[c],
            split="train" if i < n * 3 // 4 else "test"))
    return EmbeddingSet(ids=ids, matrix=np.stack(rows)), records


def test_train_probe_learns_separable_tempi():
    rng = np.random.default_rng(4)
    es, records = make_separable_problem(rng)
    cfg = ProbeConfig(batch_size=32, total_steps=400, learning_rate=0.05)
    model, losses = probe.train_probe(es, records, cfg, seed=1)
    assert losses[-1] < losses[0]
    bpm = {r.track_id: r.bpm for r in records}
    test_ids = [r.track_id for r in records if r.split == "test"]
    estimates = [probe.estimate_tempo(model, es.vector(t)) for t in test_ids]
    truths = [bpm[t] for t in test_ids]
    acc1 = np.mean(probe.acc1_hits(estimates, truths))
    assert acc1 >= 0.9
    assert np.mean(probe.acc2_hits(estimates, truths)) >= acc1


def test_train_probe_is_deterministic():
    rng = np.random.default_rng(5)
    es, records = make_separable_problem(rng, n=40)
    cfg = ProbeConfig(batch_size=16, total_steps=30)
    a, la = probe.train_probe(es, records, cfg, seed=2)
    b, lb = probe.train_probe(es, records, cfg, seed=2)
    assert la == lb
    for name, tensor in a.tensors().items():
        np.testing.assert_array_equal(tensor, b.tensors()[name])


def test_train_probe_reports_missing_labels():
    rng = np.random.default_rng(6)
    es, records = make_separable_problem(rng, n=12)
    records[3] = corpus.TrackRecord(records[3].track_id,
                                    records[3].feature_path, 20.0, bpm=None)
    with pytest.raises(DataError, match=records[3].track_id):
        probe.train_probe(es, records, ProbeConfig(total_steps=5), seed=0)


def test_probe_persistence(tmp_path):
    rng = np.random.default_rng(7)
    model = Mlp.init(8, 16, probe.NUM_CLASSES, rng)
    cfg = ProbeConfig(total_steps=10)
    path = str(tmp_path / "probe")
    model.save(path, cfg, {"embedding": "none-s0"})
    back = Mlp.load(path, ProbeConfig)
    header = json.loads((tmp_path / "probe" / "header.json").read_text())
    back_cfg = ProbeConfig(**header["config"])
    assert back_cfg == cfg
    assert list(header) == ["tensors", "config", "provenance"]
    assert header["provenance"] == {"embedding": "none-s0"}
    for name, tensor in model.tensors().items():
        np.testing.assert_allclose(back.tensors()[name], tensor, atol=1e-6)


def test_probe_step_gradient_matches_finite_differences_with_dropout():
    # one step of train_probe moves each tensor by -learning_rate times its
    # gradient; differentiate that step's loss, under the step's own
    # dropout mask, numerically
    es, records = make_separable_problem(np.random.default_rng(8), n=24, dim=4)
    cfg = ProbeConfig(batch_size=6, total_steps=1, learning_rate=0.05,
                      dropout=0.75, hidden_units=8)
    # train_probe's initial model
    before = Mlp.init(es.dim, cfg.hidden_units, probe.NUM_CLASSES,
                      derive_rng(3, "probe-init"))
    after, _ = probe.train_probe(es, records, cfg, seed=3)
    # the step's batch and mask, drawn as train_probe draws them
    bpm = {r.track_id: r.bpm for r in records}
    usable = [r.track_id for r in records if r.split == "train"]
    rng = derive_rng(3, "probe-step", 0)
    picks = rng.integers(0, len(usable), size=cfg.batch_size)
    keep = 1.0 - cfg.dropout
    mask = (rng.uniform(size=(cfg.batch_size, cfg.hidden_units)) < keep) / keep
    x = np.stack([es.vector(usable[i]) for i in picks])
    y = np.array([int(round(bpm[usable[i]])) - probe.BPM_MIN for i in picks])

    def loss(t):
        h = np.maximum(0.0, x @ t["w1"].T + t["b1"]) * mask
        logits = h @ t["w2"].T + t["b2"]
        logits -= logits.max(axis=1, keepdims=True)
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        return -np.mean(logp[np.arange(len(y)), y])

    tensors = {name: t.copy() for name, t in before.tensors().items()}
    eps = 1e-6
    for name, tensor in tensors.items():
        grad = (tensor - after.tensors()[name]) / cfg.learning_rate
        fd = np.zeros_like(tensor)
        for i in range(tensor.size):
            old = tensor.flat[i]
            tensor.flat[i] = old + eps
            lp = loss(tensors)
            tensor.flat[i] = old - eps
            lm = loss(tensors)
            tensor.flat[i] = old
            fd.flat[i] = (lp - lm) / (2 * eps)
        assert np.any(fd != 0), name
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-9, err_msg=name)


def reference_train_probe(emb_set, records, config, *, seed):
    """train_probe as an allocating loop: a new array for every step
    temporary, with its own forward, softmax and backward."""
    def probe_scores(model, embeddings, dropout_mask=None):
        x = np.atleast_2d(np.asarray(embeddings, dtype=float))
        h = np.maximum(0.0, x @ model.w1.T + model.b1)
        if dropout_mask is not None:
            h = h * dropout_mask
        return h, (model.w2 @ h.T).T + model.b2

    def softmax(logits):
        shifted = logits - logits.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        return expd / expd.sum(axis=1, keepdims=True)

    def backward(model, x, h, dout, dh_dpre):
        gw2 = dout.T @ h
        gb2 = dout.sum(axis=0)
        dpre = (dout @ model.w2) * dh_dpre
        gw1 = dpre.T @ x
        gb1 = dpre.sum(axis=0)
        return {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2}

    bpm = {r.track_id: r.bpm for r in records}
    split_of = {r.track_id: r.split for r in records}
    usable = [tid for tid in emb_set.ids if split_of.get(tid) == "train"]
    if not usable:
        usable = list(emb_set.ids)
    classes = np.array([int(round(bpm[tid])) - probe.BPM_MIN for tid in usable])
    x_all = np.stack([emb_set.vector(tid) for tid in usable])

    model = Mlp.init(emb_set.dim, config.hidden_units, probe.NUM_CLASSES,
                     derive_rng(seed, "probe-init"))
    keep = 1.0 - config.dropout
    losses = []
    for step in range(config.total_steps):
        rng = derive_rng(seed, "probe-step", step)
        picks = rng.integers(0, len(usable), size=config.batch_size)
        x = x_all[picks]
        y = classes[picks]
        mask = (rng.uniform(size=(len(picks), config.hidden_units)) < keep) / keep
        h, logits = probe_scores(model, x, dropout_mask=mask)
        probs = softmax(logits)
        loss = -np.mean(np.log(np.maximum(probs[np.arange(len(y)), y], 1e-300)))
        dlogits = probs
        dlogits[np.arange(len(y)), y] -= 1.0
        dlogits /= len(y)
        grads = backward(model, x, h, dlogits, mask * (h > 0))
        for name, grad in grads.items():
            getattr(model, name)[...] -= config.learning_rate * grad
        losses.append(float(loss))
    return model, losses


# one class per track up to 140 tracks
MANY_TEMPI = tuple(float(bpm) for bpm in range(60, 200))


@pytest.mark.parametrize("n,bpms,fields", [
    (200, MANY_TEMPI, {"total_steps": 300}),   # the default shape
    (40, MANY_TEMPI, {"batch_size": 1, "total_steps": 30}),
    (40, MANY_TEMPI, {"batch_size": 3, "total_steps": 30}),
    (40, MANY_TEMPI, {"hidden_units": 1, "total_steps": 30}),
    (40, MANY_TEMPI, {"hidden_units": 7, "batch_size": 5, "total_steps": 30}),
    (40, MANY_TEMPI, {"dropout": 0.0, "total_steps": 30}),
    (40, MANY_TEMPI, {"dropout": 0.75, "hidden_units": 7, "total_steps": 30}),
    (5, MANY_TEMPI, {"batch_size": 64, "total_steps": 30}),   # 3 train tracks
    (40, (80.0, 140.0), {"total_steps": 30}),                 # exactly 2 classes
], ids=["default", "batch1", "batch3", "hidden1", "hidden7", "dropout0",
        "dropout.75", "set-below-batch", "two-classes"])
def test_train_probe_equals_the_allocating_reference_bitwise(n, bpms, fields):
    es, records = make_separable_problem(np.random.default_rng(9), n=n, dim=64,
                                         bpms=bpms)
    cfg = ProbeConfig(**fields)
    model, losses = probe.train_probe(es, records, cfg, seed=4)
    ref_model, ref_losses = reference_train_probe(es, records, cfg, seed=4)
    assert losses == ref_losses
    for name, tensor in model.tensors().items():
        assert tensor.tobytes() == ref_model.tensors()[name].tobytes(), name


def test_train_probe_peak_memory_is_the_model_and_one_step_workspace():
    # every step reuses one workspace, so the traced peak is the model,
    # the stacked train embeddings and the workspace, plus per-step
    # batch-length vectors and generator objects (67 KB measured
    # at this shape). An allocating step held about 2 MB more at its peak.
    n, dim = 200, 64
    es, records = make_separable_problem(np.random.default_rng(9), n=n, dim=dim,
                                         bpms=MANY_TEMPI)
    cfg = ProbeConfig(total_steps=20)
    batch, hidden, classes = cfg.batch_size, cfg.hidden_units, probe.NUM_CLASSES
    model_bytes = 8 * (hidden * dim + hidden + classes * hidden + classes)
    workspace_bytes = (model_bytes                           # gradients
                       + 8 * batch * dim                     # the batch
                       + 8 * 2 * batch * hidden + batch * hidden   # mask, h, flags
                       + 8 * classes * batch)                # output-layer product
    slack = 256 * 1024
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        probe.train_probe(es, records, cfg, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= model_bytes + 8 * n * dim + workspace_bytes + slack

"""Tempo classification probe over embeddings: 271 integer-BPM classes
(30..300), one 512-unit hidden layer with 75% dropout, argmax after
Hamming-window smoothing; scored with Acc1/Acc2."""

from dataclasses import dataclass

import numpy as np

from .augment import derive_rng
from .corpus import BPM_MAX, BPM_MIN
from .encoder import Mlp
from .errors import (ConfigError, DataError, NumericalError, require_positive,
                     require_sizes)
from .locality import TEMPO_OCTAVES

NUM_CLASSES = BPM_MAX - BPM_MIN + 1   # 271
SMOOTHING_TAPS = 15

ACC_TOLERANCE = 0.04


@dataclass(frozen=True)
class ProbeConfig:
    batch_size: int = 64
    total_steps: int = 2000
    learning_rate: float = 0.05
    dropout: float = 0.75
    hidden_units: int = 512

    def __post_init__(self):
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout must be in [0, 1)")
        require_sizes(self, "batch_size", "total_steps", "hidden_units")
        require_positive(self, "learning_rate")


def probe_scores(model: Mlp, embeddings, dropout_mask=None, out=None):
    """Hidden activations h (B, H) and class scores (logits, (B, K)) of
    the B rows of `embeddings`; dropout_mask applies only during training.
    They are written into `out`, an (h, product) pair of (B, H) and
    (K, B) float64 arrays, allocated when None. The logits are the
    F-ordered transpose of the output layer's product w2 @ h.T: at the
    default 64 x 512 by 512 x 271 shape, h @ w2.T rounds differently under
    1 and 2 OpenBLAS threads, and the softmax sums run in the logits'
    memory order."""
    x = np.atleast_2d(np.asarray(embeddings, dtype=float))
    if out is None:
        out = (np.empty((len(x), model.w1.shape[0])),
               np.empty((model.w2.shape[0], len(x))))
    h, product = out
    np.matmul(x, model.w1.T, out=h)
    h += model.b1
    np.maximum(0.0, h, out=h)
    if dropout_mask is not None:
        h *= dropout_mask
    logits = np.matmul(model.w2, h.T, out=product).T
    logits += model.b2
    return h, logits


def _softmax_in_place(logits):
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def train_probe(emb_set, records, config: ProbeConfig, *, seed):
    """Crossentropy training of the probe on integer-BPM targets, drawn from
    `seed`, over the set's train-split tracks (all if that split has none).

    Every step-sized array (the batch, the dropout draw that becomes the
    mask and then dh/dpre, the hidden activations, the output-layer
    product and the gradients) lives in one workspace allocated before
    the first step, so a step allocates only batch-length index vectors."""
    bpm = {r.track_id: r.bpm for r in records}
    split_of = {r.track_id: r.split for r in records}
    missing = [tid for tid in emb_set.ids if bpm.get(tid) is None]
    if missing:
        raise DataError("tracks without bpm labels: %s" % ", ".join(sorted(missing)))
    usable = [tid for tid in emb_set.ids if split_of.get(tid) == "train"]
    if not usable:
        usable = list(emb_set.ids)
    classes = np.array([int(round(bpm[tid])) - BPM_MIN for tid in usable])
    if len(set(classes)) < 2:
        raise DataError("need at least 2 distinct BPM classes to train")
    x_all = np.stack([emb_set.vector(tid) for tid in usable])

    model = Mlp.init(emb_set.dim, config.hidden_units, NUM_CLASSES,
                     derive_rng(seed, "probe-init"))
    keep = 1.0 - config.dropout
    batch, hidden = config.batch_size, config.hidden_units
    x = np.empty((batch, emb_set.dim))
    mask = np.empty((batch, hidden))
    alive = np.empty((batch, hidden), dtype=bool)
    forward = (np.empty((batch, hidden)), np.empty((NUM_CLASSES, batch)))
    grads = {name: np.empty_like(t) for name, t in model.tensors().items()}
    rows = np.arange(batch)
    losses = []
    for step in range(config.total_steps):
        rng = derive_rng(seed, "probe-step", step)
        picks = rng.integers(0, len(usable), size=batch)
        # picks are in range; mode="raise" would copy through a buffer
        np.take(x_all, picks, axis=0, out=x, mode="clip")
        y = classes[picks]
        rng.random(out=mask)   # the bits of rng.uniform(size=mask.shape)
        np.less(mask, keep, out=alive)
        np.divide(alive, keep, out=mask)
        h, logits = probe_scores(model, x, dropout_mask=mask, out=forward)
        probs = _softmax_in_place(logits)
        loss = -np.mean(np.log(np.maximum(probs[rows, y], 1e-300)))
        if not np.isfinite(loss):
            raise NumericalError("probe loss non-finite at step %d" % step)
        dlogits = probs
        dlogits[rows, y] -= 1.0
        dlogits /= batch
        mask *= np.greater(h, 0.0, out=alive)   # dh/dpre
        model.backward(x, h, dlogits, mask, grads)
        for name, tensor in model.tensors().items():   # w -= lr * g
            grads[name] *= config.learning_rate
            tensor -= grads[name]
        losses.append(float(loss))
    return model, losses


def smooth_scores(scores):
    """Same-length zero-padded convolution with a SMOOTHING_TAPS Hamming
    window along the BPM axis."""
    window = np.hamming(SMOOTHING_TAPS)
    return np.convolve(np.asarray(scores, dtype=float), window, mode="same")


def estimate_tempo(model: Mlp, embedding):
    """Integer BPM: argmax of smoothed class scores; ties -> lowest BPM."""
    _, logits = probe_scores(model, embedding)
    smoothed = smooth_scores(logits[0])
    return BPM_MIN + int(np.argmax(smoothed))


def acc1_hits(estimates, truths):
    """Per item: is the estimate within +/- ACC_TOLERANCE of the true
    tempo?"""
    est, tru = _check_aligned(estimates, truths)
    return np.abs(est - tru) / tru <= ACC_TOLERANCE


def acc2_hits(estimates, truths):
    """Per item: like acc1_hits but against any of the TEMPO_OCTAVES
    multiples of the truth."""
    est, tru = _check_aligned(estimates, truths)
    hits = np.zeros(len(est), dtype=bool)
    for o in TEMPO_OCTAVES:
        ref = tru * o
        hits |= np.abs(est - ref) / ref <= ACC_TOLERANCE
    return hits


def _check_aligned(estimates, truths):
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if len(est) != len(tru):
        raise DataError("estimate/truth length mismatch")
    if len(est) == 0:
        raise DataError("accuracy undefined on an empty evaluation set")
    return est, tru

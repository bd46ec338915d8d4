"""Tempo classification probe over embeddings: 271 integer-BPM classes
(30..300), one 512-unit hidden layer with 75% dropout, argmax after
Hamming-window smoothing; scored with Acc1/Acc2."""

from dataclasses import dataclass

import numpy as np

from .augment import derive_rng
from .corpus import BPM_MAX, BPM_MIN
from .encoder import Mlp, require_sizes
from .errors import ConfigError, DataError, NumericalError
from .locality import TEMPO_OCTAVES

NUM_CLASSES = BPM_MAX - BPM_MIN + 1   # 271
SMOOTHING_TAPS = 15

ACC_TOLERANCE = 0.04


@dataclass
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


def probe_scores(model: Mlp, embeddings, dropout_mask=None):
    """Class scores (logits); dropout_mask applies only during training.
    The output layer runs as (w2 @ h.T).T: at the default 64 x 512 by
    512 x 271 shape, h @ w2.T rounds differently under 1 and 2 OpenBLAS
    threads."""
    x = np.atleast_2d(np.asarray(embeddings, dtype=float))
    h = np.maximum(0.0, x @ model.w1.T + model.b1)
    if dropout_mask is not None:
        h = h * dropout_mask
    return h, (model.w2 @ h.T).T + model.b2


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def train_probe(emb_set, records, config: ProbeConfig, *, seed):
    """Crossentropy training of the probe on integer-BPM targets, drawn from
    `seed`, over the set's train-split tracks (all if that split has none)."""
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
    losses = []
    for step in range(config.total_steps):
        rng = derive_rng(seed, "probe-step", step)
        picks = rng.integers(0, len(usable), size=config.batch_size)
        x = x_all[picks]
        y = classes[picks]
        mask = (rng.uniform(size=(len(picks), config.hidden_units)) < keep) / keep
        h, logits = probe_scores(model, x, dropout_mask=mask)
        probs = _softmax(logits)
        loss = -np.mean(np.log(np.maximum(probs[np.arange(len(y)), y], 1e-300)))
        if not np.isfinite(loss):
            raise NumericalError("probe loss non-finite at step %d" % step)
        dlogits = probs
        dlogits[np.arange(len(y)), y] -= 1.0
        dlogits /= len(y)
        grads = model.backward(x, h, dlogits, mask * (h > 0))
        for name, grad in grads.items():
            getattr(model, name)[...] -= config.learning_rate * grad
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


def acc1(estimates, truths):
    """Fraction of estimates within +/- ACC_TOLERANCE of the true tempo."""
    return float(np.mean(acc1_hits(estimates, truths)))


def acc2(estimates, truths):
    """Like acc1 but against any tempo-octave multiple of the truth."""
    return float(np.mean(acc2_hits(estimates, truths)))


def _check_aligned(estimates, truths):
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if len(est) != len(tru):
        raise DataError("estimate/truth length mismatch")
    if len(est) == 0:
        raise DataError("accuracy undefined on an empty evaluation set")
    return est, tru

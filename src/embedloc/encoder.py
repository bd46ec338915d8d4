"""Small contrastive encoder trained with NT-Xent on locally sampled,
independently augmented pairs.

Architecture: fixed temporal pooling -> linear -> tanh -> linear -> L2
normalize. A pure time average is blind to tempo (resampling the time
axis preserves it), so pooling concatenates three summaries per patch:
per-band time average, per-band mean absolute frame difference, and a
log-lag autocorrelation of the band-averaged envelope. Gradients are
analytic; the loss gradient is checked against finite differences in
the test suite.
"""

import os
from dataclasses import asdict, dataclass

import numpy as np

from . import tensorio
from .augment import AugmentationSpec, apply_chain, derive_rng
from .corpus import pair_min_duration_s, sample_pair
from .errors import (ConfigError, DataError, NumericalError, require_positive,
                     require_sizes)


@dataclass(frozen=True)
class TrainConfig:
    batch_pairs: int = 64
    total_steps: int = 5000
    warmup_steps: int = 250
    peak_lr: float = 0.001
    temperature: float = 0.1
    momentum: float = 0.0
    embedding_dim: int = 64
    hidden_units: int = 256

    def __post_init__(self):
        require_sizes(self, "total_steps", "embedding_dim", "hidden_units")
        require_sizes(self, "batch_pairs", minimum=2)
        require_positive(self, "peak_lr", "temperature")
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ConfigError("warmup_steps must be in [0, total_steps)")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must be in [0, 1)")


# frames, log-spaced; the 24 rounded lags are distinct and increasing
# (np.unique would also import numpy.ma into every CLI start)
ENVELOPE_LAGS = np.round(np.geomspace(8, 128, 24)).astype(int)


def _summed_views(views):
    """Per (U, M) patch of `views`, one at a time: its per-band sums,
    per-band sums of |frame difference| and per-frame sums, each an
    np.add.reduce (np.mean's sum). A float64 patch is summed where it
    lies; any other is copied into a float64 patch buffer first. That
    buffer and the difference buffer are allocated once per call, laid
    out as np.asarray and np.diff lay out theirs (numpy's order='K'), so
    every sum runs in the order it runs over the np.stack'ed views."""
    shape = layout = None
    for view in views:
        view = np.asarray(view)
        if view.ndim != 2:
            raise ValueError("a view of shape %s is not a (U, M) patch"
                             % (view.shape,))
        if shape is None:
            shape = view.shape
        elif view.shape != shape:
            raise ValueError("views of unequal shape %s and %s"
                             % (shape, view.shape))
        order = "F" if abs(view.strides[0]) < abs(view.strides[1]) else "C"
        if order != layout:
            layout, patch = order, None
            diff = np.empty((shape[0], shape[1] - 1), order=order)
        if view.dtype != np.float64:
            if patch is None:
                patch = np.empty(shape, order=order)
            np.copyto(patch, view)
            view = patch
        np.subtract(view[:, 1:], view[:, :-1], out=diff)
        np.abs(diff, out=diff)
        yield (np.add.reduce(view, axis=1), np.add.reduce(diff, axis=1),
               np.add.reduce(view, axis=0))


def _envelope_autocorrelation(env):
    """Normalized autocorrelation of each (B, M) envelope row, centred in
    place, at ENVELOPE_LAGS (zero at lags of M frames or more); the
    lagged products go through one buffer."""
    m = env.shape[1]
    env -= env.mean(axis=1, keepdims=True)
    prod = np.multiply(env, env)
    power = np.maximum(np.sum(prod, axis=1), 1e-12)
    ac = np.zeros((env.shape[0], len(ENVELOPE_LAGS)))
    for j, lag in enumerate(ENVELOPE_LAGS[ENVELOPE_LAGS < m]):
        np.multiply(env[:, lag:], env[:, :m - lag], out=prod[:, lag:])
        ac[:, j] = np.sum(prod[:, lag:], axis=1) / power
    return ac


def pool_features(views):
    """Fixed temporal pooling of B (U, M) patches to (B, 2U + L).

    `views` is any iterable of patches (a list, a generator, or a
    (B, U, M) array); a view that is not 2-D, or patches of unequal
    shape, raise ValueError. Patches are pooled one at a time through
    one per-call workspace (_summed_views), so no batch-sized array is
    built, and a patch may be freed once it is summarized.

    Concatenates the per-band time average, the per-band mean absolute
    frame-to-frame difference (scales with stretch factor), and the
    normalized autocorrelation of the band-averaged envelope at
    log-spaced lags (shifts along log-lag under stretch); the
    autocorrelation runs once over the stacked (B, M) envelopes. Each
    mean is its stacked sums divided once, as np.mean divides.
    """
    mean, diff, env = (np.stack(parts)
                       for parts in zip(*_summed_views(views)))
    u, m = mean.shape[1], env.shape[1]
    mean /= m
    diff /= m - 1
    env /= u
    ac = _envelope_autocorrelation(env)
    # bring the three groups to comparable per-dimension magnitude
    return np.concatenate([mean, 16.0 * diff, 24.0 * ac], axis=1)


def feature_dim(num_bands):
    return 2 * num_bands + len(ENVELOPE_LAGS)


@dataclass(eq=False)
class Mlp:
    """Two dense layers, w1 (hidden, in) with b1 and w2 (out, hidden) with
    b2. The encoder (tanh hidden layer) and the tempo probe (ReLU hidden
    layer) are each one; each runs its own forward pass, and they share
    the backward pass and the on-disk parameter-set format."""
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        w1, w2 = self.w1, self.w2
        if not (w1.ndim == 2 and w2.ndim == 2 and w2.shape[1] == w1.shape[0]
                and self.b1.shape == (w1.shape[0],)
                and self.b2.shape == (w2.shape[0],)):
            raise DataError("layers do not chain: %s" % ", ".join(
                "%s %s" % (name, tuple(t.shape))
                for name, t in self.tensors().items()))

    @classmethod
    def init(cls, in_dim, hidden_units, out_dim, rng):
        return cls(
            w1=rng.standard_normal((hidden_units, in_dim)) / np.sqrt(in_dim),
            b1=np.zeros(hidden_units),
            w2=rng.standard_normal((out_dim, hidden_units)) / np.sqrt(hidden_units),
            b2=np.zeros(out_dim),
        )

    def tensors(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def backward(self, x, h, dout, dh_dpre, grads):
        """Gradients of a scalar loss w.r.t. the four tensors, given the
        input x, the hidden activations h, dL/d(output), and dh/d(hidden
        pre-activation) including any dropout scale applied to h. They
        are written into `grads`, arrays shaped like tensors() by name
        that the caller owns, which are returned. h is spent: it is
        overwritten with dL/d(hidden pre-activation)."""
        np.matmul(dout.T, h, out=grads["w2"])
        dout.sum(axis=0, out=grads["b2"])
        dpre = np.matmul(dout, self.w2, out=h)
        dpre *= dh_dpre
        np.matmul(dpre.T, x, out=grads["w1"])
        dpre.sum(axis=0, out=grads["b1"])
        return grads

    def save(self, path, config, provenance):
        """Write the tensors to directory `path`, with a header.json of the
        config and the run's provenance (tensorio.save_params)."""
        tensorio.save_params(os.path.join(path, "header.json"), self.tensors(),
                             {"config": asdict(config), "provenance": provenance})

    @classmethod
    def load(cls, path, config_type):
        """The Mlp of a directory written by save. Tensors that do not
        chain, or a stored config that config_type rejects, raise
        DataError naming the header."""
        header_path = os.path.join(path, "header.json")
        tensors, header = tensorio.load_params(header_path)
        try:
            params = cls(**tensors)
            config_type(**header["config"])
            return params
        except (KeyError, TypeError, ConfigError, DataError) as exc:
            raise DataError("%s: bad parameter set: %s"
                            % (header_path, exc)) from None


def encode(params: Mlp, views, return_cache=False):
    """Map B (U, M) mel patches to (B, D) unit vectors. `views` is what
    pool_features takes: any iterable of patches, consumed once. The
    cache holds only the pooled features and MLP activations, never a
    patch."""
    pooled = pool_features(views)
    h = np.tanh(pooled @ params.w1.T + params.b1)
    e = h @ params.w2.T + params.b2
    norms = np.linalg.norm(e, axis=1, keepdims=True)
    z = e / norms
    if return_cache:
        return z, (pooled, h, e, norms)
    return z


def encode_backward(params: Mlp, cache, dz, grads):
    """Gradients of a scalar loss w.r.t. encoder parameters, given dL/dz,
    written into `grads` as Mlp.backward writes them; spends the cache."""
    pooled, h, e, norms = cache
    z = e / norms
    de = (dz - z * np.sum(dz * z, axis=1, keepdims=True)) / norms
    return params.backward(pooled, h, de, 1.0 - h * h, grads)


def ntxent_loss(embeddings, temperature):
    """NT-Xent over 2B unit vectors paired as (2i, 2i+1).

    Returns (loss, gradient w.r.t. the embeddings). Each anchor's
    positive competes against the other 2B-2 vectors in the batch.
    """
    z = np.asarray(embeddings, dtype=float)
    n = z.shape[0]
    if n < 4 or n % 2:
        raise DataError("need 2B embeddings with B >= 2, got %d" % n)
    sims = (z @ z.T) / temperature
    np.fill_diagonal(sims, -np.inf)
    pos = np.arange(n) ^ 1
    row_max = sims.max(axis=1, keepdims=True)
    expd = np.exp(sims - row_max)
    denom = expd.sum(axis=1)
    log_probs = sims[np.arange(n), pos] - (row_max[:, 0] + np.log(denom))
    loss = -log_probs.mean()

    grad_sims = np.divide(expd, denom[:, None], out=expd)   # softmax over b != i
    grad_sims[np.arange(n), pos] -= 1.0
    grad_sims /= n
    dz = (grad_sims + grad_sims.T) @ z / temperature
    return loss, dz


def lr_at(step, config: TrainConfig):
    """Linear warmup to peak_lr, then cosine decay to zero."""
    if not (0 <= step <= config.total_steps):
        raise ConfigError("step %d outside [0, %d]" % (step, config.total_steps))
    if step < config.warmup_steps:
        return config.peak_lr * step / config.warmup_steps
    span = config.total_steps - config.warmup_steps
    frac = (step - config.warmup_steps) / span
    return config.peak_lr * 0.5 * (1.0 + np.cos(np.pi * frac))


def usable_train_tracks(records, aug_spec: AugmentationSpec):
    minimum = pair_min_duration_s(aug_spec.context_seconds)
    return [r for r in records if r.split == "train" and r.duration_s >= minimum]


def train(records, mels, aug_spec: AugmentationSpec, config: TrainConfig, *, seed):
    """SGD over NT-Xent on augmented local pairs drawn from `mels`, the
    loaded MelSpectrograms by track id; single-threaded, bit-reproducible
    for a fixed `seed`, and free of file I/O.

    Returns (params, per-step loss list).
    """
    tracks = usable_train_tracks(records, aug_spec)
    if len(tracks) < 2:
        raise DataError("need at least 2 usable train tracks, have %d" % len(tracks))
    missing = [rec.track_id for rec in tracks if rec.track_id not in mels]
    if missing:
        raise DataError("no spectrogram loaded for train track(s) %s"
                        % ", ".join(missing))

    init_rng = derive_rng(seed, "init")
    params = Mlp.init(feature_dim(mels[tracks[0].track_id].num_bands),
                      config.hidden_units, config.embedding_dim, init_rng)
    velocity = {k: np.zeros_like(v) for k, v in params.tensors().items()}
    grads = {k: np.empty_like(v) for k, v in params.tensors().items()}

    def step_views(step):
        """The step's views in batch order, view vi of pair i at row
        2i + vi; each is made as pooling asks for it, so at most one
        augmented view is alive at a time."""
        picks = derive_rng(seed, "step", step).integers(
            0, len(tracks), size=config.batch_pairs)
        for i, ti in enumerate(picks):
            rec = tracks[ti]
            pair = sample_pair(rec, mels[rec.track_id], aug_spec,
                               derive_rng(seed, "pair", step, i))
            for vi, seg in enumerate(pair):
                # an empty chain reads no rng, so none is derived for it
                rng = (derive_rng(seed, "augment", step, i, vi)
                       if aug_spec.chain else None)
                yield apply_chain(seg, aug_spec, rng=rng).values

    losses = []
    for step in range(config.total_steps):
        z, cache = encode(params, step_views(step), return_cache=True)
        loss, dz = ntxent_loss(z, config.temperature)
        if not np.isfinite(loss):
            raise NumericalError("non-finite loss at step %d" % step)
        encode_backward(params, cache, dz, grads)
        lr = lr_at(step, config)
        for name, tensor in params.tensors().items():
            # velocity = momentum * velocity - lr * grad, in place
            velocity[name] *= config.momentum
            grads[name] *= lr
            velocity[name] -= grads[name]
            tensor += velocity[name]
        losses.append(float(loss))
    return params, losses

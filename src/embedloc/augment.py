"""Mel-spectrogram augmentations: time-stretch (TS), pitch-shift (PS),
equalization (EQ) and random-resized-crop (RRC), plus their parameter
samplers and chained application.

Pipeline order is always TS -> PS -> EQ. RRC is an alternative to TS/PS
and may not be combined with them; RRC + EQ is allowed.
"""

import functools
import hashlib
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, require_positive
from .melfront import MelSpectrogram, build_filterbank, log_silence

TAU_RANGE = (0.75, 1.5)
TAU_OP_RANGE = (0.25, 4.0)
MU_RANGE = (0.749, 1.335)
# EQ mode -> the (lo, hi) range of its corner in Hz
EQ_CORNER_RANGES = {"lowpass": (2200.0, 4000.0), "highpass": (200.0, 1200.0)}
RRC_TIME_SCALE_RANGE = (0.6, 1.0)
RRC_FREQ_SCALE_RANGE = (0.6, 1.0)
EQ_ORDER = 3   # Butterworth order of the EQ filters
SPLINE_REACH = 28      # H: the spline's |G[i, j]| < 2e-16 once |i - j| >= H
TS_CHUNK_FRAMES = 64   # output frames per time-stretch matrix product

STAGES = ("TS", "PS", "EQ", "RRC")


# ---------------------------------------------------------------------------
# parameter types

@dataclass(frozen=True)
class TimeStretchParams:
    tau: float

    def __post_init__(self):
        if not (TAU_OP_RANGE[0] < self.tau < TAU_OP_RANGE[1]):
            raise ConfigError("tau %g outside operational range %s"
                              % (self.tau, (TAU_OP_RANGE,)))


@dataclass(frozen=True)
class PitchShiftParams:
    mu: float

    def __post_init__(self):
        require_positive(self, "mu")


@dataclass(frozen=True)
class EqParams:
    mode: str                 # none | lowpass | highpass
    corner_hz: float = 0.0

    def __post_init__(self):
        if self.mode not in ("none", *EQ_CORNER_RANGES):
            raise ConfigError("unknown EQ mode %r" % self.mode)
        span = EQ_CORNER_RANGES.get(self.mode)
        if span and not span[0] <= self.corner_hz <= span[1]:
            raise ConfigError("%s corner %g Hz outside %s"
                              % (self.mode, self.corner_hz, (span,)))


@dataclass(frozen=True)
class RrcParams:
    time_scale: float
    freq_scale: float
    time_offset: float = 0.0
    freq_offset: float = 0.0

    def __post_init__(self):
        require_positive(self, "time_scale", "freq_scale")
        if self.time_scale > 1.0 or self.freq_scale > 1.0:
            raise ConfigError("RRC crop must lie inside the source")
        if not (0.0 <= self.time_offset <= 1.0 and 0.0 <= self.freq_offset <= 1.0):
            raise ConfigError("RRC offsets must be fractions in [0, 1]")


@dataclass(frozen=True)
class AugmentationSpec:
    chain: tuple = ()
    context_seconds: float = 4.5
    output_seconds: float = 3.0

    def __post_init__(self):
        chain = tuple(self.chain)
        object.__setattr__(self, "chain", chain)
        for stage in chain:
            if stage not in STAGES:
                raise ConfigError("unknown augmentation stage %r" % stage)
        if len(set(chain)) != len(chain):
            raise ConfigError("duplicate stages in chain %s" % (chain,))
        if "RRC" in chain and ({"TS", "PS"} & set(chain)):
            raise ConfigError("RRC may not be combined with TS or PS")
        order = [s for s in ("TS", "PS", "EQ") if s in chain]
        if order != [s for s in chain if s in ("TS", "PS", "EQ")]:
            raise ConfigError("chain %s violates TS -> PS -> EQ order" % (chain,))
        if self.context_seconds < self.output_seconds:
            raise ConfigError("context_seconds must cover output_seconds")

    @property
    def chain_id(self):
        return "+".join(self.chain) if self.chain else "none"

    def context_frames(self, config):
        return int(round(self.context_seconds * config.frames_per_second))

    def output_frames(self, config):
        return int(round(self.output_seconds * config.frames_per_second))

    def check_frames(self, config):
        """Raise ConfigError unless both windows are a finite number of
        frames, the output has the 2 frames that pooling's differences need
        and, with TS, the context holds TS's reach at TAU_RANGE[1]."""
        for name in ("context_seconds", "output_seconds"):
            if not math.isfinite(getattr(self, name) * config.frames_per_second):
                raise ConfigError("%s %g is beyond the float range at %g frames/s"
                                  % (name, getattr(self, name),
                                     config.frames_per_second))
        out, ctx = self.output_frames(config), self.context_frames(config)
        reach = stretch_frames(ctx, TAU_RANGE[1])
        if out < 2:
            raise ConfigError("output_seconds %g is %d frame(s) at %g frames/s;"
                              " need at least 2" % (self.output_seconds, out,
                                                    config.frames_per_second))
        if "TS" in self.chain and reach < out:
            raise ConfigError("context_seconds %g is %d frames, which TS at tau %g"
                              " stretches to %d; output_seconds %g needs %d"
                              % (self.context_seconds, ctx, TAU_RANGE[1], reach,
                                 self.output_seconds, out))


# ---------------------------------------------------------------------------
# RNG derivation: scheduling-independent per-sample streams

def derive_rng(seed, *keys):
    """Deterministic child RNG from a base seed and hashable keys. A numpy
    integer key counts by value: np.int64(3) and 3 give one stream."""
    keys = tuple(operator.index(k) if isinstance(k, np.integer) else k for k in keys)
    digest = hashlib.sha256(repr((int(seed),) + keys).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


# ---------------------------------------------------------------------------
# parameter samplers

def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def sample_tau(rng) -> TimeStretchParams:
    """tau ~ 1/(tau * log(1.5/0.75)) on [0.75, 1.5] (log-uniform)."""
    return TimeStretchParams(tau=_log_uniform(rng, *TAU_RANGE))


def sample_mu(rng) -> PitchShiftParams:
    """mu ~ 1/(mu * log(1.335/0.749)) on [0.749, 1.335] (log-uniform)."""
    return PitchShiftParams(mu=_log_uniform(rng, *MU_RANGE))


def sample_eq(rng) -> EqParams:
    """Equal thirds none / lowpass / highpass; corner uniform per mode."""
    mode = ("none", *EQ_CORNER_RANGES)[rng.integers(3)]
    if mode == "none":
        return EqParams(mode="none")
    return EqParams(mode=mode, corner_hz=float(rng.uniform(*EQ_CORNER_RANGES[mode])))


def sample_rrc(rng) -> RrcParams:
    return RrcParams(
        time_scale=_log_uniform(rng, *RRC_TIME_SCALE_RANGE),
        freq_scale=float(rng.uniform(*RRC_FREQ_SCALE_RANGE)),
        time_offset=float(rng.uniform()),
        freq_offset=float(rng.uniform()),
    )


# ---------------------------------------------------------------------------
# frequency warp (pitch shift geometry)

def mel_band_scale(num_bands, sample_rate_hz):
    """S_U = U / log10(1 + R/700), R = sample_rate_hz: the scale of the axis
    f(u) = 700 (10^(u/S_U) - 1) that warp_band_position assumes, from 0 Hz
    at band 0 to R at band U (the filterbank's centres stop below R/2)."""
    return num_bands / np.log10(1.0 + sample_rate_hz / 700.0)


def warp_band_position(u, mu, num_bands, sample_rate_hz):
    """Band-axis position that linear frequency mu * f(u) maps to, where
    f(u) is the linear frequency of band position u."""
    s = mel_band_scale(num_bands, sample_rate_hz)
    u = np.asarray(u, dtype=float)
    return s * np.log10(1.0 + mu * (10.0 ** (u / s) - 1.0))


# ---------------------------------------------------------------------------
# transforms

@functools.lru_cache(maxsize=4)   # train's context, the band axis, a sweep's track
def _second_derivative_band(n):
    """Read-only (n, 2H + 2) band[i, d] = G[i, i - H + d] (H =
    SPLINE_REACH) of the n x n G = A^-1 D that gives s = G y, a sixth of
    the second derivatives of the natural spline through samples y at
    knots 0..n-1. A and D are the tridiagonal system
    s[i-1] + 4 s[i] + s[i+1] = y[i-1] - 2 y[i] + y[i+1] for interior i,
    with identity rows for s[0] = s[n-1] = 0. Band entries whose column
    lies outside 0..n-1 are 0. G[i, j] decays as (2 - sqrt(3))^|i - j|,
    so every entry the band leaves out is below 2e-16.

    One solve builds it in O(n H) memory, with no n x n array: its
    right-hand sides are D C for the comb C[r, j] = [r = j mod P], so
    column j of the solution sums G's columns j, j + P, j + 2P, ... For
    a band entry the other columns of that sum lie at least P - H - 1
    knots away, where they are too small to change its rounding, so the
    band holds G's entries exactly.

    The solve is LAPACK dgtsv's Gaussian elimination, so the band has
    the bytes dgtsv gives. A is diagonally dominant, so dgtsv swaps no
    rows, and neither does this. Of dgtsv's operations it leaves out
    only those that change no bit: multiplying by an entry 1.0 of A, and
    subtracting a zero, which is 0.0 times a row or a row that is 0.
    Subtracting a zero changes no value but -0.0, and no -0.0 arises:
    the comb holds +0.0, 1 and -2, and x - y is -0.0 only if x is. So
    rows 0 and n-1, whose right-hand sides are 0, stay 0, and the other
    rows take two numpy calls per pass."""
    h, p = SPLINE_REACH, 4 * SPLINE_REACH
    rows = np.arange(1, n - 1)
    sums = np.zeros((n, p))                 # rows 0 and n-1 of D are 0
    sums[rows, (rows - 1) % p] = 1.0
    sums[rows, rows % p] = -2.0
    sums[rows, (rows + 1) % p] = 1.0
    s, step = list(sums), np.empty(p)      # s[i] is a view of row i
    d = [1.0, 4.0]                          # dgtsv's pivots d[i]
    for i in range(1, n - 2):
        fact = 1.0 / d[i]
        d.append(4.0 - fact)
        np.subtract(s[i + 1], np.multiply(fact, s[i], out=step), out=s[i + 1])
    for i in range(n - 2, 0, -1):
        np.subtract(s[i], s[i + 1], out=s[i])
        np.divide(s[i], d[i], out=s[i])
    knots = np.arange(n)[:, None]
    cols = knots - h + np.arange(2 * h + 2)
    band = np.where((cols >= 0) & (cols < n), sums[knots, cols % p], 0.0)
    band.flags.writeable = False
    return band


def _spline_weights(n, positions):
    """(i - H, w) for the positions clipped to [0, n-1]: w[r] holds the
    natural-spline weights of position r on the 2H + 3 knots
    i - H .. i + H + 2 around its left knot i. On [i, i+1], with
    a = t - i and b = 1 - a, the spline through y is
    b y[i] + a y[i+1] + (b^3 - b) s[i] + (a^3 - a) s[i+1] with s = G y,
    so the weights are b I[i] + a I[i+1] + (b^3 - b) G[i] + (a^3 - a) G[i+1]."""
    band = _second_derivative_band(n)
    h = SPLINE_REACH
    t = np.clip(positions, 0, n - 1)
    i = np.minimum(t.astype(int), n - 2)
    a = t - i
    b = 1.0 - a
    w = np.zeros((len(i), 2 * h + 3))
    np.multiply(band[i], (b ** 3 - b)[:, None], out=w[:, :-1])
    w[:, 1:] += band[i + 1] * (a ** 3 - a)[:, None]
    w[:, h] += b
    w[:, h + 1] += a
    return i - h, w


def _operator_columns(first, w, lo, hi):
    """Columns lo..hi-1 of the matrix whose row r holds w[r] on the
    columns from first[r] on and 0 elsewhere."""
    rows, width = w.shape
    start = min(lo, first.min())
    block = np.zeros((rows, max(hi, first.max() + width) - start))
    at = (np.arange(rows) * block.shape[1] + first - start)[:, None]
    block.reshape(-1)[at + np.arange(width)] = w
    return block[:, lo - start:hi - start]


def natural_spline_operator(n, positions):
    """The (len(positions), n) matrix W with W @ values the natural cubic
    spline through values[i] at knot i (unit spacing, along axis 0),
    evaluated at positions clipped to [0, n-1]:
    W = b I[i] + a I[i+1] + (b^3 - b) G[i] + (a^3 - a) G[i+1]."""
    return _operator_columns(*_spline_weights(n, positions), 0, n)


def center_crop(x: MelSpectrogram, frames: int) -> MelSpectrogram:
    """The middle `frames` frames of `x`, as a read-only window of it."""
    if x.num_frames < frames:
        raise DataError("cannot crop %d frames from %d" % (frames, x.num_frames))
    return x.window((x.num_frames - frames) // 2, frames)


def stretch_frames(source_frames, tau):
    """Output frames TS at `tau` fills from `source_frames`: tau*m <= the last."""
    return int(np.floor((source_frames - 1) / tau)) + 1


def time_stretch(x: MelSpectrogram, p: TimeStretchParams,
                 out_frames: int | None = None) -> MelSpectrogram:
    """Resample along time at positions tau*m with a natural cubic spline.

    out_frames=None stretches the full source extent. The spline is a
    linear map of the source frames, built from the band of G cached per
    frame count. Each TS_CHUNK_FRAMES output frames are one matrix
    product of their rows of that map with only the source frames those
    rows reach, computed as rows @ values.T[lo:hi] so that the result
    comes out column-major, as pitch_shift's does.
    """
    m_src = x.num_frames
    if m_src < 2:
        raise DataError("need at least 2 frames to stretch")
    max_out = stretch_frames(m_src, p.tau)
    if out_frames is None:
        out_frames = max_out
    elif out_frames > max_out:
        raise DataError("insufficient context: tau=%g stretches %d source frames to"
                        " %d output frames, not %d" % (p.tau, m_src, max_out, out_frames))
    first, w = _spline_weights(m_src, p.tau * np.arange(out_frames))
    width = w.shape[1]
    # float64 copies of only the source frames the chunks reach
    frames = np.asarray(x.values[:, :min(first[-1] + width, m_src)], dtype=float).T
    out = np.empty((out_frames, x.num_bands))
    for r0 in range(0, out_frames, TS_CHUNK_FRAMES):
        rows = slice(r0, r0 + TS_CHUNK_FRAMES)
        lo = max(first[r0], 0)
        hi = min(first[rows][-1] + width, m_src)
        np.matmul(_operator_columns(first[rows], w[rows], lo, hi),
                  frames[lo:hi], out=out[rows])
    return replace(x, values=out.T)


def pitch_shift(x: MelSpectrogram, p: PitchShiftParams) -> MelSpectrogram:
    """Warp the band axis so content at linear frequency f moves to mu*f.

    Output band v interpolates the source column at the inverse warp
    position; positions beyond the top band (mu < 1) become silence.
    The result is W @ values, computed as (values.T @ W.T).T so that it
    comes out column-major, bands contiguous: OpenBLAS then splits the
    product between threads along the bands, and 1 and 2 threads give
    the same bits (row-major W @ values differed by ~4e-15).
    """
    u_count = x.num_bands
    cfg = x.config
    src_pos = warp_band_position(np.arange(u_count), 1.0 / p.mu,
                                 u_count, cfg.sample_rate_hz)
    valid = src_pos <= u_count - 1
    out = (np.asarray(x.values, dtype=float).T
           @ natural_spline_operator(u_count, src_pos).T).T
    out[~valid, :] = log_silence(cfg)
    return replace(x, values=out)


def butterworth_magnitude(freq_hz, corner_hz, mode):
    """Analytic Butterworth magnitude response of order EQ_ORDER."""
    r = np.asarray(freq_hz, dtype=float) / corner_hz
    r2n = r ** (2 * EQ_ORDER)
    if mode == "lowpass":
        return 1.0 / np.sqrt(1.0 + r2n)
    if mode == "highpass":
        return r ** EQ_ORDER / np.sqrt(1.0 + r2n)
    raise ConfigError("unknown Butterworth mode %r" % mode)


@functools.lru_cache(maxsize=8)
def eq_basis(config):
    """Row-sum-normalized rows of the config's filterbank and its DFT bin
    frequencies, built once per config and returned as read-only arrays."""
    filterbank = build_filterbank(config)
    rows = filterbank.weights / filterbank.weights.sum(axis=1, keepdims=True)
    rows.flags.writeable = False
    return rows, filterbank.bin_hz


def eq_offsets(config, p: EqParams):
    """Per-band additive log offsets log10(sum_k S_u[k] B[k]) with
    row-sum-normalized filterbank rows."""
    if p.mode == "none":
        return np.zeros(config.num_bands)
    rows, bin_hz = eq_basis(config)
    banded = rows @ butterworth_magnitude(bin_hz, p.corner_hz, p.mode)
    return np.log10(np.maximum(banded, 1e-300))


def equalize(x: MelSpectrogram, p: EqParams) -> MelSpectrogram:
    return replace(x, values=x.values + eq_offsets(x.config, p)[:, None])


def _resize_bilinear(arr, out_rows, out_cols):
    """Align-corners bilinear resize of a 2-D array."""
    rows, cols = arr.shape

    def positions(n_out, n_src):
        if n_out == 1 or n_src == 1:
            return np.zeros(n_out)
        return np.arange(n_out) * (n_src - 1) / (n_out - 1)

    r = positions(out_rows, rows)
    c = positions(out_cols, cols)
    r0 = np.floor(r).astype(int)
    c0 = np.floor(c).astype(int)
    r1 = np.minimum(r0 + 1, rows - 1)
    c1 = np.minimum(c0 + 1, cols - 1)
    fr = (r - r0)[:, None]
    fc = (c - c0)[None, :]
    top = arr[np.ix_(r0, c0)] * (1 - fc) + arr[np.ix_(r0, c1)] * fc
    bot = arr[np.ix_(r1, c0)] * (1 - fc) + arr[np.ix_(r1, c1)] * fc
    return top * (1 - fr) + bot * fr


def random_resized_crop(x: MelSpectrogram, p: RrcParams,
                        out_frames: int | None = None) -> MelSpectrogram:
    """Crop a time/frequency sub-rectangle (scales are fractions of the
    source extents) and resize it back to the full band grid."""
    u_count, m_src = x.values.shape
    if out_frames is None:
        out_frames = m_src
    crop_f = max(2, int(round(p.time_scale * m_src)))
    crop_u = max(2, int(round(p.freq_scale * u_count)))
    if crop_f > m_src or crop_u > u_count:
        raise DataError("RRC crop exceeds source extent")
    f0 = int(round(p.time_offset * (m_src - crop_f)))
    u0 = int(round(p.freq_offset * (u_count - crop_u)))
    patch = x.values[u0:u0 + crop_u, f0:f0 + crop_f]
    return replace(x, values=_resize_bilinear(patch, u_count, out_frames))


def apply_chain(x: MelSpectrogram, spec: AugmentationSpec, rng) -> MelSpectrogram:
    """Sample parameters for every enabled stage from `rng` and apply them
    in pipeline order; the result always has output_seconds of frames.
    With no stage it is a read-only window of `x`; every stage writes only
    into arrays it allocates, so `x` is never modified."""
    work = center_crop(x, spec.context_frames(x.config))
    out = spec.output_frames(x.config)
    if "RRC" in spec.chain:
        work = random_resized_crop(work, sample_rrc(rng), out_frames=out)
    elif "TS" in spec.chain:
        work = time_stretch(work, sample_tau(rng), out_frames=out)
    else:
        work = center_crop(work, out)
    if "PS" in spec.chain:
        work = pitch_shift(work, sample_mu(rng))
    if "EQ" in spec.chain:
        work = equalize(work, sample_eq(rng))
    return work

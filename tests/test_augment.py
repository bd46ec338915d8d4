import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dgtsv

from embedloc import augment, melfront
from embedloc.augment import (AugmentationSpec, EqParams, PitchShiftParams,
                              RrcParams, TimeStretchParams)
from embedloc.errors import ConfigError, DataError
from conftest import make_click_mel, make_tone_mel
from oracles import envelope_period, estimate_tempo_autocorrelation

CFG = melfront.MelConfig()


def random_mel(rng, frames=450):
    values = rng.uniform(-4.0, 2.0, size=(CFG.num_bands, frames))
    return melfront.MelSpectrogram(values=values, config=CFG, source_id="rand")


# ---------------------------------------------------------------------------
# samplers

def test_tau_support_and_determinism():
    rng = np.random.default_rng(0)
    draws = np.array([augment.sample_tau(rng).tau for _ in range(10_000)])
    assert draws.min() >= 0.75 and draws.max() <= 1.5
    again = np.random.default_rng(0)
    redraw = np.array([augment.sample_tau(again).tau for _ in range(10_000)])
    np.testing.assert_array_equal(draws, redraw)


def test_tau_median_is_geometric_midpoint():
    # reciprocal density: CDF hits 0.5 at sqrt(0.75 * 1.5)
    rng = np.random.default_rng(1)
    draws = np.array([augment.sample_tau(rng).tau for _ in range(100_000)])
    midpoint = np.sqrt(0.75 * 1.5)
    assert abs(np.mean(draws <= midpoint) - 0.5) < 0.01


def test_mu_support_matches_five_semitones():
    assert abs(2.0 ** (-5 / 12) - 0.749) < 1e-3
    assert abs(2.0 ** (5 / 12) - 1.335) < 1e-3
    rng = np.random.default_rng(2)
    draws = np.array([augment.sample_mu(rng).mu for _ in range(100_000)])
    assert draws.min() >= 0.749 and draws.max() <= 1.335
    assert abs(np.median(draws) - np.sqrt(0.749 * 1.335)) < 0.01


def test_eq_sampler_modes_and_corners():
    rng = np.random.default_rng(3)
    params = [augment.sample_eq(rng) for _ in range(100_000)]
    counts = {m: sum(p.mode == m for p in params) / len(params)
              for m in ("none", "lowpass", "highpass")}
    for frac in counts.values():
        assert abs(frac - 1 / 3) < 0.01
    for p in params:
        if p.mode == "lowpass":
            assert 2200 <= p.corner_hz <= 4000
        elif p.mode == "highpass":
            assert 200 <= p.corner_hz <= 1200


def test_param_validation():
    with pytest.raises(ConfigError):
        TimeStretchParams(tau=0.2)
    with pytest.raises(ConfigError):
        EqParams(mode="lowpass", corner_hz=100.0)
    with pytest.raises(ConfigError):
        EqParams(mode="bandpass", corner_hz=500.0)
    with pytest.raises(ConfigError):
        RrcParams(time_scale=0.0, freq_scale=0.5)


# ---------------------------------------------------------------------------
# time stretch

def test_time_stretch_identity():
    rng = np.random.default_rng(4)
    x = random_mel(rng)
    out = augment.time_stretch(x, TimeStretchParams(tau=1.0), out_frames=300)
    np.testing.assert_allclose(out.values, x.values[:, :300], atol=1e-6)


def test_time_stretch_context_error():
    x = random_mel(np.random.default_rng(5), frames=100)
    with pytest.raises(DataError, match="context"):
        augment.time_stretch(x, TimeStretchParams(tau=2.0), out_frames=100)


@pytest.mark.parametrize("tau", [0.75, 1.5])
def test_time_stretch_moves_click_period(tau):
    period = 48
    x = make_click_mel(period, CFG, frames=900)
    out = augment.time_stretch(x, TimeStretchParams(tau=tau))
    assert abs(envelope_period(out) - round(period / tau)) <= 1


def test_time_stretch_commutes_with_constant_offset():
    rng = np.random.default_rng(6)
    x = random_mel(rng)
    p = TimeStretchParams(tau=1.3)
    shifted = replace(x, values=x.values + 2.5)
    np.testing.assert_allclose(
        augment.time_stretch(shifted, p, out_frames=300).values,
        augment.time_stretch(x, p, out_frames=300).values + 2.5, atol=1e-9)


# ---------------------------------------------------------------------------
# pitch shift

def test_warp_band_position_reference_value():
    # high-precision evaluation of the warp at U=96, R=16000, u=48,
    # mu=1.335
    with mpmath.workdps(50):
        s = 96 / mpmath.log10(1 + mpmath.mpf(16000) / 700)
        f = s * mpmath.log10(1 + mpmath.mpf("1.335") * (10 ** (48 / s) - 1))
    got = augment.warp_band_position(48, 1.335, 96, 16000)
    assert abs(got - float(f)) < 1e-9
    assert abs(float(f) - 55.15) < 0.01


def test_warp_fixed_point_at_dc():
    for mu in (0.75, 1.0, 1.335):
        assert augment.warp_band_position(0, mu, 96, 16000) == 0.0


def test_pitch_shift_identity():
    x = random_mel(np.random.default_rng(7))
    out = augment.pitch_shift(x, PitchShiftParams(mu=1.0))
    np.testing.assert_allclose(out.values, x.values, atol=1e-6)


def test_pitch_shift_tone_transport():
    mel_440 = make_tone_mel(440.0, CFG, seconds=1.0)
    shifted = augment.pitch_shift(mel_440, PitchShiftParams(mu=1.25))
    mel_550 = make_tone_mel(550.0, CFG, seconds=1.0)
    got = np.argmax(shifted.values.mean(axis=1))
    want = np.argmax(mel_550.values.mean(axis=1))
    assert abs(int(got) - int(want)) <= 1


def test_pitch_shift_zero_fill_for_downshift():
    x = random_mel(np.random.default_rng(8))
    out = augment.pitch_shift(x, PitchShiftParams(mu=0.8))
    silence = melfront.log_silence(CFG)
    assert np.all(out.values[-5:, :] == silence)
    assert not np.all(out.values[:40, :] == silence)


def test_pitch_shift_commutes_with_constant_offset():
    x = random_mel(np.random.default_rng(9))
    p = PitchShiftParams(mu=1.2)   # mu > 1: no zero-filled bands
    shifted = replace(x, values=x.values + 1.5)
    np.testing.assert_allclose(
        augment.pitch_shift(shifted, p).values,
        augment.pitch_shift(x, p).values + 1.5, atol=1e-9)


# ---------------------------------------------------------------------------
# equalization

def test_eq_none_is_exact_identity():
    x = random_mel(np.random.default_rng(10))
    out = augment.equalize(x, EqParams(mode="none"))
    np.testing.assert_array_equal(out.values, x.values)


def test_eq_offsets_are_additive():
    rng = np.random.default_rng(12)
    modes = set()
    for _ in range(200):
        p1, p2 = augment.sample_eq(rng), augment.sample_eq(rng)
        modes.update((p1.mode, p2.mode))
        x = random_mel(rng, frames=50)
        o1, o2 = augment.eq_offsets(CFG, p1), augment.eq_offsets(CFG, p2)
        twice = augment.equalize(augment.equalize(x, p1), p2).values
        np.testing.assert_array_equal(twice, x.values + o1[:, None] + o2[:, None])
        # measured worst 3.6e-15 over 1000 draws, seeds 0-4
        np.testing.assert_allclose(twice, x.values + (o1 + o2)[:, None],
                                   rtol=0, atol=1e-14)
        if p1.mode == "none":
            np.testing.assert_array_equal(augment.equalize(x, p1).values, x.values)
    assert modes == {"none", "lowpass", "highpass"}


def test_eq_offset_is_frame_constant_and_input_independent():
    rng = np.random.default_rng(11)
    p = EqParams(mode="lowpass", corner_hz=3000.0)
    x = random_mel(rng)
    y = random_mel(rng)
    dx = augment.equalize(x, p).values - x.values
    dy = augment.equalize(y, p).values - y.values
    assert np.ptp(dx, axis=1).max() < 1e-12
    np.testing.assert_allclose(dx, dy, atol=1e-12)


def test_eq_corner_band_offset():
    # |B| = 1/sqrt(2) at the corner, so the nearest band's offset should
    # sit near log10(1/sqrt(2))
    fb = melfront.build_filterbank(CFG)
    for corner in (2500.0, 3000.0, 3800.0):
        offs = augment.eq_offsets(CFG, EqParams(mode="lowpass", corner_hz=corner))
        band = np.argmin(np.abs(fb.band_center_hz - corner))
        assert abs(offs[band] - np.log10(1 / np.sqrt(2))) < 0.03


def test_butterworth_magnitude_shapes():
    f = np.array([0.0, 1000.0, 2000.0, 4000.0, 8000.0])
    lp = augment.butterworth_magnitude(f, 2000.0, "lowpass")
    hp = augment.butterworth_magnitude(f, 2000.0, "highpass")
    assert lp[0] == 1.0 and hp[0] == 0.0
    assert abs(lp[2] - 1 / np.sqrt(2)) < 1e-12
    assert abs(hp[2] - 1 / np.sqrt(2)) < 1e-12
    assert np.all(np.diff(lp) <= 0) and np.all(np.diff(hp) >= 0)


# ---------------------------------------------------------------------------
# random resized crop

def test_rrc_identity():
    x = random_mel(np.random.default_rng(12), frames=300)
    out = augment.random_resized_crop(
        x, RrcParams(time_scale=1.0, freq_scale=1.0))
    np.testing.assert_allclose(out.values, x.values, atol=1e-6)


def test_rrc_freq_offset_moves_tone_monotonically():
    mel = make_tone_mel(880.0, CFG, seconds=1.0)
    peaks = []
    for off in (0.0, 0.5, 1.0):
        out = augment.random_resized_crop(
            mel, RrcParams(time_scale=1.0, freq_scale=0.6, freq_offset=off))
        peaks.append(int(np.argmax(out.values.mean(axis=1))))
    assert peaks[0] > peaks[1] > peaks[2]


def test_rrc_full_height_crop_matches_time_stretch():
    # a crop of 675 of 900 source frames resized to 450 output frames
    # plays content at 1.5x, matching time_stretch with tau=1.5
    period = 48
    x = make_click_mel(period, CFG, frames=900)
    stretched = augment.time_stretch(x, TimeStretchParams(tau=1.5),
                                     out_frames=450)
    cropped = augment.random_resized_crop(
        x, RrcParams(time_scale=0.75, freq_scale=1.0), out_frames=450)
    assert abs(envelope_period(cropped) - envelope_period(stretched)) <= 1


# ---------------------------------------------------------------------------
# frame geometry

def test_default_ts_geometry_sits_on_the_reach_and_passes():
    # 450 context frames stretch to exactly the 300 output frames at tau 1.5
    spec = AugmentationSpec(chain=("TS", "PS", "EQ"))
    assert augment.stretch_frames(spec.context_frames(CFG),
                                  augment.TAU_RANGE[1]) == spec.output_frames(CFG)
    spec.check_frames(CFG)


def test_frame_check_rejects_a_context_short_of_the_ts_reach():
    with pytest.raises(ConfigError, match=r"^context_seconds 3.5 is 350 frames, which"
                       r" TS at tau 1.5 stretches to 233; output_seconds 3 needs 300$"):
        AugmentationSpec(chain=("TS",), context_seconds=3.5).check_frames(CFG)
    # without TS the context is only cropped
    for chain in ((), ("PS", "EQ"), ("RRC",)):
        AugmentationSpec(chain=chain, context_seconds=3.5).check_frames(CFG)


@settings(max_examples=150, deadline=None)
@given(out=st.integers(2, 400), slack=st.integers(-3, 3), hop=st.integers(40, 400))
def test_frame_check_accepts_ts_exactly_when_time_stretch_fills_the_output(out, slack,
                                                                           hop):
    # contexts around the reach ceil(1.5 (out - 1)) + 1, on either side of it
    cfg = melfront.MelConfig(hop=hop)
    fps = cfg.frames_per_second
    ctx = max(out, int(np.ceil(1.5 * (out - 1))) + 1 + slack)
    spec = AugmentationSpec(chain=("TS",), context_seconds=ctx / fps,
                            output_seconds=out / fps)
    ctx, out = spec.context_frames(cfg), spec.output_frames(cfg)
    x = melfront.MelSpectrogram(values=np.zeros((4, ctx)), config=cfg)
    try:
        filled = augment.time_stretch(x, TimeStretchParams(tau=augment.TAU_RANGE[1]),
                                      out_frames=out).num_frames == out
    except DataError:
        filled = False
    try:
        spec.check_frames(cfg)
        accepted = True
    except ConfigError:
        accepted = False
    assert accepted == filled


# ---------------------------------------------------------------------------
# chains

def test_chain_validation():
    with pytest.raises(ConfigError):
        AugmentationSpec(chain=("PS", "TS"))
    with pytest.raises(ConfigError):
        AugmentationSpec(chain=("RRC", "TS"))
    with pytest.raises(ConfigError):
        AugmentationSpec(chain=("TS", "TS"))
    with pytest.raises(ConfigError):
        AugmentationSpec(chain=("XX",))


def test_empty_chain_is_center_crop():
    x = random_mel(np.random.default_rng(13), frames=500)
    spec = AugmentationSpec(chain=())
    out = augment.apply_chain(x, spec, np.random.default_rng(0))
    ctx, n = spec.context_frames(CFG), spec.output_frames(CFG)
    start = (500 - ctx) // 2 + (ctx - n) // 2
    np.testing.assert_array_equal(out.values, x.values[:, start:start + n])


def test_chain_seeded_determinism():
    x = random_mel(np.random.default_rng(14))
    spec = AugmentationSpec(chain=("TS", "PS", "EQ"))
    a = augment.apply_chain(x, spec, np.random.default_rng(99))
    b = augment.apply_chain(x, spec, np.random.default_rng(99))
    np.testing.assert_array_equal(a.values, b.values)
    assert a.num_frames == spec.output_frames(CFG)


def test_chain_insufficient_context():
    x = random_mel(np.random.default_rng(15), frames=100)
    with pytest.raises(DataError):
        augment.apply_chain(x, AugmentationSpec(chain=("TS",)),
                            np.random.default_rng(0))


STAGE_CALLS = [
    (augment.time_stretch, TimeStretchParams(tau=1.2)),
    (augment.pitch_shift, PitchShiftParams(mu=0.9)),
    (augment.equalize, EqParams(mode="none")),
    (augment.equalize, EqParams(mode="lowpass", corner_hz=3000.0)),
    (augment.equalize, EqParams(mode="highpass", corner_hz=500.0)),
    (augment.random_resized_crop, RrcParams(time_scale=0.8, freq_scale=0.7,
                                            time_offset=0.3, freq_offset=0.6)),
    (augment.random_resized_crop, RrcParams(time_scale=1.0, freq_scale=1.0)),
]


@pytest.mark.parametrize("stage,params", STAGE_CALLS,
                         ids=["%s-%d" % (f.__name__, i)
                              for i, (f, _) in enumerate(STAGE_CALLS)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stage_output_shares_no_memory_with_its_input(stage, params, dtype):
    # the input is a read-only window, as apply_chain hands each stage
    track = melfront.MelSpectrogram(
        values=np.random.default_rng(16).uniform(-4.0, 2.0, (CFG.num_bands, 500)
                                                 ).astype(dtype),
        config=CFG, source_id="track")
    kept = track.values.tobytes()
    x = track.window(20, 450)
    out = stage(x, params)
    assert not np.may_share_memory(out.values, track.values)
    assert out.config is CFG and out.source_id == "track"
    assert track.values.tobytes() == kept


def test_ts_chain_tempo_span():
    # over many applications the detected tempo should span roughly
    # [120 * 0.75, 120 * 1.5]
    period = 50   # 120 BPM at 100 fps
    x = make_click_mel(period, CFG, frames=460)
    spec = AugmentationSpec(chain=("TS",))
    tempi = []
    for i in range(300):
        out = augment.apply_chain(x, spec, rng=augment.derive_rng(0, "span", i))
        tempi.append(estimate_tempo_autocorrelation(out))
    tempi = np.array(tempi)
    assert tempi.min() < 95 and tempi.max() > 170
    assert np.all((tempi > 85) & (tempi < 185))


def test_derived_rng_is_stable():
    a = augment.derive_rng(1, "x", 2).uniform(size=3)
    b = augment.derive_rng(1, "x", 2).uniform(size=3)
    c = augment.derive_rng(1, "x", 3).uniform(size=3)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derived_rng_keys_integers_by_value():
    # repr spells a numpy integer np.int64(3) under numpy 2
    np.testing.assert_array_equal(
        augment.derive_rng(7, "step", np.int64(3)).uniform(size=4),
        augment.derive_rng(7, "step", 3).uniform(size=4))
    np.testing.assert_array_equal(
        augment.derive_rng(7, np.uint8(1), np.intp(2)).uniform(size=4),
        augment.derive_rng(7, 1, 2).uniform(size=4))
    # a bool key keeps its own stream
    assert not np.array_equal(augment.derive_rng(7, True).uniform(size=4),
                              augment.derive_rng(7, 1).uniform(size=4))


# ---------------------------------------------------------------------------
# natural-spline kernel against scipy's CubicSpline (the oracle lives
# here only; the package does not import scipy.interpolate)

def spline_oracle(values, positions, axis):
    from scipy.interpolate import CubicSpline
    n = values.shape[axis]
    spline = CubicSpline(np.arange(n), values, axis=axis, bc_type="natural")
    return spline(np.clip(positions, 0, n - 1))


@pytest.mark.parametrize("tau", [0.75, 1.0, 1.5])
def test_time_stretch_matches_cubic_spline_oracle(tau):
    x = random_mel(np.random.default_rng(30))
    out = augment.time_stretch(x, TimeStretchParams(tau=tau), out_frames=300)
    ref = spline_oracle(x.values, tau * np.arange(300), axis=1)
    assert np.abs(out.values - ref).max() <= 1e-12


def test_full_track_stretch_matches_oracle_over_sweep_grid():
    from embedloc.locality import MetricsConfig
    x = random_mel(np.random.default_rng(31), frames=1600)
    for tau in MetricsConfig().stretch_grid:
        out = augment.time_stretch(x, TimeStretchParams(tau=tau))
        ref = spline_oracle(x.values, tau * np.arange(out.num_frames), axis=1)
        assert out.num_frames == int(np.floor(1599 / tau)) + 1
        assert np.abs(out.values - ref).max() <= 1e-12, tau


@pytest.mark.parametrize("mu", [0.749, 1.0, 1.335])
def test_pitch_shift_matches_cubic_spline_oracle(mu):
    x = random_mel(np.random.default_rng(32), frames=300)
    out = augment.pitch_shift(x, PitchShiftParams(mu=mu))
    src = augment.warp_band_position(np.arange(CFG.num_bands), 1.0 / mu,
                                     CFG.num_bands, CFG.sample_rate_hz)
    ref = spline_oracle(x.values, src, axis=0)
    ref[src > CFG.num_bands - 1, :] = melfront.log_silence(CFG)
    assert (mu < 1.0) == bool(np.any(src > CFG.num_bands - 1))
    assert np.abs(out.values - ref).max() <= 1e-12


def natural_spline(values, positions):
    """Reference natural cubic spline through values[i] at knot i (unit
    spacing, along axis 0 of a 2-D array), evaluated at positions clipped
    to [0, n-1]: one tridiagonal solve of A s = D y for s = M / 6, a
    sixth of the second derivatives, then on [i, i+1], with a = t - i and
    b = 1 - a, b y[i] + a y[i+1] + (b^3 - b) s[i] + (a^3 - a) s[i+1]."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    s = second_derivatives(values)
    t = np.clip(positions, 0, n - 1)
    i = np.minimum(t.astype(int), n - 2)
    a = (t - i)[:, None]
    b = 1.0 - a
    return (b * values[i] + a * values[i + 1]
            + (b ** 3 - b) * s[i] + (a ** 3 - a) * s[i + 1])


def second_derivatives(values):
    """s = A^-1 D y by LAPACK's dgtsv: rows s[i-1] + 4 s[i] + s[i+1] =
    y[i-1] - 2 y[i] + y[i+1] for interior i, and s[0] = s[n-1] = 0."""
    n = values.shape[0]
    rhs = np.zeros((n,) + values.shape[1:], order="F")
    rhs[1:-1] = values[:-2] - 2.0 * values[1:-1] + values[2:]
    dl, d, du = np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1)
    dl[-1] = du[0] = 0.0
    d[[0, -1]] = 1.0
    *_, s, info = dgtsv(dl, d, du, rhs)
    assert info == 0
    return s


def test_natural_spline_two_knots_is_linear():
    values = np.array([[1.0, -2.0], [3.0, 4.0]])
    positions = np.array([0.0, 0.25, 1.0, 7.0])
    want = [[1.0, -2.0], [1.5, -0.5], [3.0, 4.0], [3.0, 4.0]]
    np.testing.assert_allclose(natural_spline(values, positions),
                               want, atol=1e-15)
    np.testing.assert_allclose(
        augment.natural_spline_operator(2, positions) @ values, want, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 96, 450, 1600])
def test_spline_operator_matches_the_solve_path(n):
    rng = np.random.default_rng(35)
    values = rng.uniform(-4.0, 2.0, size=(n, 50))
    positions = np.concatenate([
        np.arange(n, dtype=float),                 # at the knots
        rng.uniform(0.0, n - 1.0, size=40),        # between them
        [-3.0, -0.5, n - 0.5, n + 4.0]])           # clipped to [0, n-1]
    w = augment.natural_spline_operator(n, positions)
    assert w.shape == (len(positions), n)
    solved = natural_spline(values, positions)
    assert np.abs(w @ values - solved).max() <= 1e-14
    # time stretch applies the same operator in chunks of output frames
    x = random_mel(rng, frames=n)
    for tau in (0.75, 1.0, 1.37):
        out = augment.time_stretch(x, TimeStretchParams(tau=tau)).values
        solved = natural_spline(x.values.T, tau * np.arange(out.shape[1])).T
        assert np.abs(out - solved).max() <= 1e-14, tau


@pytest.mark.parametrize("n", [2, 3, 96, 450])
def test_band_holds_the_entries_of_dense_g(n):
    h = augment.SPLINE_REACH
    g = second_derivatives(np.eye(n))       # the dense n x n G = A^-1 D
    band = augment._second_derivative_band(n)
    offset = np.arange(n)[None, :] - np.arange(n)[:, None]    # j - i
    in_band = (offset >= -h) & (offset <= h + 1)
    rows, cols = np.nonzero(in_band)
    np.testing.assert_array_equal(band[rows, cols - rows + h], g[in_band])
    assert np.abs(g[~in_band]).max(initial=0.0) < 2e-16
    # band entries whose column lies outside 0..n-1 are 0
    assert np.count_nonzero(band) == np.count_nonzero(g[in_band])


def dgtsv_band(n):
    """The band read off one dgtsv solve against D C for the comb
    C[r, j] = [r = j mod P], as the package built it before its own
    elimination."""
    h, p = augment.SPLINE_REACH, 4 * augment.SPLINE_REACH
    comb = (np.arange(n)[:, None] % p == np.arange(p)).astype(float)
    sums = second_derivatives(comb)
    knots = np.arange(n)[:, None]
    cols = knots - h + np.arange(2 * h + 2)
    return np.where((cols >= 0) & (cols < n), sums[knots, cols % p], 0.0)


# every n below 200 covers the knot counts where the end rows meet and
# the pivots still change
@pytest.mark.parametrize("n", [*range(2, 200), 300, 450, 1398, 1401, 1600, 1601, 5000])
def test_band_has_the_bytes_of_the_dgtsv_solve(n):
    assert augment._second_derivative_band(n).tobytes() == dgtsv_band(n).tobytes()


def test_first_full_track_stretch_builds_no_dense_operator():
    x = random_mel(np.random.default_rng(38), frames=1600)
    augment._second_derivative_band.cache_clear()
    tracemalloc.start()
    try:
        out = augment.time_stretch(x, TimeStretchParams(tau=0.75))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert augment._second_derivative_band.cache_info().misses == 1
    assert out.num_frames == 2133
    # a dense 1600 x 1600 G alone would take 20 MB
    assert peak < 8 * 2 ** 20, peak


def test_stretching_many_track_lengths_keeps_a_few_bands():
    rng = np.random.default_rng(39)
    tracks = [random_mel(rng, frames=1600 + k) for k in range(16)]
    tracemalloc.start()
    try:
        for x in tracks:
            augment.time_stretch(x, TimeStretchParams(tau=1.25))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # one band of a 1600-frame track is 0.74 MB; 16 of them would be 12 MB
    assert kept < 4 * 2 ** 20, kept


def test_spline_system_and_operator_are_cached_read_only():
    for n in (2, 96, 1600):
        band = augment._second_derivative_band(n)
        assert augment._second_derivative_band(n) is band
        assert band.shape == (n, 2 * augment.SPLINE_REACH + 2)
        assert not band.flags.writeable
        with pytest.raises(ValueError):
            band[0, 0] = 1.0


# ---------------------------------------------------------------------------
# composition properties on inputs smooth enough to resample

def smooth_mel(rng, frames, axis):
    """Three sinusoids of 24 to 55 samples' period along `axis` (0: bands,
    1: frames), each with a random phase per row or column."""
    shape = (CFG.num_bands, frames)
    pos = np.arange(shape[axis], dtype=float)[:, None]
    phases = rng.uniform(0.0, 2 * np.pi, size=(3, shape[1 - axis]))
    values = sum(np.sin(2 * np.pi * pos / period + phase)
                 for period, phase in zip((24.0, 37.0, 55.0), phases))
    return melfront.MelSpectrogram(values=-1.0 + (values if axis == 0 else values.T),
                                   config=CFG, source_id="smooth")


@pytest.mark.parametrize("tau1,tau2", [(0.8, 1.25), (1.5, 0.75), (1.2, 1.3)])
def test_time_stretch_twice_is_one_stretch_by_the_product(tau1, tau2):
    x = smooth_mel(np.random.default_rng(36), 600, axis=1)
    twice = augment.time_stretch(augment.time_stretch(
        x, TimeStretchParams(tau=tau1)), TimeStretchParams(tau=tau2)).values
    once = augment.time_stretch(x, TimeStretchParams(tau=tau1 * tau2)).values
    n = min(twice.shape[1], once.shape[1])
    interior = slice(12, n - 12)
    # measured worst 7.7e-5 (tau 1.5 then 0.75) over these pairs, seeds 0-4
    assert np.abs(twice[:, interior] - once[:, interior]).max() <= 1e-4


@pytest.mark.parametrize("mu", [0.749, 0.8, 1.25, 1.335])
def test_pitch_shift_then_its_inverse_is_identity_in_range(mu):
    u_count, rate = CFG.num_bands, CFG.sample_rate_hz
    x = smooth_mel(np.random.default_rng(37), 300, axis=0)
    back = augment.pitch_shift(augment.pitch_shift(
        x, PitchShiftParams(mu=mu)), PitchShiftParams(mu=1.0 / mu)).values
    bands = np.arange(u_count)
    # rows of the first shift's output that hold source content (the rest
    # are silence when mu < 1); the second shift reads them at warp(v, mu)
    kept = np.sum(augment.warp_band_position(bands, 1.0 / mu, u_count, rate)
                  <= u_count - 1)
    in_range = augment.warp_band_position(bands, mu, u_count, rate) <= kept - 1 - 8
    assert in_range.sum() >= 75
    # measured worst 3.4e-3 (mu 0.749) over these factors, seeds 0-4
    assert np.abs(back[in_range] - x.values[in_range]).max() <= 5e-3


def test_eq_basis_cached_matches_explicit_filterbank():
    weights = melfront.build_filterbank(CFG).weights
    rows = weights / weights.sum(axis=1, keepdims=True)
    bin_hz = np.arange(rows.shape[1]) * CFG.sample_rate_hz / CFG.dft_size
    for p in (EqParams(mode="lowpass", corner_hz=2900.0),
              EqParams(mode="highpass", corner_hz=700.0)):
        want = np.log10(rows @ augment.butterworth_magnitude(
            bin_hz, p.corner_hz, p.mode))
        np.testing.assert_array_equal(augment.eq_offsets(CFG, p), want)
    rows, bin_hz = augment.eq_basis(CFG)
    assert augment.eq_basis(CFG)[0] is rows
    assert bin_hz is melfront.build_filterbank(CFG).bin_hz
    assert not rows.flags.writeable and not bin_hz.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 1.0


def test_eq_views_build_the_filterbank_at_most_once(monkeypatch):
    calls = []

    def counting_build(config):
        calls.append(config)
        return melfront.build_filterbank(config)

    monkeypatch.setattr(augment, "build_filterbank", counting_build)
    augment.eq_basis.cache_clear()
    x = random_mel(np.random.default_rng(33), frames=300)
    rng = np.random.default_rng(34)
    for _ in range(200):
        augment.equalize(x, augment.sample_eq(rng))
    assert len(calls) == 1     # the cache was cleared, so exactly one build
    augment.eq_basis.cache_clear()

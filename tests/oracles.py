"""Signal-level oracles operating directly on mel spectrograms.

These deliberately avoid the embedding pipeline: tempo comes from the
autocorrelation of the frame-energy envelope, the key root from the
strongest spectral peak folded to a pitch class. They are used to check
that synthetic ground-truth labels are recoverable, and as independent
references in tests. No module of the package imports them.
"""

import numpy as np

from embedloc.melfront import band_grid_mel, hz_to_mel, mel_to_hz

C4_HZ = 261.6255653005986


def _parabolic_refine(y, i):
    """Sub-sample peak position around index i of a sampled curve."""
    if i <= 0 or i >= len(y) - 1:
        return float(i)
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom == 0:
        return float(i)
    return i + 0.5 * (y[i - 1] - y[i + 1]) / denom


def frame_energy(mel):
    """Linear-power energy envelope over frames."""
    return np.sum(10.0 ** np.asarray(mel.values, dtype=float), axis=0)


def estimate_tempo_autocorrelation(mel, min_bpm=50.0, max_bpm=250.0):
    """Tempo in BPM from the envelope autocorrelation peak.

    Prefers the half lag when it is nearly as strong, so click trains do
    not get reported at half tempo.
    """
    env = frame_energy(mel)
    env = env - env.mean()
    # widen click peaks so non-integer periods still align well
    env = np.convolve(env, np.hanning(5), mode="same")
    fps = mel.config.frames_per_second
    ac = np.correlate(env, env, mode="full")[len(env) - 1:]
    lag_lo = max(2, int(np.floor(fps * 60.0 / max_bpm)))
    lag_hi = min(len(ac) - 2, int(np.ceil(fps * 60.0 / min_bpm)))
    if lag_hi <= lag_lo:
        raise ValueError("envelope too short for tempo range")
    lags = np.arange(lag_lo, lag_hi + 1)
    best = int(lags[np.argmax(ac[lag_lo:lag_hi + 1])])

    # prefer an integer sub-multiple of the winning lag when it is
    # nearly as strong: click trains repeat at every period multiple
    for divisor in (3, 2):
        lo = max(lag_lo, int(round(best / divisor)) - 1)
        hi = min(lag_hi, int(round(best / divisor)) + 1)
        if lo > hi:
            continue
        cand = lo + int(np.argmax(ac[lo:hi + 1]))
        if ac[cand] >= 0.8 * ac[best]:
            best = cand
            break
    lag = _parabolic_refine(ac, best)
    return 60.0 * fps / lag


def estimate_root_pitch_class(mel, fmin_hz=450.0, fmax_hz=1100.0):
    """Pitch class (0 = C) of the strongest time-averaged spectral peak
    inside [fmin_hz, fmax_hz]."""
    power = np.mean(10.0 ** np.asarray(mel.values, dtype=float), axis=1)
    centers_mel = band_grid_mel(mel.config)[1:-1]
    centers_hz = mel_to_hz(centers_mel)
    window = np.where((centers_hz >= fmin_hz) & (centers_hz <= fmax_hz))[0]
    if len(window) < 3:
        raise ValueError("too few bands in the search window")
    local = power[window]
    peak = int(np.argmax(local))
    pos = _parabolic_refine(local, peak)
    # interpolate the band-center frequency (on the mel axis) at the peak
    mel_pos = np.interp(pos, np.arange(len(window)), centers_mel[window])
    freq = float(mel_to_hz(mel_pos))
    return int(np.round(12.0 * np.log2(freq / C4_HZ))) % 12


def envelope_period(mel):
    """Independent oracle: dominant frame-energy autocorrelation lag."""
    env = np.sum(10.0 ** mel.values, axis=0)
    env = env - env.mean()
    ac = np.correlate(env, env, mode="full")[len(env) - 1:]
    lo = 5
    return lo + int(np.argmax(ac[lo:len(ac) // 2]))


def first_empty_band(sample_rate_hz, dft_size, num_bands):
    """Reference for MelConfig's band rule: the first band in which the
    triangular filterbank, built band by band as melfront builds it, holds
    no bin, or None if every band holds one."""
    n_bins = dft_size // 2 + 1
    bin_hz = np.arange(n_bins) * sample_rate_hz / dft_size
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate_hz / 2.0),
                                      num_bands + 2))
    for u in range(num_bands):
        lo, ctr, hi = edges_hz[u], edges_hz[u + 1], edges_hz[u + 2]
        rising = (bin_hz - lo) / (ctr - lo)
        falling = (hi - bin_hz) / (hi - ctr)
        if not np.any(np.clip(np.minimum(rising, falling), 0.0, None) > 0):
            return u
    return None

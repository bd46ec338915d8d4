"""Walk through the mel front end and the four spectrogram
augmentations on simple synthetic signals.

Run: python3 demos/01_mel_and_augmentations.py
"""

import numpy as np

from embedloc import augment, melfront
from embedloc.augment import (EqParams, PitchShiftParams, RrcParams,
                              TimeStretchParams)

cfg = melfront.MelConfig()


def tempo_bpm(mel):
    """Tempo from the strongest autocorrelation lag (0.24 to 1.2 s) of
    the frame-energy envelope, refined to a sub-frame lag by a parabola."""
    env = np.sum(10.0 ** np.asarray(mel.values, dtype=float), axis=0)
    env = np.convolve(env - env.mean(), np.hanning(5), mode="same")
    ac = np.correlate(env, env, mode="full")[len(env) - 1:]
    fps = mel.config.frames_per_second
    lo = int(fps * 60 / 250)
    i = lo + int(np.argmax(ac[lo:int(fps * 60 / 50) + 1]))
    lag = i + 0.5 * (ac[i - 1] - ac[i + 1]) / (ac[i - 1] - 2 * ac[i] + ac[i + 1])
    return 60.0 * fps / lag


print("mel config: %d bands, %d Hz, %.0f frames/s"
      % (cfg.num_bands, cfg.sample_rate_hz, cfg.frames_per_second))

# a 440 Hz tone, 1 second
t = np.arange(cfg.sample_rate_hz) / cfg.sample_rate_hz
tone = melfront.compute_mel(0.5 * np.sin(2 * np.pi * 440 * t), cfg)
peak = int(np.argmax(tone.values.mean(axis=1)))
fb = melfront.build_filterbank(cfg)
print("440 Hz tone peaks in band %d (center %.1f Hz)"
      % (peak, fb.band_center_hz[peak]))

# pitch shift by +4 semitones: the peak should land near a native
# 554 Hz tone's band
mu = 2.0 ** (4 / 12)
shifted = augment.pitch_shift(tone, PitchShiftParams(mu=mu))
print("after pitch shift mu=%.3f the peak moves to band %d"
      % (mu, int(np.argmax(shifted.values.mean(axis=1)))))

# a percussion-like train at 120 BPM: 30 ms noise bursts every 0.5 s
rng = np.random.default_rng(0)
clicks = 0.01 * rng.standard_normal(4 * cfg.sample_rate_hz)
burst = np.hanning(480)
for start in range(0, len(clicks) - 480, cfg.sample_rate_hz // 2):
    clicks[start:start + 480] += 0.6 * burst * rng.standard_normal(480)
mel = melfront.compute_mel(clicks, cfg)
print("click train tempo estimate: %.1f BPM"
      % tempo_bpm(mel))
for tau in (0.75, 1.5):
    out = augment.time_stretch(mel, TimeStretchParams(tau=tau))
    print("  after time stretch tau=%.2f: %.1f BPM"
          % (tau, tempo_bpm(out)))

# EQ adds a frame-constant log offset; show the corner band
p = EqParams(mode="lowpass", corner_hz=3000.0)
offsets = augment.eq_offsets(cfg, p)
corner_band = int(np.argmin(np.abs(fb.band_center_hz - p.corner_hz)))
print("lowpass EQ at 3000 Hz: offset at the corner band = %.4f "
      "(log10(1/sqrt(2)) = %.4f)"
      % (offsets[corner_band], np.log10(1 / np.sqrt(2))))

# RRC: a 0.75 time crop resized back to the source length plays the
# content at 0.75x, like time stretch with tau=0.75
out = augment.random_resized_crop(
    mel, RrcParams(time_scale=0.75, freq_scale=1.0))
print("RRC time_scale=0.75 tempo: %.1f BPM (expect ~%.0f)"
      % (tempo_bpm(out), 120 * 0.75))

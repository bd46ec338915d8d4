import struct
import tracemalloc

import mpmath
import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from embedloc import melfront
from embedloc.errors import MAX_SIZE, ConfigError, DataError
from conftest import make_tone_mel
import oracles


def test_config_validation():
    with pytest.raises(ConfigError):
        melfront.MelConfig(window_length=4096)
    with pytest.raises(ConfigError):
        melfront.MelConfig(hop=0)
    with pytest.raises(ConfigError):
        melfront.MelConfig(num_bands=1)
    with pytest.raises(ConfigError):
        melfront.MelConfig(log_floor=0.0)
    with pytest.raises(ConfigError, match="window_length"):
        melfront.MelConfig(window_length=0)
    with pytest.raises(ConfigError, match="window_length"):
        melfront.MelConfig(window_length=-5)
    assert melfront.MelConfig(dft_size=melfront.MAX_DFT_SIZE).dft_size == 2 ** 14
    assert melfront.MelConfig(hop=MAX_SIZE).hop == MAX_SIZE
    for field in ("window_length", "hop"):
        with pytest.raises(ConfigError, match="%s must be at least 1 and at most %d"
                           % (field, MAX_SIZE)):
            melfront.MelConfig(**{field: MAX_SIZE + 1})
    with pytest.raises(ConfigError, match="num_bands must be at least 2 and at most %d"
                       % MAX_SIZE):
        melfront.MelConfig(num_bands=MAX_SIZE + 1)
    with pytest.raises(ConfigError,
                       match="dft_size must be at least 1 and at most 16384, got 16385"):
        melfront.MelConfig(dft_size=melfront.MAX_DFT_SIZE + 1)


def test_two_band_peak_ordering():
    cfg = melfront.MelConfig(num_bands=2, dft_size=1024, window_length=400)
    fb = melfront.build_filterbank(cfg)
    assert fb.weights.shape[0] == 2
    assert np.argmax(fb.weights[0]) < np.argmax(fb.weights[1])


def test_filterbank_is_built_once_per_config_and_read_only():
    cfg = melfront.MelConfig()
    fb = melfront.build_filterbank(cfg)
    assert melfront.build_filterbank(melfront.MelConfig()) is fb
    assert melfront.build_filterbank(melfront.MelConfig(num_bands=64)) is not fb
    for array in (fb.weights, fb.band_center_hz, fb.bin_hz):
        with pytest.raises(ValueError):
            array[0] = 1.0


@pytest.mark.parametrize("dft_size,rate", [(2048, 16000), (512, 8000), (1000, 22050)])
def test_filterbank_bin_hz_are_the_rfft_bin_frequencies(dft_size, rate):
    fb = melfront.build_filterbank(melfront.MelConfig(
        dft_size=dft_size, sample_rate_hz=rate, num_bands=8, window_length=400))
    assert fb.bin_hz.shape == (fb.weights.shape[1],) == (dft_size // 2 + 1,)
    np.testing.assert_allclose(fb.bin_hz, np.fft.rfftfreq(dft_size, 1.0 / rate),
                               rtol=1e-15, atol=0)


@pytest.mark.parametrize("dft_size,num_bands,rate", [
    (2048, 96, 16000), (4096, 96, 16000), (2048, 128, 16000),
    (2048, 96, 22050), (512, 40, 8000), (2048, 2, 16000)])
def test_band_groups_cover_the_filterbank_exactly(dft_size, num_bands, rate):
    fb = melfront.build_filterbank(melfront.MelConfig(
        sample_rate_hz=rate, dft_size=dft_size, num_bands=num_bands))
    scattered = np.zeros_like(fb.weights)
    covered = np.zeros(fb.weights.shape, dtype=bool)
    for bands, bins, block in fb.groups:
        assert not covered[bands, bins].any()
        scattered[bands, bins] = block
        covered[bands, bins] = True
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
    assert scattered.tobytes() == fb.weights.tobytes()
    assert not np.any(fb.weights[~covered])
    assert [bands.start for bands, _, _ in fb.groups] == list(
        range(0, num_bands, melfront.BAND_GROUP))


def test_rows_are_single_peaked():
    fb = melfront.build_filterbank(melfront.MelConfig())
    for row in fb.weights:
        peak = np.argmax(row)
        support = np.nonzero(row)[0]
        assert len(support) >= 1
        # rises up to the peak, falls after it, over the support
        assert np.all(np.diff(row[support[0]:peak + 1]) >= 0)
        assert np.all(np.diff(row[peak:support[-1] + 1]) <= 0)


def test_band_centers_match_high_precision_mel_grid():
    # independent oracle: evaluate mel/mel-inverse with mpmath at 50 digits
    cfg = melfront.MelConfig()
    fb = melfront.build_filterbank(cfg)
    with mpmath.workdps(50):
        lo = mpmath.mpf(0)
        hi = 2595 * mpmath.log10(1 + mpmath.mpf(cfg.sample_rate_hz) / 2 / 700)
        for u in range(cfg.num_bands):
            mel_u = lo + (hi - lo) * (u + 1) / (cfg.num_bands + 1)
            hz = 700 * (mpmath.mpf(10) ** (mel_u / 2595) - 1)
            assert abs(fb.band_center_hz[u] - float(hz)) < 0.5


def test_empty_band_raises_naming_first_band():
    with pytest.raises(ConfigError, match="band 0 is empty"):
        melfront.MelConfig(num_bands=512, dft_size=256, window_length=256)


def test_band_rule_sizes_no_allocation():
    # a filterbank of 2**28 bands, the largest size, would take 2 TiB
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="band 0 is empty"):
            melfront.MelConfig(num_bands=MAX_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@settings(max_examples=600, deadline=None)
@given(st.integers(1, 96000), st.integers(1, 4096), st.integers(2, 600))
def test_band_rule_agrees_with_the_per_band_loop(rate, dft, anywhere):
    # band 0's upper edge, 2 * mel(rate / 2) / (bands + 1) in mel, must
    # clear the bin spacing; the largest count accepted is within one of
    largest = int(2 * melfront.hz_to_mel(rate / 2.0) / melfront.hz_to_mel(rate / dft)) - 1
    assume(largest <= 2000)
    for bands in {anywhere} | set(range(max(2, largest - 2), max(2, largest + 3))):
        empty = oracles.first_empty_band(rate, dft, bands)
        assert empty in (None, 0)   # band 0 is the narrowest
        try:
            melfront.MelConfig(sample_rate_hz=rate, dft_size=dft,
                               window_length=min(400, dft), num_bands=bands)
        except ConfigError as exc:
            assert empty == 0, exc
        else:
            assert empty is None, bands


def test_silence_clamps_to_floor():
    cfg = melfront.MelConfig()
    mel = melfront.compute_mel(np.zeros(16000), cfg)
    np.testing.assert_allclose(mel.values, np.log10(cfg.log_floor))


def test_frame_count_formula():
    cfg = melfront.MelConfig()
    for n in (400, 401, 560, 16000):
        mel = melfront.compute_mel(np.random.default_rng(0).standard_normal(n), cfg)
        assert mel.num_frames == (n - cfg.window_length) // cfg.hop + 1


def test_short_input_raises():
    cfg = melfront.MelConfig()
    with pytest.raises(DataError):
        melfront.compute_mel(np.zeros(cfg.window_length - 1), cfg)


def test_tone_hits_band_center():
    # brute-force scan: a tone at a band's center frequency should put
    # that band on top
    cfg = melfront.MelConfig()
    fb = melfront.build_filterbank(cfg)
    for u_star in (10, 30, 60, 90):
        mel = make_tone_mel(fb.band_center_hz[u_star], cfg, seconds=1.0)
        assert np.argmax(mel.values.mean(axis=1)) == u_star


def test_tone_localization_within_one_band():
    cfg = melfront.MelConfig()
    fb = melfront.build_filterbank(cfg)
    for freq in (200.0, 440.0, 1000.0, 3000.0, 6500.0):
        mel = make_tone_mel(freq, cfg, seconds=1.0)
        peak = np.argmax(mel.values.mean(axis=1))
        nearest = np.argmin(np.abs(fb.band_center_hz - freq))
        assert abs(int(peak) - int(nearest)) <= 1


def test_determinism():
    cfg = melfront.MelConfig()
    pcm = np.random.default_rng(3).standard_normal(8000)
    a = melfront.compute_mel(pcm, cfg)
    b = melfront.compute_mel(pcm.copy(), cfg)
    np.testing.assert_array_equal(a.values, b.values)


def test_energy_monotonicity():
    cfg = melfront.MelConfig()
    pcm = 0.1 * np.random.default_rng(4).standard_normal(8000)
    base = melfront.compute_mel(pcm, cfg)
    scaled = melfront.compute_mel(3.0 * pcm, cfg)
    unclamped = base.values > np.log10(cfg.log_floor)
    assert np.all(scaled.values[unclamped] >= base.values[unclamped])


def test_wav_roundtrip(tmp_path):
    cfg = melfront.MelConfig()
    pcm = 0.3 * np.sin(2 * np.pi * 440 * np.arange(8000) / cfg.sample_rate_hz)
    path = tmp_path / "t.wav"
    melfront.write_pcm_wav(path, pcm, cfg.sample_rate_hz)
    back, rate = melfront.load_pcm_wav(path)
    assert rate == cfg.sample_rate_hz
    np.testing.assert_allclose(back, pcm, atol=1.0 / 32768)


def test_raw_f32_roundtrip(tmp_path):
    pcm = np.random.default_rng(5).standard_normal(4096).astype("<f4")
    path = tmp_path / "t.f32"
    pcm.tofile(path)
    np.testing.assert_array_equal(melfront.load_pcm_f32(path), pcm.astype(float))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_f32_sample_is_a_data_error(tmp_path, bad):
    pcm = np.zeros(4096, dtype="<f4")
    pcm[1000] = bad
    path = tmp_path / "t.f32"
    pcm.tofile(path)
    with pytest.raises(DataError, match="t.f32: holds a NaN or infinite sample"):
        melfront.load_pcm_f32(path)


def test_mel_spectrogram_persistence(tmp_path):
    cfg = melfront.MelConfig()
    mel = melfront.compute_mel(np.random.default_rng(6).standard_normal(8000),
                               cfg, source_id="t0")
    path = tmp_path / "t0.emlt"
    mel.save(path)
    back = melfront.MelSpectrogram.load(path, cfg, source_id="t0")
    np.testing.assert_allclose(back.values, mel.values, atol=1e-6)


def reference_log_mel(pcm, cfg, filterbank):
    """Independent STFT oracle: an explicit float64 cos/sin DFT matrix
    (angles reduced exactly modulo dft_size) applied frame by frame,
    with no numpy FFT, then the filterbank product and the log floor."""
    n, k = cfg.window_length, cfg.dft_size
    bins = np.arange(k // 2 + 1)[:, None]
    angle = 2.0 * np.pi * ((bins * np.arange(n)[None, :]) % k) / k
    cos, sin = np.cos(angle), np.sin(angle)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))
    frames = (len(pcm) - n) // cfg.hop + 1
    out = np.empty((filterbank.num_bands, frames))
    for m in range(frames):
        x = pcm[m * cfg.hop:m * cfg.hop + n] * hann
        mag = np.sqrt((cos @ x) ** 2 + (sin @ x) ** 2)
        out[:, m] = filterbank.weights @ mag
    return np.log10(np.maximum(cfg.log_floor, out))


@pytest.mark.parametrize("frames", sorted({
    1, 255, 256, 257, 1398, melfront.STFT_BLOCK_FRAMES - 1,
    melfront.STFT_BLOCK_FRAMES, melfront.STFT_BLOCK_FRAMES + 1}))
def test_blocked_stft_matches_explicit_dft(frames):
    cfg = melfront.MelConfig()
    fb = melfront.build_filterbank(cfg)
    rng = np.random.default_rng(frames)
    pcm = 0.3 * rng.standard_normal(cfg.window_length + cfg.hop * (frames - 1))
    pcm[:cfg.hop] = 0.0   # the first frame is partly silent
    got = melfront.compute_mel(pcm, cfg).values
    want = reference_log_mel(pcm, cfg, fb)
    assert got.shape == want.shape == (cfg.num_bands, frames)
    live = want > np.log10(cfg.log_floor)
    assert live.mean() > 0.99
    np.testing.assert_array_equal(got[~live], want[~live])
    assert np.max(np.abs(got[live] - want[live])) <= 1e-9


def test_fixture_corpus_mel_equals_a_dense_filterbank_product(small_corpus,
                                                             corpus_dir,
                                                             mel_config):
    # reference: the whole filterbank times |rfft| of every frame at once,
    # with no blocks and no band groups; equal once stored as float32
    records, mels = small_corpus
    weights = melfront.build_filterbank(mel_config).weights
    n = mel_config.window_length
    for rec in records:
        pcm, _ = melfront.load_pcm_wav(corpus_dir / "wav" / (rec.track_id + ".wav"))
        frames = np.lib.stride_tricks.sliding_window_view(pcm, n)[::mel_config.hop]
        mag = np.abs(np.fft.rfft(frames * np.hanning(n), n=mel_config.dft_size))
        want = np.log10(np.maximum(mel_config.log_floor, weights @ mag.T))
        want = want.astype(np.float32)
        got = melfront.compute_mel(pcm, mel_config).values
        np.testing.assert_array_equal(got.astype(np.float32), want)
        np.testing.assert_array_equal(mels[rec.track_id].values, want)


def test_unreadable_wav_is_a_data_error(tmp_path):
    path = tmp_path / "t.wav"
    for blob in (b"", b"RIFF", b"not a wav file at all"):
        path.write_bytes(blob)
        with pytest.raises(DataError, match="t.wav"):
            melfront.load_pcm_wav(path)


def test_wav_header_declaring_more_data_than_present_sizes_no_allocation(tmp_path):
    path = tmp_path / "t.wav"
    declared = 2 ** 31   # bytes; the file holds 56
    path.write_bytes(b"RIFF" + struct.pack("<I", 36 + declared) + b"WAVEfmt "
                     + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
                     + b"data" + struct.pack("<I", declared) + b"\0" * 56)
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="t.wav"):
            melfront.load_pcm_wav(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("shape", [(64, 50), (96,), (2, 96, 50)])
def test_load_rejects_tensors_without_the_configured_bands(tmp_path, shape):
    from embedloc import tensorio
    path = tmp_path / "x.emlt"
    tensorio.write_tensor(path, np.zeros(shape))
    with pytest.raises(DataError, match="x.emlt"):
        melfront.MelSpectrogram.load(str(path), melfront.MelConfig())
    tensorio.write_tensor(path, np.zeros((96, 50)))
    assert melfront.MelSpectrogram.load(str(path), melfront.MelConfig()).num_frames == 50

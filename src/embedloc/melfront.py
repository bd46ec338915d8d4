"""Log-mel spectrogram frontend.

Band centers are uniformly spaced on the HTK mel scale,
mel(f) = 2595 * log10(1 + f/700), from 0 Hz to half the sample rate.
Triangular bands are stored with unit peak (no area normalization);
consumers that need normalized rows divide by the row sum.
MelConfig checks itself when built, so every CLI command rejects a bad
mel section at load. Its band rule costs O(1): every band holds a DFT
bin iff the bin spacing sample_rate_hz / dft_size lies below band 0's
upper edge as np.linspace gives it, mel_to_hz(2 * (hz_to_mel(
sample_rate_hz / 2) / (num_bands + 1))). Band 0 is the narrowest band,
because mel_to_hz is convex, which also puts the edge below
sample_rate_hz / (num_bands + 1): the rule holds num_bands + 1 < dft_size.
"""

import functools
import os
import wave
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, require_positive, require_sizes
from . import tensorio

HTK_MEL_CONST = 2595.0

# 8 times the default: compute_mel's STFT block buffers then take 42 MB,
# and as num_bands < dft_size, build_filterbank's weights at most 1.1 GB
# (at a rate of a few Hz; 240 MB at 16 kHz)
MAX_DFT_SIZE = 2 ** 14

# frames per STFT block in compute_mel: each block's complex rfft is
# about 2 MB at the default dft_size, whatever the track length
STFT_BLOCK_FRAMES = 128

# consecutive mel bands per filterbank group in compute_mel
BAND_GROUP = 8

# OpenBLAS runs a GEMM of m·n·k multiply-adds on the calling thread when
# m·n·k <= GEMM_MULTITHREAD_THRESHOLD × SMP_THRESHOLD_MIN = 4 × 65536, and
# splits a larger one across its own threads. Products issued from
# map_tracks' worker threads stay within it (BAND_GROUP, STFT_BLOCK_FRAMES,
# corpus.SINUSOID_BLOCK), so they never oversubscribe the cores and their
# results do not depend on the number of BLAS threads.
BLAS_ONE_THREAD_MACS = 4 * 65536


def hz_to_mel(f):
    return HTK_MEL_CONST * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / HTK_MEL_CONST) - 1.0)


@dataclass(frozen=True)
class MelConfig:
    sample_rate_hz: int = 16000
    dft_size: int = 2048
    window_length: int = 400
    hop: int = 160
    num_bands: int = 96
    window_kind: str = "hann"
    log_floor: float = 1e-10

    def __post_init__(self):
        # the frame rate and the band rule are computed in floats
        require_positive(self, "sample_rate_hz", "log_floor")
        require_sizes(self, "window_length", "hop")
        require_sizes(self, "num_bands", minimum=2)
        require_sizes(self, "dft_size", maximum=MAX_DFT_SIZE)
        if self.window_length > self.dft_size:
            raise ConfigError("window_length %d exceeds dft_size %d"
                              % (self.window_length, self.dft_size))
        if self.window_kind != "hann":
            raise ConfigError("unsupported window_kind %r" % self.window_kind)
        # band 0's upper edge, where np.linspace puts it (the module's band rule)
        top = mel_to_hz(2 * (hz_to_mel(self.sample_rate_hz / 2.0) / (self.num_bands + 1)))
        if not self.sample_rate_hz / self.dft_size < top:
            raise ConfigError("mel band 0 is empty: too many bands (%d) for dft_size=%d"
                              " at sample_rate_hz=%d"
                              % (self.num_bands, self.dft_size, self.sample_rate_hz))

    @property
    def frames_per_second(self):
        return self.sample_rate_hz / self.hop


@dataclass(frozen=True, eq=False)
class MelFilterbank:
    weights: np.ndarray      # (U, K//2 + 1), unit-peak triangles
    band_center_hz: np.ndarray
    bin_hz: np.ndarray       # (K//2 + 1,), the DFT bin frequencies
    # (band slice, bin slice, read-only weights[bands, bins]) for each
    # run of BAND_GROUP consecutive bands, over the bins their non-zeros
    # span: every non-zero of `weights` lies in one group's block
    groups: tuple

    @property
    def num_bands(self):
        return self.weights.shape[0]


@dataclass(eq=False)
class MelSpectrogram:
    # (U, M) log10 magnitudes: read-only float32 as .emlt stores them
    # when loaded, float64 when computed; code that computes on them
    # converts to float64, which is exact
    values: np.ndarray
    config: MelConfig
    source_id: str = ""

    @property
    def num_bands(self):
        return self.values.shape[0]

    @property
    def num_frames(self):
        return self.values.shape[1]

    def window(self, start, frames):
        """Frames start..start+frames-1 as a read-only view of this
        spectrogram's values: no copy is made, and writing to the window
        raises ValueError."""
        values = self.values[:, start:start + frames]
        values.flags.writeable = False
        return MelSpectrogram(values=values, config=self.config,
                              source_id=self.source_id)

    def save(self, path):
        tensorio.write_tensor(path, self.values)

    @classmethod
    def load(cls, path, config, source_id=""):
        values = tensorio.read_tensor(path)
        if values.ndim != 2 or values.shape[0] != config.num_bands:
            raise DataError("%s holds a %s tensor, not %d mel bands by frames"
                            % (path, "x".join(map(str, values.shape)),
                               config.num_bands))
        return cls(values=values, config=config, source_id=source_id)


def band_grid_mel(config):
    """U+2 uniformly spaced mel points from 0 Hz to Nyquist; interior
    points are the band centers."""
    lo = hz_to_mel(0.0)
    hi = hz_to_mel(config.sample_rate_hz / 2.0)
    return np.linspace(lo, hi, config.num_bands + 2)


@functools.lru_cache(maxsize=8)
def build_filterbank(config: MelConfig) -> MelFilterbank:
    """Triangular mel filterbank; adjacent triangles cross at 50% height.
    Built once per config and returned as read-only arrays. MelConfig's
    band rule guarantees that every band holds a bin."""
    bin_hz = np.arange(config.dft_size // 2 + 1) * config.sample_rate_hz / config.dft_size
    edges_hz = mel_to_hz(band_grid_mel(config))

    weights = np.zeros((config.num_bands, len(bin_hz)))
    for u in range(config.num_bands):
        lo, ctr, hi = edges_hz[u], edges_hz[u + 1], edges_hz[u + 2]
        rising = (bin_hz - lo) / (ctr - lo)
        falling = (hi - bin_hz) / (hi - ctr)
        weights[u] = np.clip(np.minimum(rising, falling), 0.0, None)
    groups = []
    for a in range(0, config.num_bands, BAND_GROUP):
        bands = slice(a, min(a + BAND_GROUP, config.num_bands))
        support = np.nonzero(np.any(weights[bands] > 0, axis=0))[0]
        bins = slice(int(support[0]), int(support[-1]) + 1)
        block = weights[bands, bins].copy()
        block.flags.writeable = False
        groups.append((bands, bins, block))
    band_center_hz = edges_hz[1:-1].copy()
    for array in (weights, band_center_hz, bin_hz):
        array.flags.writeable = False
    return MelFilterbank(weights=weights, band_center_hz=band_center_hz,
                         bin_hz=bin_hz, groups=tuple(groups))


def compute_mel(pcm, config: MelConfig, source_id: str = "") -> MelSpectrogram:
    """Log-mel spectrogram log10(max(floor, S @ |STFT|)) of left-aligned,
    Hann-windowed frames. The STFT runs in blocks of STFT_BLOCK_FRAMES
    frames through buffers reused from block to block, and each band
    group multiplies only its own bins into its rows of the output."""
    filterbank = build_filterbank(config)
    pcm = np.asarray(pcm, dtype=float)
    n, hop = config.window_length, config.hop
    if len(pcm) < n:
        raise DataError("pcm of %d samples is shorter than one window (%d)"
                        % (len(pcm), n))
    frames = np.lib.stride_tricks.sliding_window_view(pcm, n)[::hop]
    window = np.hanning(n)
    values = np.empty((filterbank.num_bands, len(frames)))
    rows = min(STFT_BLOCK_FRAMES, len(frames))
    windowed = np.empty((rows, n))
    spectrum = np.empty((rows, config.dft_size // 2 + 1), dtype=complex)
    magnitude = np.empty(spectrum.shape)
    for start in range(0, len(frames), STFT_BLOCK_FRAMES):
        block = frames[start:start + STFT_BLOCK_FRAMES]
        m, cols = len(block), slice(start, start + len(block))
        np.multiply(block, window, out=windowed[:m])
        np.fft.rfft(windowed[:m], n=config.dft_size, axis=1, out=spectrum[:m])
        np.abs(spectrum[:m], out=magnitude[:m])
        for bands, bins, weights in filterbank.groups:
            np.matmul(weights, magnitude[:m, bins].T, out=values[bands, cols])
    np.log10(np.maximum(config.log_floor, values, out=values), out=values)
    return MelSpectrogram(values=values, config=config, source_id=source_id)


def log_silence(config):
    """The log-domain value representing zero energy."""
    return float(np.log10(config.log_floor))


def load_pcm_wav(path):
    """Mono 16-bit little-endian WAV -> (float samples in [-1, 1), rate).
    A file that holds fewer sample bytes than its header declares raises
    DataError before any are read, so the header sizes no allocation."""
    try:
        with open(path, "rb") as fh, wave.open(fh, "rb") as wf:
            if wf.getnchannels() != 1:
                raise DataError("%s: expected mono WAV" % path)
            if wf.getsampwidth() != 2:
                raise DataError("%s: expected 16-bit samples" % path)
            rate = wf.getframerate()
            declared = wf.getnframes()
            # wave.open leaves the file at the start of the data chunk
            present = os.fstat(fh.fileno()).st_size - fh.tell()
            if 2 * declared > present:
                raise DataError("%s: data chunk holds %d bytes, but the header"
                                " declares %d frames (%d bytes)"
                                % (path, present, declared, 2 * declared))
            raw = wf.readframes(declared)
    except (wave.Error, EOFError) as exc:
        raise DataError("%s: not a readable WAV file: %s"
                        % (path, str(exc) or "header cut short")) from exc
    pcm = np.frombuffer(raw, dtype="<i2").astype(float) / 32768.0
    return pcm, rate


def write_pcm_wav(path, pcm, rate):
    """Write float samples (clipped to [-1, 1)) as mono 16-bit WAV,
    atomically. `pcm` is left unchanged."""
    scaled = np.clip(np.asarray(pcm, dtype=float), -1.0, 32767.0 / 32768.0)
    scaled *= 32768.0
    data = scaled.astype("<i2")
    with tensorio.atomic_write(path) as fh, wave.open(fh, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(int(rate))
        wf.writeframes(data)


def load_pcm_f32(path):
    """Raw float32 little-endian PCM; rate comes from the manifest. A
    NaN or infinite sample raises DataError naming the file."""
    pcm = np.fromfile(str(path), dtype="<f4").astype(float)
    if not np.isfinite(pcm).all():
        raise DataError("%s: holds a NaN or infinite sample" % path)
    return pcm

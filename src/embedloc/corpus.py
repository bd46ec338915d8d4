"""Dataset manifests, local contrastive pair sampling, and a synthetic
music-like corpus with known BPM, key and tags.

Manifests are JSON lines, one record per line, with fields:
track_id, feature_path, duration_s, bpm, key_label, tags, split.
"""

import ctypes
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from . import tensorio
from .augment import AugmentationSpec, derive_rng
from .errors import ConfigError, DataError, require_sizes
from .melfront import (BLAS_ONE_THREAD_MACS, MelConfig, MelSpectrogram,
                       compute_mel, load_pcm_f32, load_pcm_wav, write_pcm_wav)

PITCH_CLASSES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
KEY_VOCABULARY = tuple("%s:%s" % (pc, quality)
                       for pc in PITCH_CLASSES for quality in ("maj", "min"))

PAIR_MAX_SEPARATION_S = 5.0

TIMBRE_TAGS = ("sine", "saw-like", "noise-perc")

BPM_MIN, BPM_MAX = 30, 300   # the labelled tempo range, in integer BPM

# a mono 16-bit WAV stores rate * 2 and 36 + samples * 2 in u32 fields
WAV_MAX_RATE_HZ, WAV_MAX_SAMPLES = (2 ** 32 - 1) // 2, (2 ** 32 - 1 - 36) // 2


@dataclass
class TrackRecord:
    track_id: str
    feature_path: str
    duration_s: float
    bpm: float | None = None
    key_label: str | None = None
    tags: tuple = ()
    split: str = "train"

    def __post_init__(self):
        if not (isinstance(self.track_id, str) and isinstance(self.feature_path, str)):
            raise DataError("track_id %r and feature_path %r must be strings"
                            % (self.track_id, self.feature_path))
        duration = self.duration_s
        if not (isinstance(duration, (int, float)) and not isinstance(duration, bool)
                and math.isfinite(duration) and duration > 0):
            raise DataError("track %s: duration_s %r is not a finite positive number"
                            % (self.track_id, duration))
        if self.bpm is not None and not (BPM_MIN <= self.bpm <= BPM_MAX):
            raise DataError("track %s: bpm %g outside [%d, %d]"
                            % (self.track_id, self.bpm, BPM_MIN, BPM_MAX))
        if self.key_label is not None and self.key_label not in KEY_VOCABULARY:
            raise DataError("track %s: unknown key label %r"
                            % (self.track_id, self.key_label))
        if self.split not in ("train", "test"):
            raise DataError("track %s: unknown split %r" % (self.track_id, self.split))
        if not (isinstance(self.tags, (list, tuple))
                and all(isinstance(t, str) for t in self.tags)):
            raise DataError("track %s: tags %r are not a list of strings"
                            % (self.track_id, self.tags))
        self.tags = tuple(self.tags)
        self.duration_s = float(duration)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The record of the fields `d` holds; its other keys are ignored."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


def write_manifest(path, records):
    with tensorio.atomic_write(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict()) + "\n")


# the fields without a default, which every manifest row must hold
MANIFEST_REQUIRED = tuple(f.name for f in fields(TrackRecord) if f.default is MISSING)


def read_manifest(path):
    """Read a JSON-lines manifest; a bad line raises DataError naming
    path:line, and a manifest that lists no track one naming path."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                d = json.loads(line)
                if not isinstance(d, dict):
                    raise DataError("expected a JSON object")
                missing = [k for k in MANIFEST_REQUIRED if k not in d]
                if missing:
                    raise DataError("missing field(s) %s" % ", ".join(missing))
                records.append(TrackRecord.from_dict(d))
            except (ValueError, TypeError, OverflowError, RecursionError,
                    DataError) as exc:
                raise DataError("%s:%d: %s" % (path, lineno, exc)) from exc
    if not records:
        raise DataError("%s: lists no tracks" % path)
    return records


def load_track_mel(record: TrackRecord, config: MelConfig,
                   base_dir="") -> MelSpectrogram:
    """Load a track's features: .emlt files directly, audio via the
    frontend (raw .f32 assumes the manifest's declared sample rate)."""
    path = os.path.join(base_dir, record.feature_path)
    if path.endswith(".emlt"):
        return MelSpectrogram.load(path, config, source_id=record.track_id)
    if path.endswith(".wav"):
        pcm, rate = load_pcm_wav(path)
        if rate != config.sample_rate_hz:
            raise DataError("%s: rate %d != configured %d"
                            % (path, rate, config.sample_rate_hz))
    elif path.endswith(".f32"):
        pcm = load_pcm_f32(path)
    else:
        raise DataError("unrecognized feature file %s" % path)
    return compute_mel(pcm, config, source_id=record.track_id)


def usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without CPU affinity
        return os.cpu_count() or 1


M_ARENA_MAX = -8   # glibc mallopt parameter: most malloc arenas


def share_one_malloc_arena():
    """Have glibc's malloc serve every thread from its main arena.

    By default each new thread gets an arena of its own, and what a
    thread frees stays in that arena. After a threaded synth and extract
    the pool's arenas held 17-27 MB that the main thread could not reuse,
    so a later `train` in the same process peaked that much higher than
    after a serial run. With one arena it peaks as after a serial run.
    Where the C library has no mallopt this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_ARENA_MAX, 1)


def map_tracks(fn, items):
    """[fn(item) for item in items], one item per thread on a pool of
    usable_cpus() threads (numpy's FFT and ufuncs and file I/O release
    the GIL). Results come back in input order. If any call fails, the
    first failure in input order is raised, items not yet started are
    cancelled, and the call returns once the running ones have ended."""
    share_one_malloc_arena()
    pool = ThreadPoolExecutor(max_workers=usable_cpus())
    try:
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# contrastive pair sampling

def pair_min_duration_s(context_s):
    """The shortest track that holds two contexts PAIR_MAX_SEPARATION_S apart."""
    return 2.0 * context_s + PAIR_MAX_SEPARATION_S


def sample_pair_offsets(duration_s, context_s, rng):
    """Anchor uniform over the valid range; positive uniform within
    +/- PAIR_MAX_SEPARATION_S of it, clipped to track bounds."""
    hi = duration_s - context_s
    minimum = pair_min_duration_s(context_s)
    if duration_s < minimum:
        raise DataError("duration %.2f s below minimum %.2f s"
                        % (duration_s, minimum))
    anchor = rng.uniform(0.0, hi)
    positive = rng.uniform(max(0.0, anchor - PAIR_MAX_SEPARATION_S),
                           min(hi, anchor + PAIR_MAX_SEPARATION_S))
    return float(anchor), float(positive)


def sample_pair(record: TrackRecord, mel: MelSpectrogram,
                spec: AugmentationSpec, rng):
    """(anchor, positive): a locally-positioned pair of context segments
    from one track, at the offsets sample_pair_offsets draws, as
    read-only windows of `mel`."""
    cfg = mel.config
    ctx_frames = spec.context_frames(cfg)
    a_off, p_off = sample_pair_offsets(record.duration_s, spec.context_seconds, rng)

    def segment(offset_s):
        # clamped before rounding, so that no finite offset overflows
        start = int(round(min(offset_s * cfg.frames_per_second,
                              mel.num_frames - ctx_frames)))
        if start < 0:
            raise DataError("track %s has %d frames, need %d"
                            % (record.track_id, mel.num_frames, ctx_frames))
        return mel.window(start, ctx_frames)

    return segment(a_off), segment(p_off)


# ---------------------------------------------------------------------------
# synthetic corpus

def _click_times(bpm, duration_s):
    period = 60.0 / bpm
    return np.arange(0.0, duration_s, period)


SINUSOID_BLOCK = 512   # samples per block of the sinusoid bank


def _sinusoid_bank(freqs, amps, phases, n, rate):
    """sum_p amps[p]·sin(2π·freqs[p]·i/rate + phases[p]) for i < n, as a
    view of a new (blocks × SINUSOID_BLOCK) buffer.

    By angle addition over blocks of B = SINUSOID_BLOCK samples,
    sin(a + b) = sin(a)·cos(b) + cos(a)·sin(b), with a the angle at a
    block's first sample and b the angle advanced within the block, so
    sin and cos are taken of (n/B + B) angles per partial, not n. The
    (blocks × 2P) by (2P × B) product runs as one BLAS product per run of
    blocks, each within BLAS_ONE_THREAD_MACS, so each stays on the
    calling thread of map_tracks' pool."""
    omega = 2.0 * np.pi * freqs[:, None]
    starts = (omega * (np.arange(0, n, SINUSOID_BLOCK) / rate)
              + np.array(phases)[:, None]).T
    offsets = omega * (np.arange(SINUSOID_BLOCK) / rate)
    at_starts = np.concatenate([amps * np.sin(starts), amps * np.cos(starts)],
                               axis=1)
    in_block = np.concatenate([np.cos(offsets), np.sin(offsets)])
    out = np.empty((len(at_starts), SINUSOID_BLOCK))
    rows = BLAS_ONE_THREAD_MACS // max(1, in_block.size)   # P = 0: one run
    for a in range(0, len(out), rows):
        np.matmul(at_starts[a:a + rows], in_block, out=out[a:a + rows])
    return out.ravel()[:n]


def synthesize_track(bpm, key_label, timbre, duration_s, rate, rng):
    """One music-like mono track: a click train at `bpm` plus a sustained
    triad in `key_label`, voiced per the timbre family. The triad's
    buffer becomes the track: clicks are added into it in place, and it
    is normalized in place."""
    n = int(round(duration_s * rate))
    pc_name, quality = key_label.split(":")
    pc = PITCH_CLASSES.index(pc_name)
    root = 523.2511306011972 * 2.0 ** (pc / 12.0)   # C5-referenced roots
    third = root * 2.0 ** ((4 if quality == "maj" else 3) / 12.0)
    fifth = root * 2.0 ** (7.0 / 12.0)

    partials = [(root, 1.0), (2.0 * root, 0.45), (third, 0.4), (fifth, 0.5)]
    if timbre == "saw-like":
        partials += [(3.0 * root, 0.25), (4.0 * root, 0.18), (5.0 * root, 0.12)]
    # one phase per partial below Nyquist, in order, then the burst: the
    # draw order every existing corpus was made with
    partials = np.array([p for p in partials if p[0] < rate / 2.0]).reshape(-1, 2)
    phases = [rng.uniform(0, 2 * np.pi) for _ in partials]
    signal = _sinusoid_bank(partials[:, 0], partials[:, 1], phases, n, rate)

    burst_len = int(0.008 * rate)
    burst = rng.standard_normal(burst_len) * np.exp(-np.arange(burst_len) / (0.002 * rate))
    # the triad and the clicks at the timbre's gains; a gain of 1.0 is exact
    if timbre == "noise-perc":
        signal *= 0.35
    else:
        burst *= 0.5
    # bursts overlap only above 7500 BPM, so each sample gains at most one
    for ct in _click_times(bpm, duration_s):
        start = int(round(ct * rate))
        stop = min(n, start + burst_len)
        signal[start:stop] += burst[:stop - start]

    peak = max(signal.max(), -signal.min())
    if peak > 0:
        signal *= 0.5
        signal /= peak
    return signal


@dataclass(frozen=True)
class CorpusConfig:
    """Track count, track length, and the chance of a test-split track."""
    num_tracks: int = 48
    duration_s: float = 16.0
    test_fraction: float = 0.25

    def __post_init__(self):
        require_sizes(self, "num_tracks")
        if not 0.0 <= self.test_fraction <= 1.0:
            raise ConfigError("test_fraction must be in [0, 1], got %g"
                              % self.test_fraction)

    def check_wav(self, mel: MelConfig):
        """Raise ConfigError unless a 16-bit mono WAV holds a track at mel's rate."""
        rate = mel.sample_rate_hz
        if rate > WAV_MAX_RATE_HZ:
            raise ConfigError("mel.sample_rate_hz must be at most %d for a WAV, got %d"
                              % (WAV_MAX_RATE_HZ, rate))
        # a track has round(duration_s * rate) samples
        if not 0.5 < self.duration_s * rate < WAV_MAX_SAMPLES + 0.5:
            raise ConfigError("corpus.duration_s must give 1 to %d samples, got %g s"
                              " at %d Hz" % (WAV_MAX_SAMPLES, self.duration_s, rate))


def generate_synthetic_corpus(out_dir, config: CorpusConfig, sample_rate_hz, *, seed):
    """Emit WAV files plus a manifest with ground-truth BPM, key and tags,
    at a rate for which config.check_wav holds.

    BPM values cycle through an integer grid in [60, 180]; keys cycle
    through all 24 labels; timbre families alternate.
    """
    rng = derive_rng(seed, "corpus")
    os.makedirs(out_dir, exist_ok=True)
    bpm_grid = np.linspace(60, 180, 25).round().astype(int)
    # shuffle so tempo is statistically independent of the cycling key
    # assignment; cycling both grids would alias them together
    bpm_order = rng.permutation(len(bpm_grid))

    def synthesize(i):
        bpm = int(bpm_grid[bpm_order[i % len(bpm_grid)]])
        key = KEY_VOCABULARY[i % len(KEY_VOCABULARY)]
        timbre = TIMBRE_TAGS[i % len(TIMBRE_TAGS)]
        density = "dense-rhythm" if bpm >= 120 else "sparse-rhythm"
        track_rng = derive_rng(seed, "track", i)
        pcm = synthesize_track(bpm, key, timbre, config.duration_s, sample_rate_hz,
                               track_rng)
        track_id = "synth-%04d" % i
        wav_name = track_id + ".wav"
        write_pcm_wav(os.path.join(out_dir, wav_name), pcm, sample_rate_hz)
        split = "test" if track_rng.uniform() < config.test_fraction else "train"
        return TrackRecord(
            track_id=track_id, feature_path=wav_name, duration_s=config.duration_s,
            bpm=float(bpm), key_label=key, tags=(timbre, density), split=split)

    records = map_tracks(synthesize, range(config.num_tracks))
    write_manifest(os.path.join(out_dir, "manifest.jsonl"), records)
    return records


def extract_features(records, config: MelConfig, base_dir, out_dir):
    """PCM -> mel EMLT files; returns records rewritten to point at them."""
    os.makedirs(out_dir, exist_ok=True)

    def extract(rec):
        mel = load_track_mel(rec, config, base_dir=base_dir)
        name = rec.track_id + ".emlt"
        mel.save(os.path.join(out_dir, name))
        return replace(rec, feature_path=name)

    out = map_tracks(extract, records)
    write_manifest(os.path.join(out_dir, "manifest.jsonl"), out)
    return out

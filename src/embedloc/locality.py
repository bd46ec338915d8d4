"""Embedding-space locality experiments: manipulation sweeps and
neighborhood metrics (tempo RMMS, key precision, tag precision, tag
retrieval), and the MetricsConfig that holds their grids."""

from dataclasses import dataclass

import numpy as np

from .augment import PitchShiftParams, TimeStretchParams, pitch_shift, time_stretch
from .embedspace import EmbeddingSet, cosine_distance, embed_track
from .errors import ConfigError, DataError

TEMPO_OCTAVES = (1.0 / 3.0, 0.5, 1.0, 2.0, 3.0)

# sweep kind -> (the field holding its grid, its identity factor)
SWEEPS = {"time_stretch": ("stretch_grid", 1.0), "pitch_shift": ("pitch_grid", 0.0)}


def _manipulation(kind, f):
    """(augmentation, its parameters) for sweep factor f; a factor whose
    parameters are out of range raises ConfigError naming it."""
    try:
        if kind == "time_stretch":
            return time_stretch, TimeStretchParams(tau=float(f))
        return pitch_shift, PitchShiftParams(mu=2.0 ** (f / 12.0))
    except (ConfigError, OverflowError) as exc:
        raise ConfigError("%s sweep factor %r: %s" % (kind, f, exc)) from None


@dataclass(frozen=True)
class MetricsConfig:
    """The metrics' k grid, and the sweep's kind and grid of each kind
    (stretch ratios; semitone offsets), both checked whichever kind runs."""
    k_grid: tuple = (1, 2, 4, 8)
    stretch_grid: tuple = tuple(2.0 ** (i / 8.0) for i in range(-8, 9))
    pitch_grid: tuple = tuple(range(-12, 13))
    sweep_kind: str = "time_stretch"

    def __post_init__(self):
        # a k at or past the embedding set's size is checked against the set
        k_grid = list(self.k_grid)
        if not k_grid or min(k_grid) < 1 or len(set(k_grid)) != len(k_grid):
            raise ConfigError("metrics.k_grid %s must hold distinct ks >= 1" % k_grid)
        if self.sweep_kind not in SWEEPS:
            raise ConfigError("unknown sweep kind %r" % self.sweep_kind)
        for kind, (name, identity) in SWEEPS.items():
            grid = list(getattr(self, name))
            for f in grid:
                _manipulation(kind, f)
            # np.isclose(f, identity) with its default tolerances
            if not any(abs(f - identity) <= 1e-08 + 1e-05 * identity for f in grid):
                raise ConfigError("%s %s must contain the identity factor %g"
                                  % (name, grid, identity))
            if len(set(grid)) < len(grid):
                raise ConfigError("%s %s repeats a factor" % (name, grid))
        for name in ("k_grid", "stretch_grid", "pitch_grid"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def sweep_grid(self):
        return getattr(self, SWEEPS[self.sweep_kind][0])


def manipulation_sweep(mels, params, metrics: MetricsConfig, window_frames):
    """{factor: [per-track cosine distance]} between track-average
    embeddings of modified and unmodified tracks, over metrics.sweep_grid
    in order. `mels` is any iterable of MelSpectrograms, walked once: each
    track is embedded, then each of its modified versions.

    kind "time_stretch": factors are stretch ratios; "pitch_shift":
    factors are semitone offsets.
    """
    grid = metrics.sweep_grid
    manipulations = [_manipulation(metrics.sweep_kind, f) for f in grid]
    distances = {f: [] for f in grid}
    for mel in mels:
        base = embed_track(mel, params, window_frames)
        for f, (modify, p) in zip(grid, manipulations):
            emb = embed_track(modify(mel, p), params, window_frames)
            distances[f].append(cosine_distance(base, emb))
    return distances


# ---------------------------------------------------------------------------
# neighborhood metrics

def _labels(emb_set, records, name):
    """Record attribute `name` per set member, in set order; None for
    members without a record."""
    by_id = {r.track_id: getattr(r, name) for r in records}
    return [by_id.get(tid) for tid in emb_set.ids]


def _tag_matrix(emb_set, records):
    """(N, T) boolean tag incidence over the tags the set's members carry."""
    tags = [set(t or ()) for t in _labels(emb_set, records, "tags")]
    vocab = sorted(set().union(*tags))
    return np.array([[t in member for t in vocab] for member in tags], dtype=bool)


def tempo_rmms(emb_set: EmbeddingSet, records, k):
    """Mean over seeds of sqrt(mean_j min_o (o*bpm_seed - bpm_j)^2),
    octaves o applied to the seed's tempo."""
    hood = emb_set.neighbors(k)
    bpm = np.array([np.nan if b is None else b
                    for b in _labels(emb_set, records, "bpm")], dtype=float)
    nb_bpm = bpm[hood]
    labelled = ~np.isnan(nb_bpm)
    sq = np.min((np.multiply.outer(bpm, TEMPO_OCTAVES)[:, None, :]
                 - nb_bpm[:, :, None]) ** 2, axis=2)
    count = labelled.sum(axis=1)
    seeds = ~np.isnan(bpm) & (count > 0)
    if not seeds.any():
        raise DataError("no seeds with tempo labels")
    per_seed = np.sqrt(np.where(labelled, sq, 0.0).sum(axis=1)[seeds] / count[seeds])
    return float(np.mean(per_seed))


def key_precision(emb_set: EmbeddingSet, records, k):
    """Mean over seeds of the fraction of k neighbors sharing the seed's
    key label."""
    hood = emb_set.neighbors(k)
    codes = {}
    key = np.array([-1 if label is None else codes.setdefault(label, len(codes))
                    for label in _labels(emb_set, records, "key_label")])
    seeds = key >= 0
    if not seeds.any():
        raise DataError("no seeds with key labels")
    hits = (key[hood] == key[:, None]).sum(axis=1)
    return float(np.mean(hits[seeds] / k))


def tag_precision(emb_set: EmbeddingSet, records, k):
    """Mean over seeds of (retrieved neighbor tags that the seed also
    carries) / (all retrieved neighbor tags)."""
    hood = emb_set.neighbors(k)
    carries = _tag_matrix(emb_set, records)
    seeds = carries.any(axis=1)
    if not seeds.any():
        raise DataError("no seeds with tags")
    retrieved = carries.sum(axis=1)[hood].sum(axis=1)
    matched = (carries[hood] & carries[:, None, :]).sum(axis=(1, 2))
    # a seed whose neighbours carry no tags matched none: it scores 0
    return float(np.mean(matched[seeds] / np.maximum(retrieved[seeds], 1)))


def tag_retrieval(emb_set: EmbeddingSet, records, k):
    """Per tag, the fraction of carrier tracks whose k-neighborhood
    contains another carrier; averaged over tags. Single-carrier tags
    score zero."""
    hood = emb_set.neighbors(k)
    carries = _tag_matrix(emb_set, records)
    if not carries.size:
        raise DataError("no tags present")
    # the table excludes each track itself, so any carrier in its
    # neighbourhood is another carrier
    hits = (carries[hood].any(axis=1) & carries).sum(axis=0)
    return float(np.mean(hits / carries.sum(axis=0)))


def compute_neighborhood_report(emb_set, records, k_grid):
    """{metric: {k: value}} for the four metrics over the k grid. Each
    metric is called by its module-level name, where pipebench's tracer
    wraps it."""
    metrics = (tempo_rmms, key_precision, tag_precision, tag_retrieval)
    return {m.__name__: {k: m(emb_set, records, k) for k in k_grid} for m in metrics}

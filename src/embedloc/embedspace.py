"""Track embedding extraction, persistence, and exact cosine-distance
nearest neighbor search from one cached neighbour order per set."""

import os
from dataclasses import dataclass, field

import numpy as np

from . import tensorio
from .encoder import encode
from .errors import DataError


@dataclass(eq=False)
class EmbeddingSet:
    ids: list
    matrix: np.ndarray          # (N, D), unit rows, aligned with ids; read-only
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.ids) != len(set(self.ids)):
            raise DataError("duplicate track ids in embedding set")
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.ids):
            raise DataError("matrix of shape %s does not hold one row per id"
                            " (%d ids)" % (self.matrix.shape, len(self.ids)))
        # a read-only copy, so the cached neighbour table cannot go stale
        self.matrix = np.array(self.matrix)
        self.matrix.flags.writeable = False
        self._index = {tid: i for i, tid in enumerate(self.ids)}
        self._table = None

    @property
    def dim(self):
        return self.matrix.shape[1]

    def __len__(self):
        return len(self.ids)

    def index(self, track_id):
        if track_id not in self._index:
            raise DataError("unknown track id %r" % track_id)
        return self._index[track_id]

    def vector(self, track_id):
        return self.matrix[self.index(track_id)]

    def neighbor_table(self):
        """The read-only (N, N-1) order from `build_neighbor_table`, built
        on first use."""
        if self._table is None:
            self._table = build_neighbor_table(self.matrix, self.ids)
            self._table.flags.writeable = False
        return self._table

    def neighbors(self, k):
        """(N, k) row indices of every member's k nearest neighbours: a
        view of the neighbour table."""
        if not 0 < k < len(self):
            raise DataError("k=%d must be in [1, set size %d)" % (k, len(self)))
        return self.neighbor_table()[:, :k]

    def save(self, path_prefix):
        """Write the set as a tensor set: header `path_prefix`.json, whose
        one tensor is `path_prefix`.emlt."""
        tensorio.save_params(
            path_prefix + ".json", {os.path.basename(path_prefix): self.matrix},
            {"ids": list(self.ids), "provenance": self.provenance})

    @classmethod
    def load(cls, path_prefix):
        """Read a set written by save (tensorio.load_params); a header
        that does not index exactly one tensor, or has no list of string
        ids for its rows, raises DataError naming the header."""
        header_path = path_prefix + ".json"
        # float64, as built: a float32 matrix would give another neighbour table
        tensors, header = tensorio.load_params(header_path)
        if len(tensors) != 1:
            raise DataError("%s indexes %d tensors, not one" % (header_path, len(tensors)))
        ids = header.get("ids")
        if not (isinstance(ids, list) and all(isinstance(t, str) for t in ids)):
            raise DataError("%s has no list of string track ids" % header_path)
        try:
            return cls(ids=ids, matrix=next(iter(tensors.values())),
                       provenance=header.get("provenance", {}))
        except DataError as exc:
            raise DataError("%s: %s" % (header_path, exc)) from exc


def track_windows(mel, window_frames):
    """Consecutive non-overlapping windows over the track."""
    starts = range(0, mel.num_frames - window_frames + 1, window_frames)
    return [mel.values[:, s:s + window_frames] for s in starts]


def embed_track(mel, params, window_frames):
    """Track-average embedding: per-window embeddings averaged then
    re-normalized to unit length."""
    windows = track_windows(mel, window_frames)
    if not windows:
        raise DataError("track %s: %d frames < window of %d"
                        % (mel.source_id, mel.num_frames, window_frames))
    z = encode(params, windows)
    mean = z.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm == 0:
        raise DataError("degenerate zero-mean embedding for %s" % mel.source_id)
    return mean / norm


def build_embedding_set(mels, params, window_frames, provenance=None):
    """Embed an iterable of MelSpectrograms (keyed by source_id)."""
    ids, rows = [], []
    for mel in mels:
        rows.append(embed_track(mel, params, window_frames))
        ids.append(mel.source_id)
    return EmbeddingSet(ids=ids, matrix=np.stack(rows),
                        provenance=provenance or {})


def cosine_distance(a, b):
    return 1.0 - float(np.dot(a, b))


def build_neighbor_table(matrix, ids):
    """Every row's neighbours, nearest first: an (N, N-1) array whose row
    i lists every other row by ascending cosine distance, ties broken by
    ascending id. Equal rows get bit-equal distances because the product
    runs over the distinct rows only. At most two (N, N) arrays are alive
    at once, and none outlives the call.
    """
    unique, inverse = np.unique(matrix, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    # a stable sort over id-ordered columns breaks ties by id
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    dist = (unique @ unique.T)[np.ix_(inverse, inverse[by_id])]
    np.subtract(1.0, dist, out=dist)
    dist[by_id, np.arange(len(ids))] = np.inf   # each row itself sorts last
    order = np.argsort(dist, axis=1, kind="stable")
    del dist
    return by_id[order[:, :-1]]


def knn(emb_set: EmbeddingSet, query_id, k):
    """Exact k nearest neighbors by cosine distance, query excluded;
    ties broken by ascending track id. The order is the set's neighbour
    table; the distances are 1 - dot products of the matrix rows."""
    hood = emb_set.neighbors(k)
    i = emb_set.index(query_id)
    dist = 1.0 - emb_set.matrix[hood[i]] @ emb_set.matrix[i]
    return [(emb_set.ids[j], float(d)) for j, d in zip(hood[i], dist)]

"""Correctness checks for the artifacts of one pipeline round.

Every check is computed apart from the program: it imports nothing from
`embedloc`, reads EMLT tensors and WAV files with its own readers,
recomputes mel spectrograms with its own STFT and HTK filterbank, and
recomputes the neighbourhood metrics by brute force. None compares
against a stored copy of earlier output. A failing check raises
CheckError.
"""

import csv
import hashlib
import json
import math
import os
import struct
import wave

import numpy as np

F32_EPS = float(np.finfo(np.float32).eps)
TEMPO_OCTAVES = (1.0 / 3.0, 0.5, 1.0, 2.0, 3.0)
ACC_TOLERANCE = 0.04
METRIC_TOLERANCE = 1e-12
SWEEP_IDENTITY_TOLERANCE = 1e-9
UNIT_NORM_TOLERANCE = 1e-6


class CheckError(Exception):
    pass


def require(ok, message, *args):
    if not ok:
        raise CheckError(message % args if args else message)


class Layout:
    """Where the CLI writes each artifact of one round."""

    def __init__(self, config):
        self.config = config
        self.corpus = config["paths"]["corpus_dir"]
        self.out = config["paths"]["output_dir"]
        chain = config["augmentation"]["chain"]
        self.artifact_id = "%s-s%d" % ("+".join(chain) if chain else "none",
                                       config["seed"])
        self.features = os.path.join(self.out, "features")
        self.checkpoint = os.path.join(self.out, "checkpoints", self.artifact_id)
        self.embeddings = os.path.join(self.out, "embeddings", self.artifact_id)
        self.neighborhood = os.path.join(self.out, "neighborhood-%s.json" % self.artifact_id)
        self.sweep = os.path.join(self.out, "sweep-%s-%s.json" % (
            config["metrics"]["sweep_kind"], self.artifact_id))
        self.retrieval = os.path.join(self.out, "retrieval-%s.json" % self.artifact_id)
        self.probe = os.path.join(self.out, "probe-%s" % self.artifact_id)
        self.report = os.path.join(self.out, "report.json")


# ---------------------------------------------------------------------------
# independent readers

def read_emlt(path):
    """EMLT: b"EMLT", u16 version 1, u16 dtype 1 (float32), u16 ndim,
    ndim u64 dims, little-endian float32 payload."""
    with open(path, "rb") as fh:
        blob = fh.read()
    require(len(blob) >= 10 and blob[:4] == b"EMLT", "%s: not an EMLT file", path)
    version, dtype, ndim = struct.unpack_from("<HHH", blob, 4)
    require(version == 1 and dtype == 1, "%s: version %d dtype %d", path, version, dtype)
    require(len(blob) >= 10 + 8 * ndim, "%s: header cut short", path)
    dims = struct.unpack_from("<%dQ" % ndim, blob, 10)
    payload = blob[10 + 8 * ndim:]
    require(len(payload) == 4 * math.prod(dims), "%s: payload size %d for dims %s",
            path, len(payload), dims)
    return np.frombuffer(payload, dtype="<f4").reshape(dims)


def read_manifest(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_wav(path):
    with wave.open(path, "rb") as wf:
        require(wf.getnchannels() == 1 and wf.getsampwidth() == 2,
                "%s: not mono 16-bit", path)
        rate = wf.getframerate()
        raw = wf.readframes(wf.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0, rate


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# reference mel front end: Hann-windowed left-aligned frames, |DFT|,
# unit-peak triangles uniformly spaced on the HTK mel scale

def htk_filterbank(rate, dft_size, bands):
    top = 2595.0 * math.log10(1.0 + (rate / 2.0) / 700.0)
    points = [700.0 * (10.0 ** (top * i / (bands + 1) / 2595.0) - 1.0)
              for i in range(bands + 2)]
    freqs = np.arange(dft_size // 2 + 1) * rate / dft_size
    weights = np.zeros((bands, len(freqs)))
    for u in range(bands):
        lo, mid, hi = points[u], points[u + 1], points[u + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        weights[u] = np.maximum(0.0, np.minimum(up, down))
    return weights


def reference_mel(pcm, mel_cfg):
    n, hop, dft = mel_cfg["window_length"], mel_cfg["hop"], mel_cfg["dft_size"]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))
    count = (len(pcm) - n) // hop + 1
    frames = np.stack([pcm[i * hop:i * hop + n] * window for i in range(count)])
    magnitude = np.abs(np.fft.rfft(frames, n=dft, axis=1)).T
    weights = htk_filterbank(mel_cfg["sample_rate_hz"], dft, mel_cfg["num_bands"])
    return np.log10(np.maximum(mel_cfg["log_floor"], weights @ magnitude))


# ---------------------------------------------------------------------------
# brute-force neighbourhoods and metrics

def neighbour_orders(matrix, ids):
    """For each row, every other row ordered by cosine distance, ties by id."""
    dist = 1.0 - matrix @ matrix.T
    return [sorted((j for j in range(len(ids)) if j != i),
                   key=lambda j: (dist[i, j], ids[j]))
            for i in range(len(ids))]


def brute_force_metrics(matrix, ids, records, k_grid):
    """{k: {metric: value}} for the four neighbourhood metrics."""
    orders = neighbour_orders(matrix, ids)
    by_id = {r["track_id"]: r for r in records}
    bpm = [by_id[t]["bpm"] for t in ids]
    key = [by_id[t]["key_label"] for t in ids]
    tags = [set(by_id[t]["tags"]) for t in ids]
    out = {}
    for k in k_grid:
        hoods = [order[:k] for order in orders]
        rmms = np.mean([math.sqrt(np.mean([min((o * bpm[i] - bpm[j]) ** 2
                                               for o in TEMPO_OCTAVES)
                                           for j in hoods[i]]))
                        for i in range(len(ids))])
        key_prec = np.mean([sum(key[j] == key[i] for j in hoods[i]) / k
                            for i in range(len(ids))])
        tag_prec = []
        for i in range(len(ids)):
            if not tags[i]:
                continue
            pool = [t for j in hoods[i] for t in tags[j]]
            tag_prec.append(sum(t in tags[i] for t in pool) / len(pool) if pool else 0.0)
        hood_sets = [set(h) for h in hoods]
        retrieval = []
        for tag in sorted(set().union(*tags)):
            members = {i for i in range(len(ids)) if tag in tags[i]}
            retrieval.append(np.mean([bool(hood_sets[i] & (members - {i}))
                                      for i in sorted(members)]))
        out[k] = {"tempo_rmms": float(rmms), "key_precision": float(key_prec),
                  "tag_precision": float(np.mean(tag_prec)),
                  "tag_retrieval": float(np.mean(retrieval))}
    return out


def _embedding_inputs(layout):
    header = read_json(layout.embeddings + ".json")
    matrix = read_emlt(layout.embeddings + ".emlt").astype(np.float64)
    records = read_manifest(os.path.join(layout.features, "manifest.jsonl"))
    return header["ids"], matrix, records


# ---------------------------------------------------------------------------
# one check per subcommand

def check_synth(layout, ctx):
    cfg = layout.config
    records = read_manifest(os.path.join(layout.corpus, "manifest.jsonl"))
    require(len(records) == cfg["corpus"]["num_tracks"], "manifest has %d tracks, want %d",
            len(records), cfg["corpus"]["num_tracks"])
    rate = cfg["mel"]["sample_rate_hz"]
    want = int(round(cfg["corpus"]["duration_s"] * rate))
    for rec in records:
        pcm, got_rate = read_wav(os.path.join(layout.corpus, rec["feature_path"]))
        require(got_rate == rate and len(pcm) == want, "%s: %d samples at %d Hz, want %d at %d",
                rec["track_id"], len(pcm), got_rate, want, rate)
        require(60 <= rec["bpm"] <= 180, "%s: bpm %s outside the synth grid",
                rec["track_id"], rec["bpm"])


def check_extract(layout, ctx):
    """Recompute the mel of a few tracks from their WAVs."""
    records = read_manifest(os.path.join(layout.features, "manifest.jsonl"))
    require(len(records) == layout.config["corpus"]["num_tracks"],
            "feature manifest has %d tracks", len(records))
    mel_cfg = layout.config["mel"]
    for index in ctx["mel_sample"]:
        rec = records[index]
        pcm, _ = read_wav(os.path.join(layout.corpus, rec["track_id"] + ".wav"))
        ref = reference_mel(pcm, mel_cfg)
        got = read_emlt(os.path.join(layout.features, rec["feature_path"])).astype(np.float64)
        require(got.shape == ref.shape, "%s: mel shape %s, reference %s",
                rec["track_id"], got.shape, ref.shape)
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        require(float(err.max()) <= 2.0 * F32_EPS,
                "%s: mel differs from reference by %.3g (relative)", rec["track_id"],
                float(err.max()))


def ntxent_bounds(pairs, temperature):
    """Bounds on the mean NT-Xent loss of 2B unit vectors at temperature t.

    Per anchor the loss is log(1 + sum over the 2B-2 negatives of
    exp((s_neg - s_pos) / t)), with cosine similarities in [-1, 1]: at
    least log(1 + (2B-2) e^(-2/t)) and at most 2/t + log(2B - 1)."""
    n = 2 * pairs
    return (math.log1p((n - 2) * math.exp(-2.0 / temperature)),
            2.0 / temperature + math.log(n - 1))


def checkpoint_digest(layout):
    h = hashlib.sha256()
    for name in ("w1", "b1", "w2", "b2"):
        with open(os.path.join(layout.checkpoint, name + ".emlt"), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_train(layout, ctx):
    train = layout.config["train"]
    rows = read_csv(os.path.join(layout.checkpoint, "loss.csv"))
    losses = [float(r["loss"]) for r in rows]
    require([int(r["step"]) for r in rows] == list(range(train["total_steps"])),
            "loss.csv does not list steps 0..%d", train["total_steps"] - 1)
    lo, hi = ntxent_bounds(train["batch_pairs"], train["temperature"])
    for step, loss in enumerate(losses):
        require(math.isfinite(loss) and lo <= loss <= hi,
                "step %d: loss %r outside NT-Xent bounds [%.3g, %.3g]", step, loss, lo, hi)
    tenth = max(1, len(losses) // 10)
    first, last = np.mean(losses[:tenth]), np.mean(losses[-tenth:])
    require(last < first, "loss did not fall: first tenth %.6f, last tenth %.6f", first, last)
    shapes = {name: read_emlt(os.path.join(layout.checkpoint, name + ".emlt")).shape
              for name in ("w1", "b1", "w2", "b2")}
    hidden, dim = train["hidden_units"], train["embedding_dim"]
    require(shapes["w1"][0] == hidden and shapes["b1"] == (hidden,)
            and shapes["w2"] == (dim, hidden) and shapes["b2"] == (dim,),
            "checkpoint tensor shapes %s", shapes)
    digest = checkpoint_digest(layout)
    if ctx.get("checkpoint_digest") is None:
        ctx["checkpoint_digest"] = digest
    require(digest == ctx["checkpoint_digest"],
            "checkpoint tensors differ from the first round of this seed")


def check_embed(layout, ctx):
    ids, matrix, records = _embedding_inputs(layout)
    require(ids == [r["track_id"] for r in records], "embedding ids differ from the manifest")
    require(matrix.shape == (len(ids), layout.config["train"]["embedding_dim"]),
            "embedding matrix shape %s", matrix.shape)
    err = float(np.max(np.abs(np.linalg.norm(matrix, axis=1) - 1.0)))
    require(err <= UNIT_NORM_TOLERANCE, "embedding row norms off unit by %.3g", err)


def check_neighborhood(layout, ctx):
    ids, matrix, records = _embedding_inputs(layout)
    report = read_json(layout.neighborhood)
    k_grid = layout.config["metrics"]["k_grid"]
    require(report["k_grid"] == k_grid, "k grid %s, want %s", report["k_grid"], k_grid)
    for k, ref in brute_force_metrics(matrix, ids, records, k_grid).items():
        for metric, want in ref.items():
            got = report[metric][str(k)]
            require(abs(got - want) <= METRIC_TOLERANCE,
                    "%s at k=%d: %.17g, brute force %.17g", metric, k, got, want)


def check_sweep(layout, ctx):
    metrics = layout.config["metrics"]
    kind = metrics["sweep_kind"]
    grid = metrics["stretch_grid"] if kind == "time_stretch" else metrics["pitch_grid"]
    identity = 1.0 if kind == "time_stretch" else 0.0
    sweep = read_json(layout.sweep)
    require([r["factor"] for r in sweep["rows"]] == grid, "sweep factors differ from the grid")
    for row in sweep["rows"]:
        d = row["distances"]
        require(len(d) == ctx["num_test"], "factor %s: %d distances, want %d",
                row["factor"], len(d), ctx["num_test"])
        require(all(math.isfinite(x) and -1e-12 <= x <= 2.0 for x in d),
                "factor %s: cosine distance outside [0, 2]", row["factor"])
        require(abs(row["mean"] - float(np.mean(d))) <= METRIC_TOLERANCE,
                "factor %s: mean does not match its distances", row["factor"])
        if row["factor"] == identity:
            require(abs(row["mean"]) <= SWEEP_IDENTITY_TOLERANCE,
                    "identity factor has mean distance %.3g", row["mean"])


def check_retrieval(layout, ctx):
    ids, matrix, records = _embedding_inputs(layout)
    rows = read_json(layout.retrieval)["rows"]
    require([r["k"] for r in rows] == layout.config["metrics"]["k_grid"],
            "retrieval rows differ from the k grid")
    refs = brute_force_metrics(matrix, ids, records, [r["k"] for r in rows])
    for row in rows:
        ref = refs[row["k"]]
        for metric in ("tag_precision", "tag_retrieval"):
            require(abs(row[metric] - ref[metric]) <= METRIC_TOLERANCE,
                    "%s at k=%d: %.17g, brute force %.17g", metric, row["k"],
                    row[metric], ref[metric])


def check_probe(layout, ctx):
    rows = read_csv(os.path.join(layout.probe, "eval.csv"))
    summary = read_json(os.path.join(layout.probe, "summary.json"))
    records = read_manifest(os.path.join(layout.features, "manifest.jsonl"))
    test = {r["track_id"]: r["bpm"] for r in records if r["split"] == "test"}
    require(sorted(r["track_id"] for r in rows) == sorted(test),
            "eval.csv does not cover exactly the test tracks")
    hit1, hit2 = [], []
    for row in rows:
        est, truth = float(row["estimate"]), float(row["truth"])
        require(truth == test[row["track_id"]], "%s: truth %s differs from the manifest",
                row["track_id"], truth)
        hit1.append(abs(est - truth) / truth <= ACC_TOLERANCE)
        hit2.append(any(abs(est - o * truth) / (o * truth) <= ACC_TOLERANCE
                        for o in TEMPO_OCTAVES))
        require(int(row["acc1_hit"]) == hit1[-1] and int(row["acc2_hit"]) == hit2[-1],
                "%s: hit columns disagree with the estimate", row["track_id"])
    a1, a2 = float(np.mean(hit1)), float(np.mean(hit2))
    require(abs(summary["acc1"] - a1) <= METRIC_TOLERANCE
            and abs(summary["acc2"] - a2) <= METRIC_TOLERANCE,
            "summary acc1/acc2 %s/%s, eval.csv gives %s/%s",
            summary["acc1"], summary["acc2"], a1, a2)
    require(0.0 <= a1 <= a2 <= 1.0, "acc1 %s, acc2 %s break 0 <= acc1 <= acc2 <= 1", a1, a2)
    require(summary["num_test_tracks"] == len(rows), "summary counts %d test tracks",
            summary["num_test_tracks"])


def check_report(layout, ctx):
    report = read_json(layout.report)
    want = {name: read_json(os.path.join(layout.out, name))
            for name in sorted(os.listdir(layout.out))
            if name.endswith(".json") and name != "report.json"}
    require(len(want) == 3, "expected 3 top-level JSON artifacts, found %s", sorted(want))
    require(report["artifacts"] == want, "report artifacts differ from the files they merge")


CHECKS = {
    "synth": check_synth,
    "extract": check_extract,
    "train": check_train,
    "embed": check_embed,
    "neighborhood": check_neighborhood,
    "sweep": check_sweep,
    "retrieval": check_retrieval,
    "probe": check_probe,
    "report": check_report,
}

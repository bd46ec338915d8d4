"""Acceptance checks: one test per acceptance criterion, each emitting a
single PASS/FAIL line. Criteria 8 and 9 share session-scoped trained
encoders (3 seeds x chains {none, TS, PS}); expect a few minutes of CPU.
"""

import sys

import mpmath
import numpy as np
import pytest

from embedloc import (augment, corpus, embedspace, encoder, locality, melfront,
                      probe)
from embedloc.augment import (AugmentationSpec, EqParams, PitchShiftParams,
                              RrcParams, TimeStretchParams)
from embedloc.embedspace import EmbeddingSet, build_embedding_set
from embedloc.encoder import TrainConfig
import conftest
from conftest import make_tone_mel
from oracles import estimate_tempo_autocorrelation

CFG = melfront.MelConfig()


def criterion(number, ok, detail):
    line = "[criterion %2d] %s: %s" % (number, "PASS" if ok else "FAIL", detail)
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def unit_rows(arr):
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# 1. augmentation identities

def test_criterion_01_augmentation_identities():
    rng = np.random.default_rng(100)
    x = melfront.MelSpectrogram(
        values=rng.uniform(-4, 1, size=(CFG.num_bands, 450)),
        config=CFG, source_id="id")
    errs = [
        np.max(np.abs(augment.time_stretch(
            x, TimeStretchParams(tau=1.0), out_frames=450).values - x.values)),
        np.max(np.abs(augment.pitch_shift(
            x, PitchShiftParams(mu=1.0)).values - x.values)),
        np.max(np.abs(augment.equalize(
            x, EqParams(mode="none")).values - x.values)),
        np.max(np.abs(augment.random_resized_crop(
            x, RrcParams(time_scale=1.0, freq_scale=1.0)).values - x.values)),
    ]
    criterion(1, max(errs) < 1e-6,
              "identity max abs errors TS/PS/EQ/RRC = %s" %
              ["%.2e" % e for e in errs])


# ---------------------------------------------------------------------------
# 2. warp formula vs high-precision oracle

def test_criterion_02_warp_high_precision_grid():
    rng = np.random.default_rng(101)
    us = rng.uniform(0.0, 96.0, size=100)
    mus = rng.uniform(0.749, 1.335, size=100)
    worst = 0.0
    with mpmath.workdps(50):
        s = 96 / mpmath.log10(1 + mpmath.mpf(16000) / 700)
        for u, mu in zip(us, mus):
            ref = s * mpmath.log10(1 + mpmath.mpf(float(mu))
                                   * (mpmath.mpf(10) ** (mpmath.mpf(float(u)) / s) - 1))
            got = augment.warp_band_position(u, mu, 96, 16000)
            if ref != 0:
                worst = max(worst, abs((got - float(ref)) / float(ref)))
    criterion(2, worst < 1e-9,
              "max relative error vs 50-digit oracle over 100-point grid = %.3e" % worst)


# ---------------------------------------------------------------------------
# 3. EQ additivity and corner offset

def test_criterion_03_eq_additivity():
    rng = np.random.default_rng(102)
    fb = melfront.build_filterbank(CFG)
    worst_const = worst_indep = 0.0
    for _ in range(100):
        mode = ("lowpass", "highpass")[int(rng.integers(0, 2))]
        corner = (float(rng.uniform(2200, 4000)) if mode == "lowpass"
                  else float(rng.uniform(200, 1200)))
        p = EqParams(mode=mode, corner_hz=corner)
        x = melfront.MelSpectrogram(
            values=rng.uniform(-5, 1, size=(CFG.num_bands, 50)),
            config=CFG, source_id="a")
        y = melfront.MelSpectrogram(
            values=rng.uniform(-5, 1, size=(CFG.num_bands, 50)),
            config=CFG, source_id="b")
        dx = augment.equalize(x, p).values - x.values
        dy = augment.equalize(y, p).values - y.values
        worst_const = max(worst_const, float(np.ptp(dx, axis=1).max()))
        worst_indep = max(worst_indep, float(np.max(np.abs(dx - dy))))
    worst_corner = 0.0
    for corner in np.linspace(2300, 3900, 9):
        offs = augment.eq_offsets(CFG, EqParams(mode="lowpass",
                                                corner_hz=float(corner)))
        band = int(np.argmin(np.abs(fb.band_center_hz - corner)))
        worst_corner = max(worst_corner,
                           abs(offs[band] - np.log10(1 / np.sqrt(2))))
    ok = worst_const < 1e-9 and worst_indep < 1e-9 and worst_corner < 0.03
    criterion(3, ok,
              "frame-constancy %.2e, input-independence %.2e, "
              "corner-band offset error %.4f" %
              (worst_const, worst_indep, worst_corner))


# ---------------------------------------------------------------------------
# 4. NT-Xent closed form and gradients

def test_criterion_04_ntxent():
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    loss, _ = encoder.ntxent_loss(z, 1.0)
    closed_err = abs(loss - np.log((np.e + 2.0) / np.e))

    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        b = int(rng.integers(2, 9))
        zb = rng.standard_normal((2 * b, int(rng.integers(3, 10))))
        t = float(rng.uniform(0.05, 1.0))
        _, dz = encoder.ntxent_loss(zb, t)
        eps = 1e-6
        for _ in range(8):
            i = int(rng.integers(0, zb.shape[0]))
            j = int(rng.integers(0, zb.shape[1]))
            zp, zm = zb.copy(), zb.copy()
            zp[i, j] += eps
            zm[i, j] -= eps
            fd = (encoder.ntxent_loss(zp, t)[0]
                  - encoder.ntxent_loss(zm, t)[0]) / (2 * eps)
            worst = max(worst, abs(dz[i, j] - fd) / max(1.0, abs(fd)))
    ok = closed_err < 1e-9 and worst < 1e-5
    criterion(4, ok,
              "closed-form error %.2e, worst finite-difference relative "
              "gradient error %.2e over 20 batches" % (closed_err, worst))


# ---------------------------------------------------------------------------
# 5. metric brute-force oracles

def _brute_knn(es, query, k):
    q = es.vector(query)
    scored = []
    for tid, row in zip(es.ids, es.matrix):
        if tid != query:
            scored.append((1.0 - float(np.dot(row, q)), tid))
    scored.sort()
    return [tid for _, tid in scored[:k]]


def test_criterion_05_metric_oracles():
    rng = np.random.default_rng(104)
    worst = 0.0
    knn_mismatch = 0
    for _ in range(50):
        n = int(rng.integers(6, 120))
        es = EmbeddingSet(
            ids=["t%04d" % i for i in range(n)],
            matrix=unit_rows(rng.standard_normal((n, int(rng.integers(2, 12))))))
        records = [corpus.TrackRecord(
            tid, tid + ".emlt", 20.0,
            bpm=float(rng.integers(60, 181)),
            key_label=corpus.KEY_VOCABULARY[rng.integers(0, 24)],
            tags=tuple(t for t in ("x", "y", "z") if rng.uniform() < 0.5))
            for tid in es.ids]
        k = int(rng.integers(1, min(9, n)))
        hoods = {tid: _brute_knn(es, tid, k) for tid in es.ids}
        knn_mismatch += sum(
            hoods[tid] != [nb for nb, _ in embedspace.knn(es, tid, k)]
            for tid in es.ids)

        bpm = {r.track_id: r.bpm for r in records}
        keys = {r.track_id: r.key_label for r in records}
        tags = {r.track_id: set(r.tags) for r in records}

        per_seed = [np.sqrt(np.mean(
            [min((o * bpm[s] - bpm[nb]) ** 2 for o in (1 / 3, 0.5, 1, 2, 3))
             for nb in hoods[s]])) for s in es.ids]
        worst = max(worst, abs(locality.tempo_rmms(es, records, k)
                               - np.mean(per_seed)))

        ref_key = np.mean([np.mean([keys[nb] == keys[s] for nb in hoods[s]])
                           for s in es.ids])
        worst = max(worst, abs(locality.key_precision(es, records, k) - ref_key))

        per_seed_tp = []
        for s in es.ids:
            if not tags[s]:
                continue
            pool = [t for nb in hoods[s] for t in sorted(tags[nb])]
            per_seed_tp.append(np.mean([t in tags[s] for t in pool])
                               if pool else 0.0)
        if per_seed_tp:
            worst = max(worst, abs(locality.tag_precision(es, records, k)
                                   - np.mean(per_seed_tp)))

        all_tags = sorted({t for ts in tags.values() for t in ts})
        if all_tags:
            per_tag = []
            for t in all_tags:
                members = [tid for tid in es.ids if t in tags[tid]]
                per_tag.append(np.mean(
                    [any(m in hoods[tid] for m in members if m != tid)
                     for tid in members]))
            worst = max(worst, abs(locality.tag_retrieval(es, records, k)
                                   - np.mean(per_tag)))
    ok = knn_mismatch == 0 and worst < 1e-12
    criterion(5, ok,
              "50 instances: %d knn neighborhood mismatches, worst metric "
              "deviation from brute force %.2e" % (knn_mismatch, worst))


# ---------------------------------------------------------------------------
# 6. tempo transport

def _jittered_click_mel(rng, period_frames, frames):
    m = np.arange(frames)
    envelope = np.zeros(frames)
    phase = float(rng.uniform(0, period_frames))
    for center in np.arange(phase, frames, period_frames):
        envelope += np.exp(-0.5 * ((m - center) / 1.2) ** 2)
    gains = rng.uniform(-0.3, 0.3, size=(CFG.num_bands, 1))
    values = -2.0 + gains + 2.0 * envelope
    return melfront.MelSpectrogram(values=values, config=CFG, source_id="c")


def test_criterion_06_tempo_transport():
    rng = np.random.default_rng(105)
    period = 50   # 120 BPM at 100 frames/s
    hits = total = 0
    for i in range(100):
        x = _jittered_click_mel(rng, period, 1200)
        for tau in (0.75, 1.5):
            out = augment.time_stretch(x, TimeStretchParams(tau=tau))
            est = estimate_tempo_autocorrelation(out)
            hits += abs(est - 120.0 * tau) <= 3.0
            total += 1
    criterion(6, hits >= 0.95 * total,
              "stretched tempo within 120*tau +/- 3 BPM in %d/%d cases"
              % (hits, total))


# ---------------------------------------------------------------------------
# 7. pitch transport

def test_criterion_07_pitch_transport():
    hits = total = 0
    for base in (220.0, 330.0, 440.0, 660.0, 880.0):
        mel = make_tone_mel(base, CFG, seconds=1.0)
        for s in range(-5, 6):
            mu = 2.0 ** (s / 12.0)
            shifted = augment.pitch_shift(mel, PitchShiftParams(mu=mu))
            native = make_tone_mel(base * mu, CFG, seconds=1.0)
            got = int(np.argmax(shifted.values.mean(axis=1)))
            want = int(np.argmax(native.values.mean(axis=1)))
            hits += abs(got - want) <= 1
            total += 1
    criterion(7, hits >= 0.95 * total,
              "shifted tone peak within +/-1 band of native tone in %d/%d cases"
              % (hits, total))


# ---------------------------------------------------------------------------
# 8 and 9. directional training reproductions

SEEDS = (0, 1, 2)
CHAINS = {"none": (), "TS": ("TS",), "PS": ("PS",)}
SWEEP_GRID = tuple(2.0 ** (i / 4.0) for i in range(-4, 5))


@pytest.fixture(scope="session")
def trained_models(small_corpus, mel_config):
    records, mels = small_corpus
    window = AugmentationSpec().output_frames(mel_config)
    out = {}
    for seed in SEEDS:
        for name, chain in CHAINS.items():
            spec = AugmentationSpec(chain=chain)
            cfg = TrainConfig(batch_pairs=24, total_steps=800,
                              warmup_steps=40, peak_lr=0.002)
            params, _ = encoder.train(records, mels, spec, cfg, seed=seed)
            emb = build_embedding_set(mels.values(), params, window)
            out[(name, seed)] = (params, emb)
    return records, mels, window, out


@pytest.mark.slow
def test_criterion_08_tempo_locality_direction(trained_models):
    records, _, _, models = trained_models
    wins = []
    for seed in SEEDS:
        rmms_none = locality.tempo_rmms(models[("none", seed)][1], records, 8)
        rmms_ts = locality.tempo_rmms(models[("TS", seed)][1], records, 8)
        wins.append((seed, rmms_none, rmms_ts, rmms_ts > rmms_none))
    n_win = sum(w[3] for w in wins)
    detail = "; ".join("seed %d: rmms@8 none=%.2f TS=%.2f %s"
                       % (s, a, b, "OK" if ok else "X")
                       for s, a, b, ok in wins)
    criterion(8, n_win >= 2,
              "TS-trained tempo RMMS larger in %d/3 seeds (%s)" % (n_win, detail))


@pytest.mark.slow
def test_criterion_09_key_and_sweep_direction(trained_models):
    records, mels, window, models = trained_models
    mel_list = list(mels.values())
    wins = []
    for seed in SEEDS:
        key_none = locality.key_precision(models[("none", seed)][1], records, 8)
        key_ps = locality.key_precision(models[("PS", seed)][1], records, 8)
        metrics = locality.MetricsConfig(stretch_grid=SWEEP_GRID)
        sweep_none = locality.manipulation_sweep(
            mel_list, models[("none", seed)][0], metrics, window)
        sweep_ts = locality.manipulation_sweep(
            mel_list, models[("TS", seed)][0], metrics, window)
        flat = all(np.mean(sweep_ts[f]) <= np.mean(sweep_none[f])
                   for f in SWEEP_GRID if not np.isclose(f, 1.0))
        ok = key_ps < key_none and flat
        wins.append((seed, key_none, key_ps, flat, ok))
    n_win = sum(w[4] for w in wins)
    detail = "; ".join(
        "seed %d: keyP@8 none=%.3f PS=%.3f, TS sweep below none at all "
        "non-identity factors=%s" % (s, a, b, f) for s, a, b, f, _ in wins)
    criterion(9, n_win >= 2,
              "PS lowers key precision and TS flattens stretch sweep in "
              "%d/3 seeds (%s)" % (n_win, detail))


# ---------------------------------------------------------------------------
# 10. probe contract

def test_criterion_10_probe_contract():
    rng = np.random.default_rng(106)
    model = encoder.Mlp.init(4, 8, probe.NUM_CLASSES, rng)
    model.w1[:] = 0.0
    model.b1[:] = 0.0
    model.w2[:] = 0.0
    window = np.hamming(probe.SMOOTHING_TAPS)
    mismatches = 0
    for _ in range(1000):
        scores = rng.standard_normal(probe.NUM_CLASSES)
        model.b2[:] = scores
        got = probe.estimate_tempo(model, np.zeros(4))
        padded = np.concatenate([np.zeros(7), scores, np.zeros(7)])
        smoothed = np.array([np.dot(padded[i:i + 15], window)
                             for i in range(probe.NUM_CLASSES)])
        want = probe.BPM_MIN + int(np.argmax(smoothed))
        mismatches += got != want

    acc_violations = 0
    for _ in range(50):
        n = int(rng.integers(1, 200))
        tru = rng.uniform(40, 250, size=n)
        est = np.round(tru * rng.choice(
            [1.0, 1.03, 0.5, 2.0, 3.0, 1.2], size=n))
        if np.mean(probe.acc2_hits(est, tru)) < np.mean(probe.acc1_hits(est, tru)):
            acc_violations += 1

    # 2-tempo corpus with well-separated embeddings
    centers = unit_rows(rng.standard_normal((2, 16)))
    bpms = (80.0, 140.0)
    ids, rows, records = [], [], []
    for i in range(120):
        c = i % 2
        vec = centers[c] + 0.05 * rng.standard_normal(16)
        ids.append("q%03d" % i)
        rows.append(vec / np.linalg.norm(vec))
        records.append(corpus.TrackRecord(
            ids[-1], ids[-1] + ".emlt", 20.0, bpm=bpms[c],
            split="train" if i < 90 else "test"))
    es = EmbeddingSet(ids=ids, matrix=np.stack(rows))
    cfg = probe.ProbeConfig(batch_size=32, total_steps=400,
                            learning_rate=0.05)
    trained, _ = probe.train_probe(es, records, cfg, seed=0)
    test_ids = [r.track_id for r in records if r.split == "test"]
    bpm = {r.track_id: r.bpm for r in records}
    est = [probe.estimate_tempo(trained, es.vector(t)) for t in test_ids]
    tru = [bpm[t] for t in test_ids]
    a2 = np.mean(probe.acc2_hits(est, tru))
    ok = mismatches == 0 and acc_violations == 0 and a2 >= 0.9
    criterion(10, ok,
              "estimate oracle mismatches %d/1000, acc2<acc1 violations "
              "%d/50, two-tempo probe acc2=%.3f" % (mismatches,
                                                    acc_violations, a2))

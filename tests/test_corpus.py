import json
import os
import subprocess
import sys
import time
import wave

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from embedloc import augment, corpus, encoder, melfront
from embedloc.augment import AugmentationSpec, derive_rng
from embedloc.errors import DataError
import oracles


def test_track_record_validation():
    with pytest.raises(DataError):
        corpus.TrackRecord("t", "t.wav", 10.0, bpm=20.0)
    with pytest.raises(DataError):
        corpus.TrackRecord("t", "t.wav", 10.0, key_label="H:maj")
    with pytest.raises(DataError):
        corpus.TrackRecord("t", "t.wav", 10.0, split="validation")


def test_manifest_roundtrip(tmp_path):
    records = [
        corpus.TrackRecord("a", "a.wav", 16.0, bpm=120.0, key_label="C:maj",
                           tags=("sine", "dense-rhythm"), split="train"),
        corpus.TrackRecord("b", "b.emlt", 20.0, bpm=None, key_label=None,
                           tags=(), split="test"),
    ]
    path = tmp_path / "m.jsonl"
    corpus.write_manifest(path, records)
    back = corpus.read_manifest(path)
    assert [r.to_dict() for r in back] == [r.to_dict() for r in records]


def test_pair_offsets_respect_separation():
    rng = np.random.default_rng(0)
    deltas = []
    for _ in range(10_000):
        a, p = corpus.sample_pair_offsets(30.0, 4.5, rng)
        assert 0.0 <= a <= 25.5 and 0.0 <= p <= 25.5
        deltas.append(abs(a - p))
    assert max(deltas) <= 5.0


def test_pair_offsets_minimum_length_boundary():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, p = corpus.sample_pair_offsets(14.0, 4.5, rng)   # exactly 2*4.5+5
        assert 0.0 <= a <= 9.5 and 0.0 <= p <= 9.5


def test_pair_offsets_too_short():
    with pytest.raises(DataError, match="duration 13.90 s below minimum 14.00 s"):
        corpus.sample_pair_offsets(13.9, 4.5, np.random.default_rng(2))


def test_pair_sampling_determinism():
    cfg = melfront.MelConfig()
    values = np.random.default_rng(3).uniform(-3, 1, size=(cfg.num_bands, 1600))
    mel = melfront.MelSpectrogram(values=values, config=cfg, source_id="t")
    rec = corpus.TrackRecord("t", "t.emlt", 16.0)
    spec = AugmentationSpec()
    a_anchor, a_positive = corpus.sample_pair(rec, mel, spec, derive_rng(9, "pair"))
    b_anchor, b_positive = corpus.sample_pair(rec, mel, spec, derive_rng(9, "pair"))
    # the windows sit at the offsets sample_pair_offsets draws from the rng
    a_off, p_off = corpus.sample_pair_offsets(rec.duration_s, spec.context_seconds,
                                              derive_rng(9, "pair"))
    frames = spec.context_frames(cfg)
    for seg, off in ((a_anchor, a_off), (a_positive, p_off)):
        start = int(round(off * cfg.frames_per_second))
        np.testing.assert_array_equal(seg.values, values[:, start:start + frames])
    np.testing.assert_array_equal(a_anchor.values, b_anchor.values)
    np.testing.assert_array_equal(a_positive.values, b_positive.values)
    assert abs(a_off - p_off) <= 5.0
    assert a_anchor.num_frames == spec.context_frames(cfg)


def test_pair_offsets_past_the_track_clamp_to_its_last_window():
    # a manifest may declare any finite duration; the windows clamp to the
    # spectrogram's last one, however far past it the offsets fall
    cfg = melfront.MelConfig()
    values = np.random.default_rng(3).uniform(-3, 1, size=(cfg.num_bands, 1600))
    mel = melfront.MelSpectrogram(values=values, config=cfg, source_id="t")
    spec = AugmentationSpec()
    frames = spec.context_frames(cfg)
    for duration_s in (20.0, 1e6, 1e308, 1.7e308):
        rec = corpus.TrackRecord("t", "t.emlt", duration_s)
        pair = corpus.sample_pair(rec, mel, spec, derive_rng(9, "pair"))
        if duration_s > 20.0:
            np.testing.assert_array_equal(pair[0].values, values[:, -frames:])
        for seg in pair:
            assert seg.num_frames == frames


def test_corpus_coverage(tmp_path):
    records = corpus.generate_synthetic_corpus(
        str(tmp_path), corpus.CorpusConfig(num_tracks=200, duration_s=2.0), 16000,
        seed=11)
    assert len(records) == 200
    keys = {r.key_label for r in records}
    bpms = {r.bpm for r in records}
    assert keys == set(corpus.KEY_VOCABULARY)
    assert len(bpms) >= 20
    timbres = {t for r in records for t in r.tags if t in corpus.TIMBRE_TAGS}
    assert timbres == set(corpus.TIMBRE_TAGS)
    splits = {r.split for r in records}
    assert splits == {"train", "test"}


def test_labels_recoverable_by_signal_oracles(small_corpus):
    records, mels = small_corpus
    bpm_hits = key_hits = 0
    for rec in records:
        mel = mels[rec.track_id]
        est = oracles.estimate_tempo_autocorrelation(mel)
        bpm_hits += abs(est - rec.bpm) <= 2.0
        pc = oracles.estimate_root_pitch_class(mel)
        key_hits += pc == corpus.PITCH_CLASSES.index(rec.key_label.split(":")[0])
    assert bpm_hits >= 0.95 * len(records)
    assert key_hits >= 0.95 * len(records)


def test_extract_features_roundtrip(tmp_path, mel_config):
    wav_dir = str(tmp_path / "wav")
    feat_dir = str(tmp_path / "feat")
    records = corpus.generate_synthetic_corpus(
        wav_dir, corpus.CorpusConfig(num_tracks=3, duration_s=2.0),
        mel_config.sample_rate_hz, seed=5)
    out = corpus.extract_features(records, mel_config, wav_dir, feat_dir)
    assert all(r.feature_path.endswith(".emlt") for r in out)
    direct = corpus.load_track_mel(records[0], mel_config, base_dir=wav_dir)
    stored = corpus.load_track_mel(out[0], mel_config, base_dir=feat_dir)
    np.testing.assert_allclose(stored.values, direct.values, atol=1e-5)


@pytest.mark.parametrize("line", [
    '{"track_id": "x"',
    '{"track_id": "x", "feature_path": "x.wav"}',
    '{"feature_path": "x.wav", "duration_s": 16.0}',
    '{"track_id": "x", "duration_s": 16.0}',
    '["x", "x.wav", 16.0]',
    '{"track_id": "x", "feature_path": "x.wav", "duration_s": "long"}',
    '{"track_id": "x", "feature_path": "x.wav", "duration_s": Infinity}',
    '{"track_id": "x", "feature_path": "x.wav", "duration_s": NaN}',
    '{"track_id": "x", "feature_path": "x.wav", "duration_s": 0}',
    '{"track_id": "x", "feature_path": "x.wav", "duration_s": -16.0}',
    '{"track_id": 5, "feature_path": "x.wav", "duration_s": 16.0}',
    '{"track_id": "x", "feature_path": 5, "duration_s": 16.0}',
    '{"track_id": "x", "feature_path": null, "duration_s": 16.0}',
    '{"track_id": "x", "feature_path": "x.wav", "duration_s": 16.0, "tags": [{"a": 1}]}',
    '{"track_id": "x", "feature_path": "x.wav", "duration_s": 16.0, "tags": ["a", 1]}',
    '{"track_id": "x", "feature_path": "x.wav", "duration_s": 16.0, "tags": [null]}',
    '{"track_id": "x", "feature_path": "x.wav", "duration_s": 16.0, "tags": "ab"}',
    '{"track_id": "x", "feature_path": "x.wav", "duration_s": "16"}',
    '{"track_id": "x", "feature_path": "x.wav", "duration_s": true}',
    '{"track_id": "x", "feature_path": "x.wav", "duration_s": null}',
    '{"track_id": "x", "feature_path": "x.wav", "duration_s": [16.0]}',
])
def test_malformed_manifest_line_names_path_and_line(tmp_path, line):
    good = corpus.TrackRecord("a", "a.wav", 16.0)
    path = tmp_path / "m.jsonl"
    corpus.write_manifest(path, [good])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n" + line + "\n")
    with pytest.raises(DataError, match="m.jsonl:3"):
        corpus.read_manifest(path)


def test_track_record_checks_its_fields_as_the_manifest_reader_does():
    for fields in ({"tags": "ab"}, {"tags": ["a", 1]}, {"duration_s": "16"},
                   {"duration_s": True}):
        with pytest.raises(DataError, match="track a: (tags|duration_s)"):
            corpus.TrackRecord(**dict({"track_id": "a", "feature_path": "a.wav",
                                       "duration_s": 1.0}, **fields))
    # an int duration is kept as the float the manifest stores
    assert corpus.TrackRecord("a", "a.wav", 16, tags=["x"]).to_dict() == {
        "track_id": "a", "feature_path": "a.wav", "duration_s": 16.0, "bpm": None,
        "key_label": None, "tags": ("x",), "split": "train"}


def reference_track(bpm, key_label, timbre, duration_s, rate, rng):
    """Reference: the synthesizer with one np.sin over every sample of
    each partial, as it was before the sinusoid bank."""
    n = int(round(duration_s * rate))
    t = np.arange(n) / rate
    pc_name, quality = key_label.split(":")
    pc = corpus.PITCH_CLASSES.index(pc_name)
    root = 523.2511306011972 * 2.0 ** (pc / 12.0)
    third = root * 2.0 ** ((4 if quality == "maj" else 3) / 12.0)
    fifth = root * 2.0 ** (7.0 / 12.0)
    tonal = np.zeros(n)
    partials = [(root, 1.0), (2.0 * root, 0.45), (third, 0.4), (fifth, 0.5)]
    if timbre == "saw-like":
        partials += [(3.0 * root, 0.25), (4.0 * root, 0.18), (5.0 * root, 0.12)]
    for freq, amp in partials:
        if freq < rate / 2.0:
            tonal += amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    clicks = np.zeros(n)
    burst_len = int(0.008 * rate)
    burst = (rng.standard_normal(burst_len)
             * np.exp(-np.arange(burst_len) / (0.002 * rate)))
    for ct in np.arange(0.0, duration_s, 60.0 / bpm):
        start = int(round(ct * rate))
        stop = min(n, start + burst_len)
        clicks[start:stop] += burst[:stop - start]
    if timbre == "noise-perc":
        signal = 0.35 * tonal + 1.0 * clicks
    else:
        signal = 1.0 * tonal + 0.5 * clicks
    peak = np.max(np.abs(signal))
    return 0.5 * signal / peak if peak > 0 else signal


def pcm16(signal):
    """The int16 samples write_pcm_wav stores."""
    return (np.clip(signal, -1.0, 32767.0 / 32768.0) * 32768.0).astype(np.int16)


@pytest.mark.parametrize("timbre", corpus.TIMBRE_TAGS)
@pytest.mark.parametrize("rate", [8000, 16000, 22050, 1000])
@pytest.mark.parametrize("n", [1, 511, 512, 513, "16 s"])
@pytest.mark.parametrize("key", ["C:maj", "B:min"])
def test_synthesize_track_matches_the_per_sample_reference(n, rate, timbre, key):
    # at 8000 Hz the saw-like B's fifth harmonic (4939 Hz) is dropped, and
    # with it that partial's phase draw; at 1000 Hz every partial lies
    # above Nyquist, so the bank has none and the track is clicks only
    n = 16 * rate if n == "16 s" else n
    got_rng, want_rng = derive_rng(5, "track", n), derive_rng(5, "track", n)
    got = corpus.synthesize_track(97, key, timbre, n / rate, rate, got_rng)
    want = reference_track(97, key, timbre, n / rate, rate, want_rng)
    assert got.shape == want.shape == (n,)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    lsb = np.abs(pcm16(got).astype(int) - pcm16(want))
    assert lsb.max() <= 1
    # the same draws, in the same order
    assert got_rng.uniform() == want_rng.uniform()


def test_wav_writer_stores_the_reference_samples_and_leaves_its_input(tmp_path):
    pcm = np.concatenate([[-2.0, -1.0, 32767.0 / 32768.0, 1.0, 1.5, 0.0, -0.0],
                          np.random.default_rng(4).uniform(-1.2, 1.2, 1000)])
    kept = pcm.copy()
    pcm.flags.writeable = False
    melfront.write_pcm_wav(str(tmp_path / "a.wav"), pcm, 16000)
    np.testing.assert_array_equal(pcm, kept)
    with wave.open(str(tmp_path / "a.wav"), "rb") as wf:
        assert (wf.getnchannels(), wf.getsampwidth(), wf.getframerate()) == (1, 2, 16000)
        stored = wf.readframes(wf.getnframes())
    assert stored == pcm16(kept).astype("<i2").tobytes()
    assert list(np.frombuffer(stored, "<i2")[:5]) == [-32768, -32768, 32767, 32767, 32767]


@pytest.mark.parametrize("timbre,rate,mel", [
    ("sine", 16000, False), ("saw-like", 16000, False),
    ("sine", 1000, False),   # no partial below Nyquist
    ("sine", 16000, True),   # compute_mel's band groups at the default config
])
def test_blas_products_stay_within_the_one_thread_bound(monkeypatch, timbre, rate,
                                                        mel):
    # OpenBLAS splits a larger product across its own threads, inside each
    # of map_tracks' workers; raising SINUSOID_BLOCK, BAND_GROUP or
    # STFT_BLOCK_FRAMES past the bound fails here
    products, real_matmul = [], np.matmul

    def spy(a, b, **kwargs):
        products.append((a.shape[0], a.shape[1], b.shape[1]))
        return real_matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    pcm = corpus.synthesize_track(97, "C:maj", timbre, 16.0, rate, derive_rng(0, "b"))
    # the bank's runs cover every block of the track once
    assert sum(m for m, _, _ in products) == -(-16 * rate // corpus.SINUSOID_BLOCK)
    if mel:
        products.clear()
        melfront.compute_mel(pcm, melfront.MelConfig())
    assert products
    assert max(m * k * n for m, k, n in products) <= melfront.BLAS_ONE_THREAD_MACS


def test_fixture_corpus_wavs_equal_the_reference(small_corpus, corpus_dir, tmp_path):
    records, _ = small_corpus
    assert len(records) == 72
    for i, rec in enumerate(records):
        want = reference_track(rec.bpm, rec.key_label, rec.tags[0],
                               rec.duration_s, 16000, derive_rng(7, "track", i))
        melfront.write_pcm_wav(str(tmp_path / "ref.wav"), want, 16000)
        assert ((corpus_dir / "wav" / (rec.track_id + ".wav")).read_bytes()
                == (tmp_path / "ref.wav").read_bytes()), rec.track_id


def run_cli_with_blas_threads(threads, args):
    """Run the CLI in a child process with OpenBLAS on `threads` threads."""
    package_root = os.path.dirname(os.path.dirname(corpus.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, PYTHONPATH=path)
    subprocess.run([sys.executable, "-m", "embedloc.cli"] + args,
                   env=env, check=True, timeout=300, capture_output=True)


def test_synth_wavs_do_not_depend_on_blas_threads(tmp_path):
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        run_cli_with_blas_threads(threads, [
            "synth", "--set", 'paths.corpus_dir="%s"' % out,
            "--set", "corpus.num_tracks=6", "--set", "corpus.duration_s=4"])
        runs.append(dir_bytes(out))
    assert len(runs[0]) == 7   # 6 tracks and the manifest
    assert runs[1] == runs[0]


def test_extract_features_do_not_depend_on_blas_threads(tmp_path):
    corpus.generate_synthetic_corpus(
        str(tmp_path / "wav"), corpus.CorpusConfig(num_tracks=6, duration_s=4), 16000,
        seed=3)
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        run_cli_with_blas_threads(threads, [
            "extract", "--set", 'paths.corpus_dir="%s"' % (tmp_path / "wav"),
            "--set", 'paths.output_dir="%s"' % out])
        runs.append(dir_bytes(out / "features"))
    assert len(runs[0]) == 7   # 6 .emlt files and the manifest
    assert runs[1] == runs[0]


def serial_corpus(out_dir, num_tracks, seed, duration_s, rate=16000,
                  test_fraction=0.25):
    """Reference: one plain loop over synthesize_track + write_pcm_wav."""
    os.makedirs(out_dir)
    rng = derive_rng(seed, "corpus")
    bpm_grid = np.linspace(60, 180, 25).round().astype(int)
    bpm_order = rng.permutation(len(bpm_grid))
    records = []
    for i in range(num_tracks):
        bpm = int(bpm_grid[bpm_order[i % len(bpm_grid)]])
        key = corpus.KEY_VOCABULARY[i % len(corpus.KEY_VOCABULARY)]
        timbre = corpus.TIMBRE_TAGS[i % len(corpus.TIMBRE_TAGS)]
        track_rng = derive_rng(seed, "track", i)
        pcm = corpus.synthesize_track(bpm, key, timbre, duration_s, rate, track_rng)
        track_id = "synth-%04d" % i
        melfront.write_pcm_wav(os.path.join(out_dir, track_id + ".wav"), pcm, rate)
        split = "test" if track_rng.uniform() < test_fraction else "train"
        records.append(corpus.TrackRecord(
            track_id, track_id + ".wav", duration_s, bpm=float(bpm), key_label=key,
            tags=(timbre, "dense-rhythm" if bpm >= 120 else "sparse-rhythm"),
            split=split))
    corpus.write_manifest(os.path.join(out_dir, "manifest.jsonl"), records)
    return records


def serial_features(records, config, base_dir, out_dir):
    """Reference: one plain loop over load_track_mel + save."""
    os.makedirs(out_dir)
    out = []
    for rec in records:
        corpus.load_track_mel(rec, config, base_dir=base_dir).save(
            os.path.join(out_dir, rec.track_id + ".emlt"))
        out.append(corpus.TrackRecord.from_dict(
            dict(rec.to_dict(), feature_path=rec.track_id + ".emlt")))
    corpus.write_manifest(os.path.join(out_dir, "manifest.jsonl"), out)
    return out


def dir_bytes(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


def test_threaded_synth_and_extract_match_a_serial_loop(tmp_path, mel_config,
                                                        monkeypatch):
    # more worker threads than cores, switching threads as often as possible
    monkeypatch.setattr(corpus, "usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = corpus.generate_synthetic_corpus(
            str(tmp_path / "wav"), corpus.CorpusConfig(num_tracks=12, duration_s=2.5),
            16000, seed=4)
        corpus.extract_features(threaded, mel_config, str(tmp_path / "wav"),
                                str(tmp_path / "feat"))
    finally:
        sys.setswitchinterval(interval)
    serial = serial_corpus(str(tmp_path / "wav-ref"), 12, seed=4, duration_s=2.5)
    serial_features(serial, mel_config, str(tmp_path / "wav-ref"),
                    str(tmp_path / "feat-ref"))
    for got, want in (("wav", "wav-ref"), ("feat", "feat-ref")):
        got, want = dir_bytes(tmp_path / got), dir_bytes(tmp_path / want)
        assert sorted(got) == sorted(want)
        assert len(got) == 13   # 12 tracks and the manifest
        for name in want:
            assert got[name] == want[name], name


def test_map_tracks_keeps_order_and_raises_the_first_failure_in_order():
    ended = []

    def fn(i):
        if i == 2:
            time.sleep(0.2)          # fails after item 5 has failed
            raise KeyError("item 2")
        if i == 5:
            raise ValueError("item 5")
        time.sleep(0.02)
        ended.append(i)
        return i * i
    assert corpus.map_tracks(lambda i: i * i, range(20)) == [i * i for i in range(20)]
    assert corpus.map_tracks(fn, []) == []
    with pytest.raises(KeyError, match="item 2"):
        corpus.map_tracks(fn, range(100))
    # items not started when item 2 failed were cancelled, and none is
    # still running once map_tracks has raised
    count = len(ended)
    assert count < 90
    time.sleep(0.1)
    assert len(ended) == count


def test_manifest_write_that_fails_partway_leaves_nothing(tmp_path):
    good = corpus.TrackRecord("a", "a.wav", 16.0)
    bad = corpus.TrackRecord("b", "b.wav", 16.0)
    bad.tags = (object(),)   # after the record's checks, so only json.dumps fails
    path = tmp_path / "manifest.jsonl"
    with pytest.raises(TypeError):
        corpus.write_manifest(path, [good, good, bad, good])
    assert os.listdir(tmp_path) == []
    corpus.write_manifest(path, [good])
    with pytest.raises(TypeError):
        corpus.write_manifest(path, [good, bad])
    assert os.listdir(tmp_path) == ["manifest.jsonl"]
    assert [r.to_dict() for r in corpus.read_manifest(path)] == [good.to_dict()]


def test_pair_segments_and_crops_are_read_only_windows_and_train_writes_no_track():
    cfg = melfront.MelConfig()
    rng = np.random.default_rng(8)
    records = [corpus.TrackRecord("t%d" % i, "t%d.emlt" % i, 16.0) for i in range(3)]
    mels = {r.track_id: melfront.MelSpectrogram(
        values=rng.uniform(-3, 1, size=(cfg.num_bands, 1600)), config=cfg,
        source_id=r.track_id) for r in records}
    kept = {tid: mel.values.copy() for tid, mel in mels.items()}
    mel = mels["t0"]
    anchor, positive = corpus.sample_pair(records[0], mel, AugmentationSpec(),
                                          derive_rng(9, "pair"))
    crop = augment.center_crop(anchor, 300)
    for seg in (anchor, positive, crop):
        assert np.shares_memory(seg.values, mel.values)
        assert not seg.values.flags.writeable
        with pytest.raises(ValueError):
            seg.values[0, 0] = 0.0
    for chain in ((), ("TS", "PS", "EQ")):
        encoder.train(records, mels, AugmentationSpec(chain=chain),
                      encoder.TrainConfig(batch_pairs=4, total_steps=2,
                                          warmup_steps=1), seed=0)
    for tid, mel in mels.items():
        assert mel.values.flags.writeable
        np.testing.assert_array_equal(mel.values, kept[tid])


def test_extract_with_an_unreadable_wav_exits_3_and_writes_no_manifest(
        tmp_path, capsys):
    from embedloc import cli, tensorio
    sets = ["--set", "paths.corpus_dir=%s" % (tmp_path / "corpus"),
            "--set", "paths.output_dir=%s" % (tmp_path / "out"),
            "--set", "corpus.num_tracks=8", "--set", "corpus.duration_s=2.0"]
    assert cli.main(["synth"] + sets) == 0
    (tmp_path / "corpus" / "synth-0002.wav").write_bytes(b"RIFF\x00\x00")
    capsys.readouterr()
    assert cli.main(["extract"] + sets) == 3
    err = capsys.readouterr().err
    assert "synth-0002.wav" in err and "Traceback" not in err
    features = tmp_path / "out" / "features"
    names = os.listdir(features)
    assert "manifest.jsonl" not in names
    assert all(name.endswith(".emlt") for name in names)
    assert "synth-0002.emlt" not in names
    for name in names:   # whatever was written is complete
        assert tensorio.read_tensor(features / name).shape[0] == 96



# ---------------------------------------------------------------------------
# fuzzing read_manifest: any line yields a record or a DataError

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)
record_fields = st.sampled_from(["track_id", "feature_path", "duration_s", "bpm",
                                 "key_label", "tags", "split"])
record_like = st.dictionaries(record_fields | st.text(max_size=4),
                              json_values | st.sampled_from(
                                  ["C:maj", "train", "test", 120.0, 16.0]),
                              max_size=8).map(json.dumps)
manifest_lines = st.lists(
    record_like | st.text(max_size=40)
    | st.binary(max_size=40).map(lambda b: b.decode("latin-1")),
    min_size=1, max_size=4)


@pytest.mark.parametrize("data", [b"", b"\n", b"\n  \n\n"],
                         ids=["empty", "one-blank-line", "blank-lines"])
def test_manifest_that_lists_no_tracks_raises_data_error(tmp_path, data):
    path = tmp_path / "m.jsonl"
    path.write_bytes(data)
    with pytest.raises(DataError, match="m.jsonl: lists no tracks"):
        corpus.read_manifest(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=manifest_lines, raw=st.binary(max_size=24))
def test_fuzz_read_manifest_raises_only_data_error(tmp_path, lines, raw):
    path = tmp_path / "m.jsonl"
    for data in ("\n".join(lines).encode("utf-8", "surrogatepass"), raw):
        path.write_bytes(data)
        try:
            records = corpus.read_manifest(path)
        except DataError as exc:
            assert "m.jsonl:" in str(exc)
        else:
            assert all(isinstance(r, corpus.TrackRecord) for r in records)


@pytest.mark.parametrize("data", [
    b"\xff\xfe not utf-8\n",
    b"[" * 100000 + b"\n",
    b'{"track_id": "x", "feature_path": "x.emlt", "duration_s": 1' + b"0" * 400 + b"}\n",
], ids=["not-utf8", "deep-nesting", "float-overflow"])
def test_manifest_lines_that_escaped_as_other_errors(tmp_path, data):
    path = tmp_path / "m.jsonl"
    path.write_bytes(b'{"track_id": "a", "feature_path": "a.wav", "duration_s": 16.0}\n'
                     + data)
    with pytest.raises(DataError, match="m.jsonl:2"):
        corpus.read_manifest(path)

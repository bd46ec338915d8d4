import numpy as np
import pytest

from embedloc import analysis, corpus, melfront
from embedloc.augment import AugmentationSpec, derive_rng
from embedloc.errors import DataError, TrackTooShort


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
    with pytest.raises(TrackTooShort):
        corpus.sample_pair_offsets(13.9, 4.5, np.random.default_rng(2))


def test_pair_sampling_determinism():
    cfg = melfront.MelConfig()
    values = np.random.default_rng(3).uniform(-3, 1, size=(cfg.num_bands, 1600))
    mel = melfront.MelSpectrogram(values=values, config=cfg, source_id="t")
    rec = corpus.TrackRecord("t", "t.emlt", 16.0)
    spec = AugmentationSpec()
    a = corpus.sample_pair(rec, mel, spec, derive_rng(9, "pair"))
    b = corpus.sample_pair(rec, mel, spec, derive_rng(9, "pair"))
    assert a.anchor_offset_s == b.anchor_offset_s
    np.testing.assert_array_equal(a.positive.values, b.positive.values)
    assert abs(a.anchor_offset_s - a.positive_offset_s) <= 5.0
    assert a.anchor.num_frames == spec.context_frames(cfg)


def test_corpus_coverage(tmp_path):
    records = corpus.generate_synthetic_corpus(str(tmp_path), 200, seed=11,
                                               duration_s=2.0)
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
        est = analysis.estimate_tempo_autocorrelation(mel)
        bpm_hits += abs(est - rec.bpm) <= 2.0
        pc = analysis.estimate_root_pitch_class(mel)
        key_hits += pc == analysis.PITCH_CLASSES.index(rec.key_label.split(":")[0])
    assert bpm_hits >= 0.95 * len(records)
    assert key_hits >= 0.95 * len(records)


def test_extract_features_roundtrip(tmp_path, mel_config):
    wav_dir = str(tmp_path / "wav")
    feat_dir = str(tmp_path / "feat")
    records = corpus.generate_synthetic_corpus(wav_dir, 3, seed=5,
                                               duration_s=2.0)
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
])
def test_malformed_manifest_line_names_path_and_line(tmp_path, line):
    good = corpus.TrackRecord("a", "a.wav", 16.0)
    path = tmp_path / "m.jsonl"
    corpus.write_manifest(path, [good])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n" + line + "\n")
    with pytest.raises(DataError, match="m.jsonl:3"):
        corpus.read_manifest(path)

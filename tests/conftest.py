import numpy as np
import pytest

from embedloc import corpus, melfront


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    """Show one line per acceptance criterion in the final report."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def mel_config():
    return melfront.MelConfig()


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus")


@pytest.fixture(scope="session")
def small_corpus(corpus_dir, mel_config):
    """A 72-track synthetic corpus with extracted mel features, shared by
    the slower tests. Returns (records, {track_id: MelSpectrogram})."""
    wav_dir = str(corpus_dir / "wav")
    feat_dir = str(corpus_dir / "feat")
    records = corpus.generate_synthetic_corpus(
        wav_dir, corpus.CorpusConfig(num_tracks=72), mel_config.sample_rate_hz, seed=7)
    records = corpus.extract_features(records, mel_config, wav_dir, feat_dir)
    mels = {r.track_id: corpus.load_track_mel(r, mel_config, base_dir=feat_dir)
            for r in records}
    return records, mels


def make_tone_mel(freq_hz, config, seconds=3.5, amplitude=0.5):
    t = np.arange(int(seconds * config.sample_rate_hz)) / config.sample_rate_hz
    return melfront.compute_mel(amplitude * np.sin(2 * np.pi * freq_hz * t), config)


def make_click_mel(period_frames, config, frames=600, height=2.0):
    """Synthetic spectrogram with smooth broadband clicks every
    period_frames. Clicks are Gaussian bumps in the log domain so cubic
    resampling behaves like it does on real (smooth) spectrograms."""
    m = np.arange(frames)
    envelope = np.zeros(frames)
    for center in np.arange(1.0, frames, period_frames):
        envelope += np.exp(-0.5 * ((m - center) / 1.2) ** 2)
    values = np.tile(-2.0 + height * envelope, (config.num_bands, 1))
    return melfront.MelSpectrogram(values=values, config=config,
                                   source_id="click-%d" % period_frames)


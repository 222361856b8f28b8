"""Shared synthetic-signal helpers and corpus fixtures."""

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.signal import lfilter

from echoforge.audio import AudioBuffer, write_wav

FS = 16000


def speech_like(duration: float, fs: int = FS, seed: int = 0,
                rms: float = 0.05, bursts: bool = False) -> np.ndarray:
    """Colored noise with syllabic amplitude modulation; optional pauses."""
    rng = np.random.default_rng(seed)
    n = int(round(duration * fs))
    base = lfilter([1.0], [1.0, -0.9], rng.standard_normal(n))
    t = np.arange(n) / fs
    envelope = 0.4 + 0.6 * np.clip(np.sin(2 * np.pi * 3.1 * t + rng.uniform(0, 6)), 0, None)
    if bursts:
        gate = (np.sin(2 * np.pi * 0.5 * t) > 0).astype(float)
        envelope *= gate
    sig = base * envelope
    level = np.sqrt(np.mean(sig**2))
    return sig * (rms / max(level, 1e-12))


def music_like(duration: float, fs: int = FS, seed: int = 1,
               rms: float = 0.1) -> np.ndarray:
    """Broadband program material with a beat: pinkish noise, 2 Hz pulse."""
    rng = np.random.default_rng(seed)
    n = int(round(duration * fs))
    pink = lfilter([0.04992, -0.09599, 0.05061, -0.00441],
                   [1.0, -2.49496, 2.01727, -0.52219],
                   rng.standard_normal(n))
    t = np.arange(n) / fs
    env = 1.0 + 0.5 * np.sin(2 * np.pi * 2.0 * t)
    sig = pink * env
    level = np.sqrt(np.mean(sig**2))
    return sig * (rms / max(level, 1e-12))


def stationary_noise(duration: float, fs: int = FS, seed: int = 2,
                     rms: float = 0.05) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = int(round(duration * fs))
    sig = lfilter([1.0], [1.0, -0.6], rng.standard_normal(n))
    return sig * (rms / np.sqrt(np.mean(sig**2)))


EDGE_KINDS = ("zero", "dc", "clipped", "noise")
# empty, one sample, frame-boundary lengths, and anything up to 0.75 s
edge_lengths = st.one_of(st.sampled_from([0, 1, 255, 256, 257, 512]),
                         st.integers(0, 3 * FS // 4))


def edge_signal(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros(n)
    if kind == "dc":
        return np.full(n, rng.choice([-1.0, -0.5, 0.5, 1.0]))
    if kind == "clipped":  # full scale, hard-clipped
        return np.clip(4.0 * rng.standard_normal(n), -1.0, 1.0)
    return 0.1 * rng.standard_normal(n)


@pytest.fixture(scope="session")
def corpus_sources(tmp_path_factory):
    """A small on-disk set of speech/music/noise WAVs for corpus tests."""
    root = tmp_path_factory.mktemp("sources")
    paths = {"speech": [], "music": [], "noise": []}
    for i in range(4):
        p = root / f"speech{i}.wav"
        write_wav(p, AudioBuffer(speech_like(2.0, seed=100 + i)))
        paths["speech"].append(str(p))
    for i in range(2):
        p = root / f"music{i}.wav"
        write_wav(p, AudioBuffer(music_like(12.0, seed=200 + i)))
        paths["music"].append(str(p))
    for i in range(2):
        p = root / f"noise{i}.wav"
        write_wav(p, AudioBuffer(stationary_noise(12.0, seed=300 + i)))
        paths["noise"].append(str(p))
    return paths


def make_corpus_spec(paths, **kwargs):
    from echoforge.corpus import CorpusSpec

    defaults = dict(
        speech_files=tuple(paths["speech"]),
        music_files=tuple(paths["music"]),
        noise_files={"babble": tuple(paths["noise"])},
        ser_range_db=(-15.0, -10.0),
        snr_range_db=(0.0, 10.0),
        sigma3=0.01,
        master_seed=42,
    )
    defaults.update(kwargs)
    return CorpusSpec(**defaults)

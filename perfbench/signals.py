"""Seeded synthetic inputs for the benchmark workloads.

Everything here is derived from a numpy Generator, so one workload seed
always yields the same samples. The program under test only ever sees the
resulting AudioBuffers or the WAV files written from them.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.signal import fftconvolve, lfilter

FS = 16000
# Pinking filter: -3 dB/octave over the audio band.
PINK_B = (0.049922035, -0.095993537, 0.050612699, -0.004408786)
PINK_A = (1.0, -2.494956002, 2.017265875, -0.522189400)


def _scale_rms(sig: np.ndarray, rms: float) -> np.ndarray:
    return sig * (rms / max(float(np.sqrt(np.mean(sig**2))), 1e-12))


def speech_like(n: int, rng: np.random.Generator, rms: float = 0.05,
                burst_period_s: float | None = None) -> np.ndarray:
    """Voiced-like excitation through two resonances, syllabic envelope.

    With burst_period_s the talker is silent in the first half of every
    period and active in the second (10 ms ramps at the edges).
    """
    t = np.arange(n) / FS
    f0 = rng.uniform(100.0, 180.0) * (1.0 + 0.05 * np.sin(2 * np.pi * 0.7 * t))
    pulses = np.sign(np.sin(2 * np.pi * np.cumsum(f0) / FS)) + 0.3 * rng.standard_normal(n)
    sig = pulses
    for formant in (rng.uniform(500, 800), rng.uniform(1200, 2200)):
        r = 0.97
        w = 2 * np.pi * formant / FS
        sig = lfilter([1.0 - r], [1.0, -2 * r * np.cos(w), r * r], sig)
    syllable = 0.3 + 0.7 * np.clip(np.sin(2 * np.pi * rng.uniform(3.0, 5.0) * t
                                          + rng.uniform(0, 2 * np.pi)), 0, None)
    sig = sig * syllable
    if burst_period_s is not None:
        phase = (t % burst_period_s) / burst_period_s
        gate = (phase >= 0.5).astype(float)
        ramp = int(0.01 * FS)
        gate = np.convolve(gate, np.ones(ramp) / ramp, mode="same")
        sig = sig * gate
    return _scale_rms(sig, rms)


def music_like(n: int, rng: np.random.Generator, rms: float = 0.1) -> np.ndarray:
    """Pink bed with a beat plus a chord that changes every half second."""
    t = np.arange(n) / FS
    bed = lfilter(PINK_B, PINK_A, rng.standard_normal(n))
    bed = bed * (1.0 + 0.5 * np.sin(2 * np.pi * rng.uniform(1.5, 2.5) * t))
    tones = np.zeros(n)
    step = FS // 2
    for start in range(0, n, step):
        sl = slice(start, min(start + step, n))
        root = 110.0 * 2.0 ** (rng.integers(0, 24) / 12.0)
        for ratio in (1.0, 1.25, 1.5, 2.0):
            tones[sl] += np.sin(2 * np.pi * root * ratio * t[sl] + rng.uniform(0, 2 * np.pi))
    return _scale_rms(_scale_rms(bed, 1.0) + 0.5 * _scale_rms(tones, 1.0), rms)


def background_noise(n: int, rng: np.random.Generator, rms: float = 0.05) -> np.ndarray:
    """Stationary low-pass noise."""
    return _scale_rms(lfilter([1.0], [1.0, -0.6], rng.standard_normal(n)), rms)


def room_ir(rng: np.random.Generator, length: int = 1024) -> np.ndarray:
    """Unit-energy room response: a direct path and a decaying noise tail."""
    decay_ms = rng.uniform(20.0, 100.0)
    tau = decay_ms / 1000.0 * FS / np.log(1000.0)
    tail = rng.standard_normal(length) * np.exp(-np.arange(length) / tau)
    tail[0] = 3.0
    return tail / np.sqrt(np.sum(tail**2))


def enhance_item(seed: int, seconds: float = 10.0, ser_db: float = -15.0,
                 snr_db: float = 25.0):
    """One double-talk item: returns (mic, reference, speech_reverb) arrays.

    Music echo through a unit-energy room response at ser_db against the
    reverberant near-end speech, which is on for 1 s and off for 1 s in
    turn (off first), plus stationary noise snr_db below the speech.
    """
    rng = np.random.default_rng(seed)
    n = int(round(seconds * FS))
    music = music_like(n, rng)
    speech = speech_like(n, rng, rms=0.015, burst_period_s=2.0)
    echo = fftconvolve(music, room_ir(rng))[:n]
    speech_reverb = fftconvolve(speech, room_ir(rng))[:n]
    e_s = np.sum(speech_reverb**2)
    echo = echo * np.sqrt(e_s / np.sum(echo**2)) * 10.0 ** (-ser_db / 20.0)
    noise = background_noise(n, rng)
    noise = noise * np.sqrt(e_s / np.sum(noise**2)) * 10.0 ** (-snr_db / 20.0)
    mic = speech_reverb + echo + noise
    return mic, music, speech_reverb


def write_sources(directory: str, seed: int, n_speech: int = 4,
                  speech_s: float = 2.0, n_long: int = 2, long_s: float = 12.0) -> dict:
    """Speech, music and noise source WAVs for the corpus generator.

    The speech files follow the same pattern as enhance_item: silent for
    the first second of every two.
    """
    from echoforge.audio import AudioBuffer, write_wav

    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)
    paths = {"speech": [], "music": [], "noise": []}

    def put(kind, i, samples):
        path = os.path.join(directory, f"{kind}{i}.wav")
        write_wav(path, AudioBuffer(samples, FS))
        paths[kind].append(path)

    for i in range(n_speech):
        put("speech", i, speech_like(int(speech_s * FS), rng, burst_period_s=2.0))
    for i in range(n_long):
        put("music", i, music_like(int(long_s * FS), rng))
        put("noise", i, background_noise(int(long_s * FS), rng))
    return paths

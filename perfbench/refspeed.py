"""Times at reference speed: wall time corrected for the machine's speed.

On a small shared host the same single-threaded code runs up to twice as
fast at one moment as at another, and the level drifts over minutes, so a
median of wall times moves by 20-40 % between runs of the same code. The
drift is common to all CPU-bound Python/numpy work. Each timed unit is
therefore bracketed by a fixed probe kernel (block FFT filtering in a
Python loop, the shape of the canceller's inner loop). A probe is the
mean of at least PROBE_REPEATS kernel runs and takes about PROBE_SHARE of
the time it follows. It is a mean, not a median, because the unit's wall
time also counts the moments the CPU was taken away. The unit's wall time
is scaled by REF_PROBE_S over the mean probe time around it:

    ref_s = wall_s * REF_PROBE_S / mean(probe before, probe after)

The probe tracks the drift, not the swings of about a second within a
run, so it needs many units per run: a run's median then holds many
probes.

REF_PROBE_S is a constant, the probe's typical time on the machine the
bounds were set on (2 vCPU Intel Xeon at 2.1 GHz), so ref_s reads as
seconds at that machine's typical speed. A program that gets faster lowers
ref_s in proportion; the probe does not call the program.
"""

from __future__ import annotations

import time

import numpy as np

REF_PROBE_S = 0.0045
PROBE_REPEATS = 5
PROBE_SHARE = 0.05
MAX_PROBE_REPEATS = 64
_BLOCK = 256
_PARTS = 4
_BLOCKS = 64


def _probe_kernel(x: np.ndarray, w: np.ndarray) -> float:
    """Partitioned frequency-domain filtering of x, block by block."""
    hist = np.zeros((_PARTS, _BLOCK + 1), dtype=complex)
    acc = 0.0
    for b in range(_BLOCKS):
        frame = x[b * _BLOCK:(b + 2) * _BLOCK]
        hist = np.roll(hist, 1, axis=0)
        hist[0] = np.fft.rfft(frame)
        out = np.fft.irfft(np.sum(hist * w, axis=0), 2 * _BLOCK)[_BLOCK:]
        err = frame[_BLOCK:] - out
        w = w + 0.01 * np.conj(hist) * np.fft.rfft(np.concatenate((np.zeros(_BLOCK), err)))
        acc += float(np.abs(err).max())
    return acc


class RefClock:
    """Times callables at reference speed; consecutive units share the
    probe between them."""

    def __init__(self):
        rng = np.random.default_rng(20140507)
        self._x = rng.standard_normal((_BLOCKS + 1) * _BLOCK)
        self._w = np.zeros((_PARTS, _BLOCK + 1), dtype=complex)
        self.probes = []
        _probe_kernel(self._x, self._w)  # first-call costs stay out of the probes
        self._last = self.probe()

    def probe(self, repeats: int = PROBE_REPEATS) -> float:
        """Mean wall time of `repeats` probe kernels."""
        t0 = time.perf_counter()
        for _ in range(repeats):
            _probe_kernel(self._x, self._w)
        value = (time.perf_counter() - t0) / repeats
        self.probes.append(value)
        return value

    def call(self, fn, *args):
        """Run fn(*args); returns (result, wall_s, ref_s)."""
        before = self._last
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        repeats = round(PROBE_SHARE * wall / REF_PROBE_S)
        self._last = self.probe(max(PROBE_REPEATS, min(MAX_PROBE_REPEATS, repeats)))
        return result, wall, wall * REF_PROBE_S / ((before + self._last) / 2.0)


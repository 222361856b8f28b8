"""Frame-wise double-talk probability from echo-estimate/microphone coherence.

While the canceler tracks the echo path, its echo estimate stays coherent
with the microphone whenever the mic holds echo alone; near-end speech on
top of the echo pulls the coherence down. A two-state forward recursion
turns the per-frame coherence into a probability of double talk:

* transition probabilities a01 (enter double talk) and a10 (leave) shape
  the prior between frames;
* the double-talk likelihood of a frame is one minus its mean coherence
  over the configured bin range;
* b01/b10 drive a coherence-threshold hysteresis comparator whose active
  state pins the evidence high until the coherence clearly recovers (an
  interpretation: the comparator enters below coherence b01 and leaves
  above 1 - b10, debounced over the tau time constant so single frames
  cannot latch it).

The probability is smoothed with beta and starts at the uninformative 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, gene, require_finite, require_unit
from .stft import HOP, N_BINS, POWER_FLOOR, SAMPLE_RATE, smooth_frames

COHERENCE_EPS = 1e-10


@dataclass(frozen=True)
class DtpParams:
    a01: float = gene(0.01, 1e-4, 0.5, "log")
    a10: float = gene(0.01, 1e-4, 0.5, "log")
    b01: float = gene(0.1, 0.0, 1.0)
    b10: float = gene(0.1, 0.0, 1.0)
    alpha: float = gene(0.9, 0.5, 0.995)    # PSD smoothing
    beta: float = gene(0.7, 0.0, 0.99)      # probability smoothing
    k_begin: int = gene(10, 0, 64)          # coherence band start: bin 10 = 312.5 Hz
    k_end: int = gene(109, 65, 256)         # coherence band end: bin 109 = 3406.25 Hz
    frame_duration: float = gene(HOP / SAMPLE_RATE, 0.004, 0.064)  # seconds per frame hop
    tau: float = gene(0.1, 0.01, 1.0, "log")  # hysteresis debounce time constant, seconds

    def __post_init__(self):
        require_finite(self)
        require_unit(self, "a01", "a10", "b01", "b10", closed=True)
        require_unit(self, "alpha", "beta")
        if not 0 <= self.k_begin < self.k_end <= N_BINS - 1:
            raise ConfigError(f"need 0 <= k_begin < k_end <= {N_BINS - 1}, "
                              f"got [{self.k_begin}, {self.k_end}]")
        if self.frame_duration <= 0 or self.tau <= 0:
            raise ConfigError("frame_duration and tau must be positive")

    def debounce_frames(self) -> int:
        """Frames the comparator condition must persist, from tau."""
        return max(1, round(self.tau / self.frame_duration))


class DtpEstimator:
    """Sequential per-stream state; do not share across streams.

    `process` is the entry point for a chunk of frames. The three PSD
    recursions are row loops over the chunk, carried between chunks, and
    the band coherence and silence test then run once per chunk; only the
    probability recursion (`update`) runs frame by frame. Only the bins of
    the coherence band are tracked: no other bin is ever read.
    """

    def __init__(self, params: DtpParams):
        self.params = params
        self.p_dt = 0.5
        width = params.k_end + 1 - params.k_begin
        self.psd_dd = np.zeros(width)
        self.psd_yy = np.zeros(width)
        self.psd_dy = np.zeros(width, dtype=complex)
        self._hysteresis = False
        self._pending = 0
        self._debounce = params.debounce_frames()
        self._enter = min(params.b01, 1.0 - params.b10)
        self._leave = max(params.b01, 1.0 - params.b10)

    def process(self, d: np.ndarray, y: np.ndarray) -> list:
        """Consume a (frames, N_BINS) chunk pair of echo estimate and mic;
        return the double-talk probability after each frame."""
        return [self.update(c) for c in self.band_coherence(d, y)]

    def band_coherence(self, d: np.ndarray, y: np.ndarray) -> list:
        """Advance the PSDs over a (frames, N_BINS) chunk pair; per frame,
        the mean coherence over the band, or None where both band PSDs are
        silent."""
        p = self.params
        a = p.alpha
        band = slice(p.k_begin, p.k_end + 1)
        d = d[:, band]
        y = y[:, band]
        dd = smooth_frames((1 - a) * np.abs(d) ** 2, self.psd_dd, a)
        yy = smooth_frames((1 - a) * np.abs(y) ** 2, self.psd_yy, a)
        dy = smooth_frames((1 - a) * d * np.conj(y), self.psd_dy, a)
        self.psd_dd, self.psd_yy, self.psd_dy = dd[-1], yy[-1], dy[-1]
        silent = ((np.mean(dd, axis=1) < POWER_FLOOR)
                  & (np.mean(yy, axis=1) < POWER_FLOOR)).tolist()
        coherence = np.abs(dy) ** 2 / (dd * yy + COHERENCE_EPS)
        means = np.mean(coherence, axis=1).tolist()
        return [None if quiet else c for c, quiet in zip(means, silent)]

    def update(self, mean_coh: float | None) -> float:
        """One frame of the probability recursion on the frame's band-mean
        coherence (None, a silent frame, is uninformative and leaves the
        probability as it is); returns the double-talk probability."""
        if mean_coh is None:
            return self.p_dt
        p = self.params
        likelihood = 1.0 - min(max(mean_coh, 0.0), 1.0)

        # hysteresis comparator on the same coherence (enter below b01,
        # leave above 1 - b10, after a tau-long debounce); pins evidence
        # high in the clearly incoherent regime without chattering
        crossing = mean_coh > self._leave if self._hysteresis else mean_coh < self._enter
        self._pending = self._pending + 1 if crossing else 0
        if self._pending >= self._debounce:
            self._hysteresis = not self._hysteresis
            self._pending = 0
        if self._hysteresis:
            likelihood = 1.0

        prior = self.p_dt * (1.0 - p.a10) + (1.0 - self.p_dt) * p.a01
        num = prior * likelihood
        den = num + (1.0 - prior) * (1.0 - likelihood)
        posterior = num / den if den > 0 else prior

        self.p_dt = p.beta * self.p_dt + (1 - p.beta) * posterior
        self.p_dt = min(max(self.p_dt, 0.0), 1.0)
        return self.p_dt

"""Noise power tracking with a speech-presence-probability MMSE recursion.

Per bin, the posterior probability that speech is present follows from a
generalized likelihood ratio under a fixed active-speech SNR; the noise
periodogram estimate blends the current noise estimate and the observed
periodogram by that probability, then feeds an exponential average. A
smoothed-probability guard caps the posterior when it saturates, so the
estimate cannot lock onto speech (Gerkmann & Hendriks style).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, gene, require_finite, require_unit
from .stft import N_BINS, POWER_FLOOR

COLD_START_FRAMES = 10


@dataclass(frozen=True)
class NpeParams:
    xi_h1: float = gene(15.0, 5.0, 30.0, db=True)  # fixed active-speech a-priori SNR
    p_threshold: float = gene(0.99, 0.8, 0.999)    # stuck-estimate guard level
    alpha_p: float = gene(0.9, 0.5, 0.99)          # speech-probability smoothing
    alpha_npe: float = gene(0.9, 0.5, 0.95)        # noise PSD smoothing

    def __post_init__(self):
        require_finite(self)
        if self.xi_h1 <= 0:
            raise ConfigError(f"xi_h1 must be > 0, got {self.xi_h1}")
        if not 0.0 < self.p_threshold < 1.0:
            raise ConfigError(f"p_threshold must be in (0, 1), got {self.p_threshold}")
        require_unit(self, "alpha_p", "alpha_npe")


class NoisePowerEstimator:
    """Sequential per-stream state; one instance per stream.

    Cold start: the first COLD_START_FRAMES periodograms are averaged
    straight into the estimate before the probability recursion engages.
    """

    def __init__(self, params: NpeParams):
        self.params = params
        self.smoothed_p = np.zeros(N_BINS)
        self.noise_power = np.full(N_BINS, POWER_FLOOR)
        self._warmup_acc = np.zeros(N_BINS)
        self._warmup_count = 0

    def update(self, periodogram: np.ndarray) -> np.ndarray:
        """Consume a (frames, N_BINS) chunk of error periodograms |E|^2;
        return the per-bin noise power after each frame.

        The recursion feeds back on its own estimate, so it runs frame by
        frame.
        """
        p = self.params
        snr_frac = p.xi_h1 / (1.0 + p.xi_h1)
        out = np.empty_like(periodogram)
        for t, power in enumerate(periodogram):
            if self._warmup_count < COLD_START_FRAMES:
                self._warmup_acc += power
                self._warmup_count += 1
                self.noise_power = np.maximum(
                    self._warmup_acc / self._warmup_count, POWER_FLOOR, out=out[t])
                continue

            # posterior speech presence under the fixed-SNR hypothesis
            log_ratio = power / self.noise_power * snr_frac
            prob = 1.0 / (1.0 + (1.0 + p.xi_h1) * np.exp(-np.minimum(log_ratio, 700.0)))

            self.smoothed_p = p.alpha_p * self.smoothed_p + (1 - p.alpha_p) * prob
            stuck = self.smoothed_p > p.p_threshold
            prob = np.where(stuck, np.minimum(prob, p.p_threshold), prob)

            estimate = prob * self.noise_power + (1.0 - prob) * power
            self.noise_power = np.maximum(
                p.alpha_npe * self.noise_power + (1 - p.alpha_npe) * estimate,
                POWER_FLOOR, out=out[t])
        return out

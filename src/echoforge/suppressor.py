"""Joint residual-echo and noise suppression.

Per bin and frame, with the interference power
I = max(noise + residual echo power, POWER_FLOOR): the a posteriori SNR
gamma = |E|^2 / I, the decision-directed a priori SNR
xi = alpha_dd * |S_prev|^2 / I + (1 - alpha_dd) * max(gamma - 1, 0)
(S_prev the previous output frame, zero at the start), the Ephraim-Malah
log-spectral-amplitude gain, and a three-branch masking gain on xi:

    low  (xi <= theta1):        (1 - g_min) * lsa_gain + g_min
    mid  (theta1 < xi < theta2): mask_alpha / 2
    high (xi >= theta2):        (2 + mask_alpha) / 2

The low branch keeps the soft statistical gain where the mask cannot be
trusted; the two constants act as a binary decision with a tunable
weight. The high branch exceeds unity for mask_alpha > 0 on purpose
(recognition front-end, not playback); cap_at_unity clamps it for
listening use.

The exponential integral E1 inside the LSA gain is called as
scipy.special.exp1 directly: its argument is floored at V_FLOOR > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import exp1

from .errors import ConfigError, gene, require_finite, require_unit
from .stft import N_BINS, POWER_FLOOR

V_FLOOR = 1e-10


@dataclass(frozen=True)
class SuppressorParams:
    alpha_dd: float = gene(0.98, 0.8, 0.999)
    g_min: float = gene(0.1, 0.0, 1.0)
    theta1: float = gene(-5.0, -30.0, 10.0, db=True)  # a-priori SNR thresholds
    theta2: float = gene(5.0, -10.0, 30.0, db=True)
    mask_alpha: float = gene(0.5, 0.0, 2.0)
    cap_at_unity: bool = False

    def __post_init__(self):
        require_finite(self)
        require_unit(self, "alpha_dd")
        require_unit(self, "g_min", closed=True)
        if not self.theta1 < self.theta2:
            raise ConfigError(
                f"need theta1 < theta2, got theta1={self.theta1}, theta2={self.theta2}")
        if self.mask_alpha < 0.0:
            raise ConfigError(f"mask_alpha must be >= 0, got {self.mask_alpha}")


def lsa_gain(xi, gamma) -> np.ndarray:
    """Log-spectral-amplitude MMSE gain (Ephraim-Malah).

    G = xi/(1+xi) * exp(E1(v)/2), v = xi*gamma/(1+xi), v floored at 1e-10.
    Unclamped: extreme prior/posterior mismatches can push G above 1.
    """
    prefactor = xi / (1.0 + xi)
    v = np.maximum(prefactor * gamma, V_FLOOR)
    return prefactor * np.exp(0.5 * exp1(v))


def mask_gain(xi, g_lsa, params: SuppressorParams) -> np.ndarray:
    """Three-branch masking gain switched on the a priori SNR."""
    low = (1.0 - params.g_min) * g_lsa + params.g_min
    zeta = np.where(xi <= params.theta1, low,
                    np.where(xi >= params.theta2,
                             (2.0 + params.mask_alpha) / 2.0,
                             params.mask_alpha / 2.0))
    if params.cap_at_unity:
        zeta = np.minimum(zeta, 1.0)
    return zeta


class Suppressor:
    """Holds the previous clean-speech power; sequential per stream.

    `process` is the entry point for a chunk of frames: the a posteriori
    SNR and the prior's instantaneous share need no memory and are taken
    once per chunk, and `process_frame` then runs the decision-directed
    recursion frame by frame.
    """

    def __init__(self, params: SuppressorParams):
        self.params = params
        self.prev_clean_power = np.zeros(N_BINS)

    def process(self, e: np.ndarray, error_power: np.ndarray,
                noise_power: np.ndarray, residual_power: np.ndarray):
        """Suppress a (frames, N_BINS) chunk of canceler error e, given its
        power |e|^2 and the noise and residual echo power per frame.

        Returns (s_hat, xi, gamma, zeta) for the chunk, each (frames, N_BINS).
        """
        interference = np.maximum(noise_power + residual_power, POWER_FLOOR)
        gamma = error_power / interference
        instant = (1.0 - self.params.alpha_dd) * np.maximum(gamma - 1.0, 0.0)
        s_hat = np.empty_like(e)
        xi = np.empty_like(gamma)
        zeta = np.empty_like(gamma)
        for t in range(len(e)):
            s_hat[t], xi[t], zeta[t] = self.process_frame(
                e[t], gamma[t], interference[t], instant[t])
        return s_hat, xi, gamma, zeta

    def process_frame(self, e_frame: np.ndarray, gamma: np.ndarray,
                      interference: np.ndarray, instant: np.ndarray):
        """One (N_BINS,) frame of combined suppression, from its rows of
        the chunk terms that `process` takes.

        Returns (s_hat, xi, zeta), where s_hat = zeta * e_frame (a real gain
        per bin, phase kept); updates the clean-speech memory.
        """
        xi = self.params.alpha_dd * (self.prev_clean_power / interference) + instant
        g = lsa_gain(xi, gamma)
        zeta = mask_gain(xi, g, self.params)
        s_hat = zeta * e_frame
        self.prev_clean_power = np.abs(s_hat) ** 2
        return s_hat, xi, zeta

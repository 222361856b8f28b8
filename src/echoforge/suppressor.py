"""Joint residual-echo and noise suppression.

Per bin and frame: a posteriori SNR against the summed noise + residual
echo power, decision-directed a priori SNR, the Ephraim-Malah
log-spectral-amplitude gain, and a three-branch masking gain switched on
the a priori SNR:

    low  (xi <= theta1):        (1 - g_min) * lsa_gain + g_min
    mid  (theta1 < xi < theta2): mask_alpha / 2
    high (xi >= theta2):        (2 + mask_alpha) / 2

The low branch keeps the soft statistical gain where the mask cannot be
trusted; the two constants act as a binary decision with a tunable
weight. The high branch exceeds unity for mask_alpha > 0 on purpose
(recognition front-end, not playback); cap_at_unity clamps it for
listening use.

The exponential integral E1 inside the LSA gain is scipy.special.exp1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import exp1

from .errors import ConfigError, InputError

POWER_FLOOR = 1e-12
V_FLOOR = 1e-10


@dataclass(frozen=True)
class SuppressorParams:
    alpha_dd: float = 0.98
    g_min: float = 0.1
    theta1: float = 10.0 ** -0.5   # linear a-priori SNR thresholds
    theta2: float = 10.0 ** 0.5
    mask_alpha: float = 0.5
    cap_at_unity: bool = False

    def __post_init__(self):
        if not 0.0 <= self.alpha_dd < 1.0:
            raise ConfigError(f"alpha_dd must be in [0, 1), got {self.alpha_dd}")
        if not 0.0 <= self.g_min <= 1.0:
            raise ConfigError(f"g_min must be in [0, 1], got {self.g_min}")
        if not self.theta1 < self.theta2:
            raise ConfigError(
                f"need theta1 < theta2, got theta1={self.theta1}, theta2={self.theta2}")
        if self.mask_alpha < 0.0:
            raise ConfigError(f"mask_alpha must be >= 0, got {self.mask_alpha}")


def exp_integral_e1(v):
    """E1(v) = integral of exp(-t)/t from v to infinity, for v > 0.

    Evaluated by scipy.special.exp1; 0-d input gives a scalar, N-d input
    keeps its shape.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise InputError("E1 requires positive arguments")
    return exp1(v)


def posterior_snr(error_power, noise_power, residual_power) -> np.ndarray:
    """gamma = error power / (noise + residual echo power), floored denominator."""
    num = np.asarray(error_power, dtype=float)
    den = np.asarray(noise_power, dtype=float) + np.asarray(residual_power, dtype=float)
    return num / np.maximum(den, POWER_FLOOR)


def dd_prior_snr(prev_clean_power, gamma, noise_power, residual_power,
                 alpha_dd: float) -> np.ndarray:
    """Decision-directed a priori SNR.

    Blends the previous frame's clean-speech power (over the current
    interference power) with the instantaneous max(gamma - 1, 0).
    """
    den = np.maximum(np.asarray(noise_power, dtype=float)
                     + np.asarray(residual_power, dtype=float), POWER_FLOOR)
    memory = np.asarray(prev_clean_power, dtype=float) / den
    instant = np.maximum(np.asarray(gamma, dtype=float) - 1.0, 0.0)
    return alpha_dd * memory + (1.0 - alpha_dd) * instant


def lsa_gain(xi, gamma) -> np.ndarray:
    """Log-spectral-amplitude MMSE gain (Ephraim-Malah).

    G = xi/(1+xi) * exp(E1(v)/2), v = xi*gamma/(1+xi), v floored at 1e-10.
    Unclamped: extreme prior/posterior mismatches can push G above 1.
    """
    xi = np.asarray(xi, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    prefactor = xi / (1.0 + xi)
    v = np.maximum(prefactor * gamma, V_FLOOR)
    return prefactor * np.exp(0.5 * exp_integral_e1(v))


def mask_gain(xi, g_lsa, params: SuppressorParams) -> np.ndarray:
    """Three-branch masking gain switched on the a priori SNR."""
    xi = np.asarray(xi, dtype=float)
    g_lsa = np.asarray(g_lsa, dtype=float)
    low = (1.0 - params.g_min) * g_lsa + params.g_min
    zeta = np.where(xi <= params.theta1, low,
                    np.where(xi >= params.theta2,
                             (2.0 + params.mask_alpha) / 2.0,
                             params.mask_alpha / 2.0))
    if params.cap_at_unity:
        zeta = np.minimum(zeta, 1.0)
    return zeta


def apply_mask(zeta, e_frame) -> np.ndarray:
    """Masked output spectrum: per-bin real gain, phase preserved."""
    zeta = np.asarray(zeta, dtype=float)
    e_frame = np.asarray(e_frame)
    if zeta.shape != e_frame.shape:
        raise InputError(f"shape mismatch: {zeta.shape} vs {e_frame.shape}")
    return zeta * e_frame


class Suppressor:
    """Holds the previous clean-speech power; sequential per stream."""

    def __init__(self, params: SuppressorParams, n_bins: int):
        self.params = params
        self.n_bins = n_bins
        self.prev_clean_power = np.zeros(n_bins)

    def process_frame(self, e_frame: np.ndarray, noise_power: np.ndarray,
                      residual_power: np.ndarray):
        """One frame of combined suppression.

        Returns (s_hat, xi, gamma, zeta); updates the clean-speech memory.
        """
        e_frame = np.asarray(e_frame)
        if e_frame.shape != (self.n_bins,):
            raise InputError(
                f"expected frame of shape ({self.n_bins},), got {e_frame.shape}")
        error_power = np.abs(e_frame) ** 2
        gamma = posterior_snr(error_power, noise_power, residual_power)
        xi = dd_prior_snr(self.prev_clean_power, gamma, noise_power,
                          residual_power, self.params.alpha_dd)
        g = lsa_gain(xi, gamma)
        zeta = mask_gain(xi, g, self.params)
        s_hat = apply_mask(zeta, e_frame)
        self.prev_clean_power = np.abs(s_hat) ** 2
        return s_hat, xi, gamma, zeta

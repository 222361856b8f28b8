"""Residual echo power estimation.

Echo the canceler could not remove still couples linearly to the far-end
reference. Two trackers estimate that coupling per partition as a
least-squares transfer (smoothed cross-PSD over smoothed auto-PSD): a
high estimate from (microphone, reference), valid when the mic is mostly
echo, and a low estimate from (canceler error, reference), safe during
near-end activity. The double-talk probability blends them:

    residual_power = (1 - p_dt) * high + p_dt * low
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .stft import N_BINS

COUPLING_REG = 1e-8


@dataclass(frozen=True)
class RpeParams:
    partitions_high: int = 4
    partitions_low: int = 2
    alpha_high: float = 0.92
    alpha_low: float = 0.92

    def __post_init__(self):
        if self.partitions_high < 1 or self.partitions_low < 1:
            raise ConfigError("partition counts must be >= 1")
        for name in ("alpha_high", "alpha_low"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {v}")


class _CouplingTracker:
    """Per-partition least-squares coupling of a target onto the reference.

    The reference histories (conjugate spectra, |x|^2 and the smoothed
    auto-PSD, row 0 newest) shift down one row per frame and only row 0
    is computed. From the all-zero start, auto[m] after frame t is exactly
    auto[m - 1] after frame t - 1, so the shift gives the same bits as
    smoothing every row anew.
    """

    def __init__(self, partitions: int, alpha: float):
        self.alpha = alpha
        self.x_conj = np.zeros((partitions, N_BINS), dtype=complex)
        self.x_power = np.zeros((partitions, N_BINS))
        self.cross = np.zeros((partitions, N_BINS), dtype=complex)
        self.auto = np.zeros((partitions, N_BINS))

    def update(self, target_frame: np.ndarray, x_frame: np.ndarray) -> np.ndarray:
        for history in (self.x_conj, self.x_power, self.auto):
            history[1:] = history[:-1]
        np.conj(x_frame, out=self.x_conj[0])
        self.x_power[0] = np.abs(self.x_conj[0]) ** 2
        a = self.alpha
        # row 0 still holds the previous frame's newest auto-PSD
        self.auto[0] = a * self.auto[0] + (1 - a) * self.x_power[0]
        self.cross = a * self.cross + (1 - a) * target_frame[None, :] * self.x_conj
        coupling = self.cross / (self.auto + COUPLING_REG)
        return np.sum(np.abs(coupling) ** 2 * self.x_power, axis=0)


class ResidualPowerEstimator:
    """Sequential per-stream state holding both coupling trackers."""

    def __init__(self, params: RpeParams):
        self.params = params
        self._high = _CouplingTracker(params.partitions_high, params.alpha_high)
        self._low = _CouplingTracker(params.partitions_low, params.alpha_low)

    def update_high(self, y_frame: np.ndarray, x_frame: np.ndarray) -> np.ndarray:
        """Track the mic/reference coupling; returns the high power estimate."""
        return self._high.update(y_frame, x_frame)

    def update_low(self, e_frame: np.ndarray, x_frame: np.ndarray) -> np.ndarray:
        """Track the error/reference coupling; returns the low power estimate."""
        return self._low.update(e_frame, x_frame)


def combine_residual_power(power_high: np.ndarray, power_low: np.ndarray,
                           p_dt: float) -> np.ndarray:
    """Blend high and low estimates by the double-talk probability.

    For finite non-negative powers, p_dt = 0 gives power_high and p_dt = 1
    gives power_low bit for bit.
    """
    return (1.0 - p_dt) * power_high + p_dt * power_low

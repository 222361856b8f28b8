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

from .errors import ConfigError, InputError

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

    def __init__(self, partitions: int, alpha: float, n_bins: int):
        self.alpha = alpha
        self.x_conj = np.zeros((partitions, n_bins), dtype=complex)
        self.x_power = np.zeros((partitions, n_bins))
        self.cross = np.zeros((partitions, n_bins), dtype=complex)
        self.auto = np.zeros((partitions, n_bins))

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

    def __init__(self, params: RpeParams, n_bins: int):
        self.params = params
        self.n_bins = n_bins
        self._high = _CouplingTracker(params.partitions_high, params.alpha_high, n_bins)
        self._low = _CouplingTracker(params.partitions_low, params.alpha_low, n_bins)
        self.power_high = np.zeros(n_bins)
        self.power_low = np.zeros(n_bins)

    def _check(self, frame: np.ndarray) -> np.ndarray:
        frame = np.asarray(frame)
        if frame.shape != (self.n_bins,):
            raise InputError(f"expected frame of shape ({self.n_bins},), got {frame.shape}")
        return frame

    def update_high(self, y_frame: np.ndarray, x_frame: np.ndarray) -> np.ndarray:
        """Track the mic/reference coupling; returns the high power estimate."""
        self.power_high = self._high.update(self._check(y_frame), self._check(x_frame))
        return self.power_high

    def update_low(self, e_frame: np.ndarray, x_frame: np.ndarray) -> np.ndarray:
        """Track the error/reference coupling; returns the low power estimate."""
        self.power_low = self._low.update(self._check(e_frame), self._check(x_frame))
        return self.power_low


def combine_residual_power(power_high: np.ndarray, power_low: np.ndarray,
                           p_dt: float) -> np.ndarray:
    """Blend high and low estimates by the double-talk probability."""
    if not 0.0 <= p_dt <= 1.0:
        raise InputError(f"p_dt must be in [0, 1], got {p_dt}")
    high = np.asarray(power_high, dtype=float)
    low = np.asarray(power_low, dtype=float)
    if high.shape != low.shape:
        raise InputError(f"shape mismatch: {high.shape} vs {low.shape}")
    if p_dt == 0.0:
        return high.copy()
    if p_dt == 1.0:
        return low.copy()
    return (1.0 - p_dt) * high + p_dt * low

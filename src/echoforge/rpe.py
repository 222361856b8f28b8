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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, gene, require_finite
from .stft import N_BINS, smooth_frames

COUPLING_REG = 1e-8


@dataclass(frozen=True)
class RpeParams:
    partitions_high: int = gene(4, 1, 8)
    partitions_low: int = gene(2, 1, 8)
    alpha_high: float = gene(0.92, 0.5, 0.995)
    alpha_low: float = gene(0.92, 0.5, 0.995)

    def __post_init__(self):
        require_finite(self)
        if self.partitions_high < 1 or self.partitions_low < 1:
            raise ConfigError("partition counts must be >= 1")
        for name in ("alpha_high", "alpha_low"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {v}")


class _CouplingTracker:
    """Per-partition least-squares coupling of a target onto the reference.

    Partition m pairs target frame t with reference frame t - m. From the
    all-zero start, smoothing every partition's auto-PSD anew gives the
    partition-0 auto-PSD of frame t - m, so one recursion per frame serves
    every partition. Its regularized inverse 1 / (auto + COUPLING_REG) is
    taken once per frame and lagged like the reference; multiplying by it
    gives the bits of numpy's complex-by-real division, which multiplies
    by the reciprocal itself.
    """

    def __init__(self, partitions: int, alpha: float):
        self.partitions = partitions
        self.alpha = alpha
        self.cross = np.zeros((partitions, N_BINS), dtype=complex)
        self.auto = np.zeros(N_BINS)   # partition 0's auto-PSD, newest frame
        # inverses for the partitions - 1 frames before the next chunk, oldest first
        self._inv_auto = np.full((partitions - 1, N_BINS), 1.0 / COUPLING_REG)

    def update(self, target: np.ndarray, x_conj: np.ndarray,
               x_power: np.ndarray) -> np.ndarray:
        """Coupled power for each frame of a (frames, N_BINS) target chunk.

        x_conj and x_power hold conj(X) and |X|^2 of the chunk's reference
        frames behind at least partitions - 1 earlier ones, oldest first.
        """
        a = self.alpha
        frames = len(target)
        first = len(x_power) - frames   # the chunk's first reference row
        auto = smooth_frames((1 - a) * x_power[first:], self.auto, a)
        self.auto = auto[-1]
        inv_auto = np.concatenate((self._inv_auto, 1.0 / (auto + COUPLING_REG)))
        self._inv_auto = inv_auto[frames:]
        cross = smooth_frames(
            ((1 - a) * target)[:, None, :] * _lagged(x_conj, first, self.partitions),
            self.cross, a)
        self.cross = cross[-1].copy()
        # the coupling, in place
        cross *= _lagged(inv_auto, self.partitions - 1, self.partitions)
        return np.sum(np.abs(cross) ** 2 * _lagged(x_power, first, self.partitions),
                      axis=1)


def _lagged(rows: np.ndarray, first: int, partitions: int) -> np.ndarray:
    """(frames, partitions, N_BINS) view of rows[first - partitions + 1:]
    whose element [t, m] is rows[first + t - m], without a copy."""
    windows = sliding_window_view(rows[first - partitions + 1:], partitions, axis=0)
    return windows[:, :, ::-1].transpose(0, 2, 1)


class ResidualPowerEstimator:
    """Sequential per-stream state: both coupling trackers and the one
    reference history they share."""

    def __init__(self, params: RpeParams):
        self.params = params
        self._high = _CouplingTracker(params.partitions_high, params.alpha_high)
        self._low = _CouplingTracker(params.partitions_low, params.alpha_low)
        history = max(params.partitions_high, params.partitions_low) - 1
        # conj(X) and |X|^2 of the frames before the next chunk, oldest first
        self._x_conj = np.zeros((history, N_BINS), dtype=complex)
        self._x_power = np.zeros((history, N_BINS))

    def process(self, y: np.ndarray, e: np.ndarray, x: np.ndarray):
        """Consume (frames, N_BINS) chunks of mic, canceler error and
        reference; return the high and low power estimates per frame."""
        history = len(self._x_conj)
        x_conj = np.concatenate((self._x_conj, np.conj(x)))
        x_power = np.concatenate((self._x_power, np.abs(x_conj[history:]) ** 2))
        self._x_conj, self._x_power = x_conj[len(x):], x_power[len(x):]
        return self.update_high(y, x_conj, x_power), self.update_low(e, x_conj, x_power)

    def update_high(self, y: np.ndarray, x_conj: np.ndarray,
                    x_power: np.ndarray) -> np.ndarray:
        """Track the mic/reference coupling; returns the high power estimate."""
        return self._high.update(y, x_conj, x_power)

    def update_low(self, e: np.ndarray, x_conj: np.ndarray,
                   x_power: np.ndarray) -> np.ndarray:
        """Track the error/reference coupling; returns the low power estimate."""
        return self._low.update(e, x_conj, x_power)


def combine_residual_power(power_high: np.ndarray, power_low: np.ndarray,
                           p_dt) -> np.ndarray:
    """Blend high and low estimates by the double-talk probability: a
    float for one frame, or a (frames, 1) column for a chunk.

    For finite non-negative powers, p_dt = 0 gives power_high and p_dt = 1
    gives power_low bit for bit.
    """
    return (1.0 - p_dt) * power_high + p_dt * power_low

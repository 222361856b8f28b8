"""Likelihood-ratio voice activity detection on the suppressor's SNRs.

Per frame the statistic

    L = sum_k [ gamma_k * xi_k / (1 + xi_k) - log(1 + xi_k) ]

is compared against a fixed threshold (strictly greater means speech); a
hangover counter holds the decision active for a few frames after the
last raw hit so short commands stay in one segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError


@dataclass(frozen=True)
class VadParams:
    threshold: float = 38.55   # 0.15 per bin over the 257 bins of the stft clock
    hangover_frames: int = 8

    def __post_init__(self):
        if self.hangover_frames < 0:
            raise ConfigError(
                f"hangover_frames must be >= 0, got {self.hangover_frames}")


def vad_statistic(xi, gamma) -> float:
    """Frame log-likelihood-ratio statistic; additive over bins."""
    xi = np.asarray(xi, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if xi.shape != gamma.shape:
        raise InputError(f"shape mismatch: {xi.shape} vs {gamma.shape}")
    return float(np.sum(gamma * xi / (1.0 + xi) - np.log1p(xi)))


class VadDecider:
    """Threshold plus hangover; sequential per stream."""

    def __init__(self, params: VadParams):
        self.params = params
        self._hang = 0

    def decide(self, statistic: float) -> bool:
        raw = statistic > self.params.threshold
        if raw:
            self._hang = self.params.hangover_frames
            return True
        if self._hang > 0:
            self._hang -= 1
            return True
        return False


def segments_from_flags(flags, hop: int, frame_len: int, total_samples: int):
    """Merge consecutive active frames into (start, end) sample ranges.

    Ranges are clipped to total_samples. A range that starts at or after
    it (frames past the end of a mic shorter than its reference) is dropped.
    """
    segments = []
    start = None
    for m, active in enumerate([*flags, False]):
        if active and start is None:
            start = m * hop
        elif not active and start is not None:
            end = min((m - 1) * hop + frame_len, total_samples)
            if start < end:
                segments.append((start, end))
            start = None
    return segments

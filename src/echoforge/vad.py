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

from .errors import ConfigError, gene, require_finite
from .stft import FRAME_LEN, HOP, N_BINS


@dataclass(frozen=True)
class VadParams:
    threshold: float = gene(0.15 * N_BINS, 0.0, 200.0)  # 0.15 per bin of the stft clock
    hangover: int = gene(8, 0, 32)

    def __post_init__(self):
        require_finite(self)
        if self.hangover < 0:
            raise ConfigError(f"hangover must be >= 0, got {self.hangover}")


def vad_statistic(xi, gamma):
    """Frame log-likelihood-ratio statistic, additive over bins: summed
    over the last axis, so a (frames, bins) chunk gives one per frame."""
    return np.sum(gamma * xi / (1.0 + xi) - np.log1p(xi), axis=-1)


class VadDecider:
    """Threshold plus hangover; sequential per stream."""

    def __init__(self, params: VadParams):
        self.params = params
        self._hang = 0

    def decide(self, statistic: float) -> bool:
        raw = statistic > self.params.threshold
        if raw:
            self._hang = self.params.hangover
            return True
        if self._hang > 0:
            self._hang -= 1
            return True
        return False


def segments_from_flags(flags, total_samples: int):
    """Merge consecutive active frames of the stft clock into (start, end)
    sample ranges.

    Ranges are clipped to total_samples. A range that starts at or after
    it (frames past the end of a mic shorter than its reference) is dropped.
    """
    padded = np.concatenate(([False], np.asarray(flags, dtype=bool), [False]))
    # Run m..n-1 of active frames rises at padded index m and falls at n.
    edges = np.flatnonzero(np.diff(padded))
    starts = edges[0::2] * HOP
    ends = np.minimum((edges[1::2] - 1) * HOP + FRAME_LEN, total_samples)
    kept = starts < ends
    return list(zip(starts[kept].tolist(), ends[kept].tolist()))

"""Robust acoustic echo canceler.

A partitioned-block (multidelay) frequency-domain adaptive filter after
Soo & Pang, with overlap-save filtering and normalized LMS updates, made
robust to near-end interference by two controls that never touch the
signal path:

* an error recovery nonlinearity: the adaptation error is clipped at a
  multiple of a running robust scale, so isolated outliers move the
  weights by a bounded amount;
* an adaptive step size: the step shrinks when the block error is far
  out of scale (a burst) or no longer coherent with the far-end signal
  (near-end speech, or the filter has hit its floor), so sustained
  double talk cannot random-walk converged weights.

Two instances chain into a cascade: the second stage filters the same
far-end reference and cancels what the first left behind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError

# NLMS normalization regularizer.
DELTA = 1e-3
# Lower bound for the robust scale estimate.
SCALE_FLOOR = 1e-6
# Blocks with a median |e| below this are silence: nothing to learn from.
SILENCE_LEVEL = 1e-5
# |e| median -> sigma for a Gaussian.
MEDIAN_TO_SIGMA = 0.6745
# Smoothing for the error/far-end coherence used by the step control.
COHERENCE_SMOOTHING = 0.99
# Estimator bias multiplier subtracted from the raw coherence; covers the
# max-over-partitions inflation of the independent-signal floor.
COHERENCE_BIAS_MULT = 1.5
# Coherence reached by a fully far-end-explainable error. The zero-padded
# half-window error spectrum caps the attainable value well below 1.
COHERENCE_FULL_SCALE = 0.30


@dataclass(frozen=True)
class RaecParams:
    frame_size: int = 256          # block advance; FFT size is twice this
    partitions: int = 8
    iterations: int = 2            # weight updates per block
    mu: float = 0.5                # NLMS step size
    gamma: float = 1.5             # clip threshold in units of the robust scale
    alpha: float = 0.9             # PSD smoothing / downward scale smoothing
    scale_rise: float = 0.9995     # upward scale smoothing (slow on purpose)

    def __post_init__(self):
        n = self.frame_size
        if n <= 0 or (n & (n - 1)) != 0:
            raise ConfigError(f"frame_size must be a power of two, got {n}")
        if self.partitions < 1:
            raise ConfigError(f"partitions must be >= 1, got {self.partitions}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not 0.0 < self.mu < 2.0:
            raise ConfigError(f"mu must be in (0, 2), got {self.mu}")
        if self.gamma <= 0.0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        for name in ("alpha", "scale_rise"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {v}")


def clip_error(e_block: np.ndarray, scale: float, params: RaecParams) -> np.ndarray:
    """Error recovery nonlinearity: clip |e| at gamma*scale, keep the sign.

    Used only to form the adaptation error, never on the signal path.
    """
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    limit = params.gamma * scale
    return np.clip(e_block, -limit, limit)


class Raec:
    """One adaptive stage. Strictly sequential per stream; never share."""

    def __init__(self, params: RaecParams):
        self.params = params
        n = params.frame_size
        m = params.partitions
        self.n_bins = n + 1  # rfft bins of the 2n window
        self.x_buf = np.zeros(2 * n)
        self.x_spectra = np.zeros((m, self.n_bins), dtype=complex)
        self.weights = np.zeros((m, self.n_bins), dtype=complex)
        self.x_power = np.zeros((m, self.n_bins))   # smoothed per-partition PSD
        self._psd_bias = 0.0                        # smoothing warm-up correction
        self.scale = 1.0
        # coherence trackers for the adaptive step
        self.err_cross = np.zeros((m, self.n_bins), dtype=complex)
        self.err_power = np.zeros(self.n_bins)
        self._coh_blocks = 0
        self.step_factor = 1.0

    @property
    def frame_size(self) -> int:
        return self.params.frame_size

    def _update_scale(self, e_block: np.ndarray) -> None:
        # Median capped at the clip limit: a burst can only grow the scale
        # multiplicatively, and the slow rise keeps both the limiter and the
        # step control armed through sustained double talk.
        capped = np.minimum(np.abs(e_block), self.params.gamma * self.scale)
        raw = np.median(capped) / MEDIAN_TO_SIGMA
        a = self.params.alpha if raw < self.scale else self.params.scale_rise
        self.scale = max(a * self.scale + (1.0 - a) * raw, SCALE_FLOOR)

    def _coherence_factor(self, err_spec: np.ndarray) -> float:
        """Fraction of the error still explainable by the far end, in [0, 1].

        Smoothed magnitude-squared coherence of the adaptation error with
        each partition's reference window; the best partition wins, so echo
        at any modelled lag keeps adaptation alive while uncorrelated
        near-end signal starves it. The independent-signal estimator floor
        (high while the trackers warm up) is subtracted, and the result is
        referenced to the ceiling a fully coherent error can reach.
        """
        b = COHERENCE_SMOOTHING
        self.err_cross = b * self.err_cross + (1 - b) * np.conj(self.x_spectra) * err_spec[None, :]
        self.err_power = b * self.err_power + (1 - b) * np.abs(err_spec) ** 2
        self._coh_blocks += 1
        den = self.x_power * self.err_power[None, :] + 1e-20
        rho = float(np.mean(np.abs(self.err_cross) ** 2 / den, axis=1).max())
        k_eff = min(self._coh_blocks, (1 + b) / (1 - b))
        floor = COHERENCE_BIAS_MULT / k_eff
        return min(1.0, max(rho - floor, 0.0) / COHERENCE_FULL_SCALE)

    def _filter(self) -> np.ndarray:
        spectrum = np.sum(self.weights * self.x_spectra, axis=0)
        n = self.params.frame_size
        return np.fft.irfft(spectrum, n=2 * n)[n:]

    def process_block(self, x_block: np.ndarray, y_block: np.ndarray):
        """Consume one far-end/microphone block pair of frame_size samples.

        Returns (e, d_hat): the echo-cancelled block and the echo estimate,
        both computed before this block's weight updates.
        """
        p = self.params
        n = p.frame_size
        x_block = np.asarray(x_block, dtype=float)
        y_block = np.asarray(y_block, dtype=float)
        if x_block.shape != (n,) or y_block.shape != (n,):
            raise InputError(
                f"blocks must have shape ({n},), got {x_block.shape} and {y_block.shape}")
        if not (np.all(np.isfinite(x_block)) and np.all(np.isfinite(y_block))):
            raise InputError("non-finite input block")

        self.x_buf = np.concatenate((self.x_buf[n:], x_block))
        self.x_spectra[1:] = self.x_spectra[:-1]
        self.x_spectra[0] = np.fft.rfft(self.x_buf)
        self.x_power = p.alpha * self.x_power + (1.0 - p.alpha) * np.abs(self.x_spectra) ** 2
        self._psd_bias = p.alpha * self._psd_bias + (1.0 - p.alpha)
        # NLMS normalization: far-end power summed over partitions
        # (per-partition normalization alone overshoots by a factor of M).
        norm = self.x_power.sum(axis=0) / self._psd_bias + DELTA

        d_hat = self._filter()
        e = y_block - d_hat

        e_adapt = e
        for it in range(p.iterations):
            if it == 0:
                raw = np.median(np.abs(e_adapt)) / MEDIAN_TO_SIGMA
                if raw > SILENCE_LEVEL:
                    burst = min(1.0, (p.gamma * self.scale / raw) ** 2)
                    err_spec = np.fft.rfft(np.concatenate((np.zeros(n), e_adapt)))
                    self.step_factor = burst * self._coherence_factor(err_spec)
                    self._update_scale(e_adapt)
                # silent block: gradients vanish anyway, keep previous factor
            e_clip = clip_error(e_adapt, self.scale, p)
            err_spec = np.fft.rfft(np.concatenate((np.zeros(n), e_clip)))
            grad = p.mu * self.step_factor * np.conj(self.x_spectra) \
                * err_spec[None, :] / norm[None, :]
            updated = self.weights + grad
            # Gradient constraint: keep each partition's response causal
            # within its block, removing circular-convolution wrap.
            w_time = np.fft.irfft(updated, n=2 * n, axis=1)
            w_time[:, n:] = 0.0
            self.weights = np.fft.rfft(w_time, axis=1)
            if it + 1 < p.iterations:
                e_adapt = y_block - self._filter()
        return e, d_hat

    def equivalent_response(self) -> np.ndarray:
        """Time-domain impulse response currently modelled by the weights."""
        n = self.params.frame_size
        w_time = np.fft.irfft(self.weights, n=2 * n, axis=1)[:, :n]
        return w_time.reshape(-1)


class CascadeRaec:
    """Two chained stages: the second cleans the first stage's error."""

    def __init__(self, params1: RaecParams, params2: RaecParams):
        if params1.frame_size != params2.frame_size:
            raise ConfigError("cascade stages must share one frame size")
        self.stage1 = Raec(params1)
        self.stage2 = Raec(params2)

    @property
    def frame_size(self) -> int:
        return self.stage1.params.frame_size

    def process_block(self, x_block: np.ndarray, y_block: np.ndarray):
        e1, _ = self.stage1.process_block(x_block, y_block)
        e2, _ = self.stage2.process_block(x_block, e1)
        return e2, y_block - e2

    def equivalent_response(self) -> np.ndarray:
        # Both stages filter the same reference, so their responses add.
        r1 = self.stage1.equivalent_response()
        r2 = self.stage2.equivalent_response()
        size = max(len(r1), len(r2))
        out = np.zeros(size)
        out[: len(r1)] += r1
        out[: len(r2)] += r2
        return out


def cascade_run(x: np.ndarray, y: np.ndarray, params1: RaecParams,
                params2: RaecParams):
    """Full-signal two-stage cancellation.

    Stage outputs chain (the second stage consumes the first stage's
    error), so the stages are free to use different block sizes. Returns
    (e, d_hat_total, stage1, stage2).
    """
    stage1 = Raec(params1)
    stage2 = Raec(params2)
    e1, _ = run_blocks(stage1, x, y)
    e2, _ = run_blocks(stage2, x, e1)
    y_padded = np.zeros(len(e2))
    y_padded[: len(y)] = y
    return e2, y_padded - e2, stage1, stage2


def run_blocks(canceler, x: np.ndarray, y: np.ndarray):
    """Drive a canceler over whole signals, zero-padding to a block multiple.

    Returns (e, d_hat) trimmed back to the longer input length.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    length = max(len(x), len(y))
    n = canceler.frame_size
    n_blocks = int(np.ceil(length / n)) if length else 0
    xp = np.zeros(n_blocks * n)
    yp = np.zeros(n_blocks * n)
    xp[: len(x)] = x
    yp[: len(y)] = y
    e = np.zeros(n_blocks * n)
    d_hat = np.zeros(n_blocks * n)
    for b in range(n_blocks):
        sl = slice(b * n, (b + 1) * n)
        e[sl], d_hat[sl] = canceler.process_block(xp[sl], yp[sl])
    return e[:length], d_hat[:length]

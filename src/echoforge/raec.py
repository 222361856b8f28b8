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

What depends on the far end alone (the reference spectra and their
conjugates, the conjugates scaled for the coherence recursion, the
smoothed power and the reciprocal NLMS normalization) is built for up to
CHUNK blocks at a time in one batched pass (`Raec.process`); the
per-block loop then does only the work that needs the microphone, in
work buffers made once per stage. A stage maps the microphone signal to
its error alone. Two instances chain into a cascade (`cascade_run`): the
second stage filters the same far-end reference and cancels what the
first left behind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, InputError
from .stft import smooth_frames

# NLMS normalization regularizer.
DELTA = 1e-3
# Lower bound for the robust scale estimate.
SCALE_FLOOR = 1e-6
# Upward smoothing of the robust scale (slow on purpose); downward uses alpha.
SCALE_RISE = 0.9995
# Blocks with a median |e| below this are silence: nothing to learn from.
SILENCE_LEVEL = 1e-5
# |e| median -> sigma for a Gaussian.
MEDIAN_TO_SIGMA = 0.6745
# Blocks per far-end table, which bounds its memory whatever the stream
# length. At 32 the peak RSS of a 10 s stream matched per-block far-end
# work; at 64 it was 2 MB higher, for no measurable speed-up.
CHUNK = 32
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
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"alpha must be in [0, 1), got {self.alpha}")


def clip_error(e_block: np.ndarray, scale: float, params: RaecParams) -> np.ndarray:
    """Error recovery nonlinearity: clip |e| at gamma*scale, keep the sign.

    Used only to form the adaptation error, never on the signal path.
    `Raec.process_block` takes the same clip in place, into its padded
    error buffer; this is the plain form the reference tests use.
    """
    limit = params.gamma * scale
    return np.clip(e_block, -limit, limit)


class Raec:
    """One adaptive stage. Strictly sequential per stream; never share.

    `process` is the entry point. It splits its input into chunks of up to
    CHUNK blocks and, for each chunk, builds the far-end table in one
    pass: the reference spectrum of every block's 2n window, its conjugate
    and its smoothed power, stored newest first behind the M - 1 newest
    rows of the previous chunk. Block j's partitions are then the
    contiguous (M, bins) views x_spectra, x_conj, x_conj_scaled and
    x_power (row 0 newest), and no row is ever shifted. From the all-zero
    start the power of partition m at block t is the power of partition 0
    at block t - m, so one recursion down the blocks gives the same bits as
    smoothing every partition anew. x_conj_scaled is
    (1 - COHERENCE_SMOOTHING) * x_conj, the coherence recursion's input
    factor. The table also holds each block's NLMS normalization as its
    reciprocal: numpy divides a complex value by a real one by multiplying
    both parts by the reciprocal, so multiplying by it gives the bits of
    the division, up to the sign of an exact zero. Both signals are
    checked once per call, before any block runs.
    """

    def __init__(self, params: RaecParams):
        self.params = params
        n = params.frame_size
        m = params.partitions
        self.n_bins = n + 1  # rfft bins of the 2n window
        self._x_last = np.zeros(n)                  # far-end block before the next chunk
        self.x_spectra = np.zeros((m, self.n_bins), dtype=complex)
        self.x_conj = np.zeros((m, self.n_bins), dtype=complex)
        self.x_conj_scaled = np.zeros((m, self.n_bins), dtype=complex)
        self.weights = np.zeros((m, self.n_bins), dtype=complex)
        self.x_power = np.zeros((m, self.n_bins))   # smoothed per-partition PSD
        self._psd_bias = 0.0                        # smoothing warm-up correction
        self.scale = 1.0
        # coherence trackers for the adaptive step
        self.err_cross = np.zeros((m, self.n_bins), dtype=complex)
        self.err_power = np.zeros(self.n_bins)
        self._coh_blocks = 0
        self.step_factor = 1.0
        # Work buffers, reused every block. _err_pad: row 0 holds the raw
        # error and row 1 the clipped one, each behind n zeros (the first n
        # columns stay zero); _err_specs their transforms. _work holds the
        # filter product, then the coherence cross term, then the gradient;
        # _step_conj the block's (mu * step) * conj(X); _w_time the
        # gradient-constrained response; _echo the filter's echo estimate.
        # _coh_num and _coh_den hold |cross|^2 and the coherence
        # denominator. The transforms write into them through numpy.fft's
        # out=, which needs numpy >= 2.0.
        self._err_pad = np.zeros((2, 2 * n))
        self._err_specs = np.zeros((2, self.n_bins), dtype=complex)
        self._work = np.zeros((m, self.n_bins), dtype=complex)
        self._step_conj = np.zeros((m, self.n_bins), dtype=complex)
        self._w_time = np.zeros((m, 2 * n))
        self._echo_spec = np.zeros(self.n_bins, dtype=complex)
        self._echo = np.zeros(2 * n)
        self._abs_e = np.zeros(n)
        self._err_mag = np.zeros(self.n_bins)
        self._coh_num = np.zeros((m, self.n_bins))
        self._coh_den = np.zeros((m, self.n_bins))
        self._coh_sums = np.zeros(m)
        # ranks of the two middle order statistics of an n-sample block
        self._mid_ranks = [(n - 1) // 2, n // 2]

    def process(self, x: np.ndarray, y: np.ndarray):
        """Consume far-end and microphone signals of a whole number of blocks.

        Returns e, the echo-cancelled signal, as a new array. Each block of
        it is computed before that block's weight updates, so any split of a
        signal into calls gives the same bits.
        """
        p = self.params
        n, m = p.frame_size, p.partitions
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or len(x) % n:
            raise InputError(
                f"signals must have one equal length in whole blocks of {n}, "
                f"got {x.shape} and {y.shape}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise InputError("non-finite input block")
        e = np.empty(len(y))
        for start in range(0, len(x), CHUNK * n):
            spectra, conj, conj_scaled, power, inv_norm = \
                self._far_end_table(x[start:start + CHUNK * n])
            k = len(inv_norm)
            for j in range(k):
                i = k - 1 - j   # block j's newest row
                self.x_spectra = spectra[i:i + m]
                self.x_conj = conj[i:i + m]
                self.x_conj_scaled = conj_scaled[i:i + m]
                self.x_power = power[i:i + m]
                sl = slice(start + j * n, start + (j + 1) * n)
                e[sl] = self.process_block(y[sl], inv_norm[i])
        return e

    def _far_end_table(self, x: np.ndarray):
        """Far-end rows for the k blocks of x, newest first.

        Returns (spectra, conj, conj_scaled, power, inv_norm). The first
        four have k + M - 1 rows: the chunk's blocks, then the M - 1 newest
        rows of the blocks before it. inv_norm, the reciprocal NLMS
        normalization, has one row per block of x.
        """
        p = self.params
        n, m = p.frame_size, p.partitions
        a = p.alpha
        windows = sliding_window_view(np.concatenate((self._x_last, x)), 2 * n)[::n]
        self._x_last = x[-n:].copy()
        spec = np.fft.rfft(windows[::-1], axis=1)
        k = len(spec)
        spectra = np.concatenate((spec, self.x_spectra[:m - 1]))
        power = np.concatenate(((1.0 - a) * np.abs(spec) ** 2, self.x_power[:m - 1]))
        # power_t = a * power_{t-1} + (1 - a) * |X_t|^2, oldest block first,
        # carried on from the newest row so far
        smooth_frames(power[k - 1::-1], self.x_power[0], a)
        bias = np.empty(k)
        for i in range(k - 1, -1, -1):
            self._psd_bias = a * self._psd_bias + (1.0 - a)
            bias[i] = self._psd_bias
        # NLMS normalization: far-end power summed over partitions
        # (per-partition normalization alone overshoots by a factor of M),
        # added newest row first as power.sum(axis=0) adds them.
        norm = power[:k].copy()
        for i in range(1, m):
            norm += power[i:i + k]
        norm /= bias[:, None]
        norm += DELTA
        conj = np.conj(spectra)
        inv_norm = np.divide(1.0, norm, out=norm)
        return spectra, conj, (1 - COHERENCE_SMOOTHING) * conj, power, inv_norm

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
        # err_cross = b * err_cross + ((1 - b) * conj(X)) * E, in place;
        # operand order matters: numpy's complex multiply is fused.
        cross = np.multiply(self.x_conj_scaled, err_spec, out=self._work)
        np.multiply(b, self.err_cross, out=self.err_cross)
        self.err_cross += cross
        # err_power = b * err_power + (1 - b) * |E|^2, in place
        mag = np.square(np.abs(err_spec, out=self._err_mag), out=self._err_mag)
        mag *= 1 - b
        self.err_power *= b
        self.err_power += mag
        self._coh_blocks += 1
        den = np.multiply(self.x_power, self.err_power, out=self._coh_den)
        den += 1e-20
        num = np.square(np.abs(self.err_cross, out=self._coh_num), out=self._coh_num)
        num /= den
        # best partition's mean over bins: division by the bin count keeps
        # the order, so the largest sum divided gives the largest mean exactly
        rho = float(np.maximum.reduce(
            np.add.reduce(num, axis=1, out=self._coh_sums))) / self.n_bins
        k_eff = min(self._coh_blocks, (1 + b) / (1 - b))
        floor = COHERENCE_BIAS_MULT / k_eff
        return min(1.0, max(rho - floor, 0.0) / COHERENCE_FULL_SCALE)

    def _filter(self) -> np.ndarray:
        """The filter's echo estimate for this block, into _echo."""
        n = self.params.frame_size
        product = np.multiply(self.weights, self.x_spectra, out=self._work)
        np.add.reduce(product, axis=0, out=self._echo_spec)
        return np.fft.irfft(self._echo_spec, n=2 * n, out=self._echo)[n:]

    def process_block(self, y_block: np.ndarray, inv_norm: np.ndarray):
        """One block's microphone-side work, called by `process`.

        The far-end views x_spectra, x_conj, x_conj_scaled and x_power and
        the reciprocal NLMS normalization inv_norm are this block's rows of
        the far-end table. Returns e for y_block, computed before this
        block's weight updates. It is a view of this stage's work buffers,
        overwritten by the next block: `process` copies it out.
        """
        p = self.params
        n = p.frame_size
        pad = self._err_pad
        grad = self._work
        step_conj = self._step_conj
        e = np.subtract(y_block, self._filter(), out=pad[0, n:])

        e_adapt = e
        for it in range(p.iterations):
            burst = None
            if it == 0:
                # One partition yields the median of |e| and, since capping
                # at the clip limit keeps the order, the capped median too.
                mags = np.abs(e, out=self._abs_e)
                mags.partition(self._mid_ranks)
                lo, hi = mags[self._mid_ranks].tolist()
                raw = (lo + hi) / 2 / MEDIAN_TO_SIGMA
                if raw > SILENCE_LEVEL:
                    limit = p.gamma * self.scale
                    burst = min(1.0, (limit / raw) ** 2)
                    # Median capped at the clip limit: a burst can only grow
                    # the scale multiplicatively, and the slow rise keeps both
                    # the limiter and the step control armed through
                    # sustained double talk.
                    capped = (min(lo, limit) + min(hi, limit)) / 2 / MEDIAN_TO_SIGMA
                    a = p.alpha if capped < self.scale else SCALE_RISE
                    self.scale = max(a * self.scale + (1.0 - a) * capped, SCALE_FLOOR)
            else:
                e_adapt = np.subtract(y_block, self._filter(), out=pad[1, n:])
            # clip_error in place, with the scale this block's update has
            # already moved
            limit = p.gamma * self.scale
            np.minimum(np.maximum(e_adapt, -limit, out=pad[1, n:]), limit, out=pad[1, n:])
            if burst is None:
                # later iteration, or a silent block whose gradients vanish
                # anyway: keep the previous step factor
                err_spec = np.fft.rfft(pad[1], out=self._err_specs[1])
            else:
                # one transform for the coherence error and the clipped error
                err_specs = np.fft.rfft(pad, out=self._err_specs)
                self.step_factor = burst * self._coherence_factor(err_specs[0])
                err_spec = err_specs[1]
            if it == 0:
                # the step factor is settled for the block from here on
                np.multiply(p.mu * self.step_factor, self.x_conj, out=step_conj)
            # grad = ((mu * step) * conj(X)) * E * (1 / norm), in place
            np.multiply(step_conj, err_spec, out=grad)
            np.multiply(grad, inv_norm, out=grad)
            np.add(self.weights, grad, out=grad)
            # Gradient constraint: keep each partition's response causal
            # within its block, removing circular-convolution wrap: only the
            # first n taps go back, zero-padded to 2n.
            w_time = np.fft.irfft(grad, n=2 * n, axis=1, out=self._w_time)
            w_time[:, n:] = 0.0
            np.fft.rfft(w_time, axis=1, out=self.weights)
        return e

    def equivalent_response(self) -> np.ndarray:
        """Time-domain impulse response currently modelled by the weights."""
        n = self.params.frame_size
        w_time = np.fft.irfft(self.weights, n=2 * n, axis=1)[:, :n]
        return w_time.reshape(-1)


def cascade_run(x: np.ndarray, y: np.ndarray, params1: RaecParams,
                params2: RaecParams):
    """Full-signal two-stage cancellation.

    Stage outputs chain (the second stage consumes the first stage's
    error), so the stages are free to use different block sizes. Returns
    (e, d_hat): the cascade's error and its total echo estimate y - e,
    formed once at the end.
    """
    e = run_blocks(Raec(params1), x, y)
    e = run_blocks(Raec(params2), x, e)
    return e, pad_to(np.asarray(y, dtype=float), len(e)) - e


def pad_to(signal: np.ndarray, length: int) -> np.ndarray:
    """signal zero-padded at the end to length; signal itself, not a copy,
    when it already has that length."""
    if len(signal) == length:
        return signal
    padded = np.zeros(length)
    padded[: len(signal)] = signal
    return padded


def run_blocks(canceler, x: np.ndarray, y: np.ndarray):
    """Drive a canceler over whole signals, zero-padding to a block multiple.

    Only a signal whose length is not that multiple is copied. Returns e
    trimmed back to the longer input length.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    length = max(len(x), len(y))
    n = canceler.params.frame_size
    padded = -(-length // n) * n
    return canceler.process(pad_to(x, padded), pad_to(y, padded))[:length]

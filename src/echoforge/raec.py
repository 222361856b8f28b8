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

An error that grows while it stays coherent with the far end is echo the
filter no longer models, as after a change of the echo path: the robust
scale then follows it at the smoothing rate instead of its slow rise, so
neither control holds the stage off while it retracks.

The default cascade pairs a long, slow stage with a short, fast one, after
the combinations of a slow and a fast adaptive filter of Arenas-García,
Figueiras-Vidal & Sayed (IEEE TSP 2006). Stage 1 (8 partitions, step 0.5)
models the whole echo path; stage 2 (1 partition, step 1.0) cancels what
stage 1 leaves in the first block of lags, and after a path change it
recovers that part of the echo sooner than stage 1 alone.

A `Raec` is a stack of such stages on one block size and iteration
count, run in one block loop. Each stage filters the same far-end
reference and cancels what the stage before it left behind in the same
block, so a stack of two is the two-stage cascade with the latency of one
block. What depends on the far end alone (the reference spectra and their
conjugates, the conjugates scaled for the coherence recursion, and per
stage the smoothed power and the reciprocal NLMS normalization) is built
for up to CHUNK blocks at a time in one batched pass (`Raec.process`); the
per-block loop then does only the work that needs the microphone, in
work buffers made once per stack. The stages' weights are rows of one
array, so each block makes the same transforms whatever the stage count:
one inverse transform for all echo estimates, one transform for all
errors, and one gradient constraint over all partitions. A stack maps
the microphone signal to its last stage's error alone, and so does
`cascade_run`: it runs two stages as one stack when they share the block
size and iteration count (the defaults do), else as two one-stage stacks
in turn; both give the bits of the stages run one after the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, InputError, gene, is_pow2, require_finite, require_unit
from .stft import smooth_frames

# NLMS normalization regularizer.
DELTA = 1e-3
# Lower bound for the robust scale estimate.
SCALE_FLOOR = 1e-6
# Upward smoothing of the robust scale (slow on purpose); downward uses alpha.
SCALE_RISE = 0.9995
# Coherence factor from which a rising error is read as a changed echo path
# rather than near-end interference: the robust scale then rises at alpha
# toward the uncapped median, so the limiter and the burst factor let the
# stage retrack instead of holding its step near zero.
PATH_CHANGE_COHERENCE = 0.5
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
    frame_size: int = gene(256, 64, 1024, "pow2")  # block advance; FFT size is twice this
    partitions: int = gene(8, 1, 16)
    iterations: int = gene(2, 1, 4)          # weight updates per block
    mu: float = gene(0.5, 0.05, 1.9)         # NLMS step size
    gamma: float = gene(1.5, 0.5, 4.0)       # clip threshold in units of the robust scale
    alpha: float = gene(0.9, 0.5, 0.995)     # PSD smoothing / downward scale smoothing

    def __post_init__(self):
        require_finite(self)
        if not is_pow2(self.frame_size):
            raise ConfigError(f"frame_size must be a power of two, got {self.frame_size}")
        if self.partitions < 1:
            raise ConfigError(f"partitions must be >= 1, got {self.partitions}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not 0.0 < self.mu < 2.0:
            raise ConfigError(f"mu must be in (0, 2), got {self.mu}")
        if self.gamma <= 0.0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        require_unit(self, "alpha")


def clip_error(e_block: np.ndarray, scale: float, params: RaecParams) -> np.ndarray:
    """Error recovery nonlinearity: clip |e| at gamma*scale, keep the sign.

    Used only to form the adaptation error, never on the signal path.
    `Raec.process_block` takes the same clip in place, into its padded
    error buffer; this is the plain form the reference tests use.
    """
    limit = params.gamma * scale
    return np.clip(e_block, -limit, limit)


class Stage:
    """One stage of a `Raec` stack: its parameters and its adaptive state.

    weights are this stage's rows of the stack's weights, and its work
    buffers are views of the stack's (see `Raec.__init__`). x_spectra,
    x_conj, x_conj_scaled, x_power and inv_norm are the current block's
    far-end rows, set by `Raec.process`: the first M rows of the stack's
    shared spectrum table (row 0 newest) and this stage's own rows of its
    power and normalization tables.
    """

    def __init__(self, params: RaecParams, stack: "Raec", s: int, rows: slice):
        self.params = params
        n, m = params.frame_size, params.partitions
        n_bins = n + 1
        count = len(stack._echo)
        self.weights = stack._weights[rows]
        # this block's far-end rows, set by Raec.process
        self.x_spectra = self.x_conj = self.x_conj_scaled = self.inv_norm = None
        self.x_power = np.zeros((m, n_bins))     # smoothed per-partition PSD
        self._psd_bias = np.zeros(1)             # smoothing warm-up correction
        self.scale = 1.0
        # coherence trackers for the adaptive step
        self.err_cross = np.zeros((m, n_bins), dtype=complex)
        self.err_power = np.zeros(n_bins)
        self._coh_blocks = 0
        self.coherence = 0.0      # the last non-silent block's coherence factor
        self.step_factor = 1.0
        # Work buffers, reused every block. Views of the stack's: _work,
        # this stage's rows of the filter products, coherence cross terms
        # and gradients; _echo_spec and _echo, its echo estimate; _raw and
        # _clipped, its raw and clipped errors, and _raw_spec and _clip_spec
        # their transforms. Its own: _step_conj holds the block's
        # (mu * step) * conj(X); _coh_num and _coh_den |cross|^2 and the
        # coherence denominator.
        self._work = stack._work[rows]
        self._echo_spec = stack._echo_spec[s]
        self._echo = stack._echo[s, n:]
        self._raw = stack._err_pad[s, n:]
        self._clipped = stack._err_pad[count + s, n:]
        self._raw_spec = stack._err_specs[s]
        self._clip_spec = stack._err_specs[count + s]
        self._step_conj = np.zeros((m, n_bins), dtype=complex)
        self._abs_e = np.zeros(n)
        self._err_mag = np.zeros(n_bins)
        self._coh_num = np.zeros((m, n_bins))
        self._coh_den = np.zeros((m, n_bins))
        self._coh_sums = np.zeros(m)
        # ranks of the two middle order statistics of an n-sample block
        self._mid_ranks = [(n - 1) // 2, n // 2]

    def _power_table(self, sq: np.ndarray):
        """This stage's smoothed power and reciprocal NLMS normalization for
        a chunk whose far-end spectra have squared magnitudes sq, newest
        first. power has k + M - 1 rows (the chunk's, then the M - 1 newest
        of the chunk before), inv_norm one per block. `smooth_frames` runs
        power_t = a * power_{t-1} + (1 - a) * |X_t|^2, oldest block first,
        and its warm-up correction, the same recursion on a unit input. The
        NLMS normalization sums the power over partitions, newest first, as
        the per-partition power alone overshoots by a factor of M."""
        m, a = self.params.partitions, self.params.alpha
        k = len(sq)
        power = np.concatenate(((1.0 - a) * sq, self.x_power[:m - 1]))
        smooth_frames(power[k - 1::-1], self.x_power[0], a)
        bias = smooth_frames(np.full((k, 1), 1.0 - a), self._psd_bias, a)
        self._psd_bias = bias[-1]
        norm = np.add.reduce(sliding_window_view(power, m, axis=0), axis=-1)
        norm /= bias[::-1]
        norm += DELTA
        return power, np.divide(1.0, norm, out=norm)

    def _update_scale(self):
        """Move the robust scale by this block's raw error; return the
        burst factor of the step control, or None for a silent block.

        The scale falls at alpha and rises slowly toward the median capped
        at the clip limit, unless the coherence factor of the block before
        says the error is still far-end echo (PATH_CHANGE_COHERENCE): then
        it rises at alpha toward the raw median."""
        p = self.params
        # One partition yields the median of |e| and, since capping at the
        # clip limit keeps the order, the capped median too.
        mags = np.abs(self._raw, out=self._abs_e)
        mags.partition(self._mid_ranks)
        lo, hi = mags[self._mid_ranks].tolist()
        raw = (lo + hi) / 2 / MEDIAN_TO_SIGMA
        if raw <= SILENCE_LEVEL:
            return None
        limit = p.gamma * self.scale
        burst = min(1.0, (limit / raw) ** 2)
        # Median capped at the clip limit: a burst can only grow the scale
        # multiplicatively, and the slow rise keeps both the limiter and the
        # step control armed through sustained double talk.
        capped = (min(lo, limit) + min(hi, limit)) / 2 / MEDIAN_TO_SIGMA
        if capped < self.scale:
            a, target = p.alpha, capped
        elif self.coherence >= PATH_CHANGE_COHERENCE:
            a, target = p.alpha, raw
        else:
            a, target = SCALE_RISE, capped
        self.scale = max(a * self.scale + (1.0 - a) * target, SCALE_FLOOR)
        return burst

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
            np.add.reduce(num, axis=1, out=self._coh_sums))) / len(err_spec)
        k_eff = min(self._coh_blocks, (1 + b) / (1 - b))
        floor = COHERENCE_BIAS_MULT / k_eff
        return min(1.0, max(rho - floor, 0.0) / COHERENCE_FULL_SCALE)


class Raec:
    """A stack of adaptive stages run in one block loop. Strictly
    sequential per stream; never share.

    `Raec(p)` is one stage; `Raec(p1, p2, ...)` chains stages that share
    frame_size and iterations, each filtering the same far-end reference
    and cancelling what the stage before it left behind: stage s takes the
    error of stage s - 1 for the same block, formed before either stage's
    update, so the stack gives the bits of the stages run one after the
    other, with the latency of one block. The stages' weights are rows of
    one (M1 + M2 + ...)-row array, so each transform and the gradient step
    run once per block over all of them; each stage keeps its own power
    table, normalization, robust scale, step factor and coherence trackers
    (`stages`).

    `process` is the entry point. It splits its input into chunks of up to
    CHUNK blocks and, for each chunk, builds the far-end table in one
    pass: the reference spectrum of every block's 2n window and its
    conjugate, shared by the stages, and each stage's smoothed power,
    stored newest first behind the newest rows of the previous chunk.
    Block j's partitions are then contiguous (M, bins) views (row 0
    newest), and no row is ever shifted. From the all-zero start the power
    of partition m at block t is the power of partition 0 at block t - m,
    so one recursion down the blocks gives the same bits as smoothing
    every partition anew. x_conj_scaled is (1 - COHERENCE_SMOOTHING) *
    x_conj, the coherence recursion's input factor. Each stage's table
    also holds each block's NLMS normalization as its reciprocal: numpy
    divides a complex value by a real one by multiplying both parts by the
    reciprocal, so multiplying by it gives the bits of the division, up to
    the sign of an exact zero. Both signals are checked once per call,
    before any block runs.
    """

    def __init__(self, *params: RaecParams):
        n, iterations = params[0].frame_size, params[0].iterations
        if any((p.frame_size, p.iterations) != (n, iterations) for p in params):
            raise ConfigError(
                "stacked stages must share frame_size and iterations, got "
                + ", ".join(f"{p.frame_size}/{p.iterations}" for p in params))
        self.frame_size = n
        self.iterations = iterations
        n_bins = n + 1
        bounds = np.cumsum([0] + [p.partitions for p in params]).tolist()
        self._x_last = np.zeros(n)      # far-end block before the next chunk
        # the M - 1 newest spectra of the chunk before, for the deepest stage
        self._spectra_tail = np.zeros((max(p.partitions for p in params) - 1, n_bins),
                                      dtype=complex)
        self._weights = np.zeros((bounds[-1], n_bins), dtype=complex)
        # Work buffers, reused every block; each stage holds views of its
        # rows. _err_pad: rows 0..S-1 hold each stage's raw error and rows
        # S..2S-1 its clipped one, each behind n zeros (the first n columns
        # stay zero); _err_specs their transforms. _work holds the stages'
        # filter products, coherence cross terms and gradients; _w_time the
        # gradient-constrained responses; _echo_spec and _echo the stages'
        # echo estimates. The transforms write into them through
        # numpy.fft's out=, which needs numpy >= 2.0.
        count = len(params)
        self._work = np.zeros((bounds[-1], n_bins), dtype=complex)
        self._w_time = np.zeros((bounds[-1], 2 * n))
        self._err_pad = np.zeros((2 * count, 2 * n))
        self._err_specs = np.zeros((2 * count, n_bins), dtype=complex)
        self._echo_spec = np.zeros((count, n_bins), dtype=complex)
        self._echo = np.zeros((count, 2 * n))
        self.stages = [Stage(p, self, s, slice(a, b))
                       for s, (p, a, b) in enumerate(zip(params, bounds[:-1], bounds[1:]))]

    def process(self, x: np.ndarray, y: np.ndarray):
        """Consume far-end and microphone signals of a whole number of blocks.

        Returns e, the last stage's echo-cancelled signal, as a new array.
        Each block of it is computed before that block's weight updates, so
        any split of a signal into calls gives the same bits.
        """
        n = self.frame_size
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
            chunk = x[start:start + CHUNK * n]
            spectra, conj, conj_scaled, tables = self._far_end_table(chunk)
            k = len(chunk) // n
            for j in range(k):
                i = k - 1 - j   # block j's newest row
                for stage, m, power, inv_norm in tables:
                    stage.x_spectra = spectra[i:i + m]
                    stage.x_conj = conj[i:i + m]
                    stage.x_conj_scaled = conj_scaled[i:i + m]
                    stage.x_power = power[i:i + m]
                    stage.inv_norm = inv_norm[i]
                sl = slice(start + j * n, start + (j + 1) * n)
                e[sl] = self.process_block(y[sl])
        return e

    def _far_end_table(self, x: np.ndarray):
        """Far-end rows for the k blocks of x, newest first.

        Returns (spectra, conj, conj_scaled, tables). The first three are
        shared by the stages and have k + M_max - 1 rows: the chunk's
        blocks, then the M_max - 1 newest rows of the blocks before it.
        tables holds (stage, M, power, inv_norm) for each stage, the last
        two from `Stage._power_table`.
        """
        n = self.frame_size
        windows = sliding_window_view(np.concatenate((self._x_last, x)), 2 * n)[::n]
        self._x_last = x[-n:].copy()
        spec = np.fft.rfft(windows[::-1], axis=1)
        spectra = np.concatenate((spec, self._spectra_tail))
        self._spectra_tail = spectra[:len(self._spectra_tail)]
        sq = np.abs(spec) ** 2
        tables = [(stage, stage.params.partitions, *stage._power_table(sq))
                  for stage in self.stages]
        conj = np.conj(spectra)
        return spectra, conj, (1 - COHERENCE_SMOOTHING) * conj, tables

    def _filter(self) -> None:
        """Each stage's echo estimate for this block, into its _echo."""
        for stage in self.stages:
            product = np.multiply(stage.weights, stage.x_spectra, out=stage._work)
            np.add.reduce(product, axis=0, out=stage._echo_spec)
        n = self.frame_size
        np.fft.irfft(self._echo_spec, n=2 * n, axis=1, out=self._echo)

    def process_block(self, y_block: np.ndarray):
        """One block's microphone-side work for the whole stack, called by
        `process` once each stage's far-end rows are set.

        Returns the last stage's e for y_block, computed before this
        block's weight updates. It is a view of the stack's work buffers,
        overwritten by the next block: `process` copies it out.
        """
        n = self.frame_size
        stages = self.stages
        count = len(stages)
        self._filter()
        # stage s cancels what stage s - 1 left: its input is that error
        inputs, bursts = [], []
        e = y_block
        for stage in stages:
            inputs.append(e)
            e = np.subtract(e, stage._echo, out=stage._raw)
            bursts.append(stage._update_scale())

        for it in range(self.iterations):
            if it:
                self._filter()
            for stage, e_in in zip(stages, inputs):
                e_adapt = np.subtract(e_in, stage._echo, out=stage._clipped) if it \
                    else stage._raw
                # clip_error in place, with the scale this block's update
                # has already moved
                limit = stage.params.gamma * stage.scale
                np.minimum(np.maximum(e_adapt, -limit, out=stage._clipped), limit,
                           out=stage._clipped)
            if it == 0:
                # one transform for the coherence errors and the clipped ones
                np.fft.rfft(self._err_pad, out=self._err_specs)
                for stage, burst in zip(stages, bursts):
                    # a silent block's gradients vanish anyway: keep the
                    # previous step factor
                    if burst is not None:
                        stage.coherence = stage._coherence_factor(stage._raw_spec)
                        stage.step_factor = burst * stage.coherence
                    # the step factor is settled for the block from here on
                    np.multiply(stage.params.mu * stage.step_factor, stage.x_conj,
                                out=stage._step_conj)
            else:
                np.fft.rfft(self._err_pad[count:], out=self._err_specs[count:])
            # grad = ((mu * step) * conj(X)) * E * (1 / norm), in place
            for stage in stages:
                grad = np.multiply(stage._step_conj, stage._clip_spec, out=stage._work)
                np.multiply(grad, stage.inv_norm, out=grad)
            grad = np.add(self._weights, self._work, out=self._work)
            # Gradient constraint: keep each partition's response causal
            # within its block, removing circular-convolution wrap: only the
            # first n taps go back, zero-padded to 2n.
            w_time = np.fft.irfft(grad, n=2 * n, axis=1, out=self._w_time)
            w_time[:, n:] = 0.0
            np.fft.rfft(w_time, axis=1, out=self._weights)
        return e

    def equivalent_response(self) -> np.ndarray:
        """Time-domain impulse response currently modelled by the stack: the
        stages filter the same reference, so their responses add."""
        n = self.frame_size
        response = np.zeros(max(s.params.partitions for s in self.stages) * n)
        for stage in self.stages:
            taps = np.fft.irfft(stage.weights, n=2 * n, axis=1)[:, :n].reshape(-1)
            response[:len(taps)] += taps
        return response


def cascade_run(x: np.ndarray, y: np.ndarray, params1: RaecParams,
                params2: RaecParams):
    """Full-signal two-stage cancellation.

    The second stage cancels what the first left behind. Stages that share
    frame_size and iterations (the defaults do) run as one `Raec` stack,
    one block loop over both, and the cascade keeps the latency of one
    block; otherwise each runs as its own one-stage stack on its own block
    size, the second on the first's whole output. Both ways give the same
    bits. Returns the cascade's error e alone; its echo estimate is y - e.
    """
    if (params1.frame_size, params1.iterations) == (params2.frame_size, params2.iterations):
        return run_blocks(Raec(params1, params2), x, y)
    return run_blocks(Raec(params2), x, run_blocks(Raec(params1), x, y))


def pad_to(signal: np.ndarray, length: int) -> np.ndarray:
    """signal zero-padded at the end to length; signal itself, not a copy,
    when it already has that length."""
    if len(signal) == length:
        return signal
    padded = np.zeros(length)
    padded[: len(signal)] = signal
    return padded


def run_blocks(canceler: Raec, x: np.ndarray, y: np.ndarray):
    """Drive a canceler stack over whole signals, zero-padding to a
    multiple of its block size, once for all its stages.

    Only a signal whose length is not that multiple is copied. Returns the
    last stage's e trimmed back to the longer input length.
    """
    length = max(len(x), len(y))
    n = canceler.frame_size
    padded = -(-length // n) * n
    return canceler.process(pad_to(x, padded), pad_to(y, padded))[:length]

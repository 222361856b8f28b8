import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echoforge import raec
from echoforge.errors import ConfigError, InputError
from echoforge.params import build_pipeline_params
from echoforge.raec import Raec, RaecParams, cascade_run, clip_error, run_blocks

FS = 16000


def nlms_oracle(x, y, taps=8, mu=0.5):
    """Plain time-domain NLMS, the independent reference for convergence."""
    h = np.zeros(taps)
    buf = np.zeros(taps)
    for n in range(len(x)):
        buf[1:] = buf[:-1]
        buf[0] = x[n]
        err = y[n] - h @ buf
        h += mu * err * buf / (buf @ buf + 1e-8)
    return h


class TestPassthrough:
    def test_zero_far_end_is_bit_exact(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(FS) * 0.3
        e = run_blocks(Raec(RaecParams()), np.zeros(FS), y)
        assert np.array_equal(e, y)

    def test_zero_far_end_cascade(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(FS) * 0.3
        e = cascade_run(np.zeros(FS), y, RaecParams(), RaecParams(partitions=4))
        assert np.array_equal(e, y)


class TestConvergence:
    def test_single_tap_matches_nlms_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(5 * FS) * 0.1
        y = 0.5 * x
        oracle = nlms_oracle(x[: FS], y[: FS])
        assert oracle[0] == pytest.approx(0.5, abs=0.01)

        aec = Raec(RaecParams())
        run_blocks(aec, x, y)
        h = aec.equivalent_response()
        assert h[0] == pytest.approx(0.5, abs=0.01)
        assert np.all(np.abs(h[1:]) < 0.01)

    # stage 2 as acceptance 02 runs it, and as shipped (the defaults on
    # PipelineParams.raec2)
    @pytest.mark.parametrize("stage2", [RaecParams(partitions=4), build_pipeline_params().raec2],
                             ids=["four_partitions", "shipped"])
    def test_erle_on_random_path_and_cascade_wins(self, stage2):
        rng = np.random.default_rng(7)
        g = rng.standard_normal(256)
        g /= np.sqrt(np.sum(g**2))
        x = rng.standard_normal(10 * FS) * 0.1
        y = np.convolve(x, g)[: len(x)]  # direct-convolution oracle for the echo

        single = Raec(RaecParams())
        e1 = run_blocks(single, x, y)
        erle_single = 10 * np.log10(np.sum(y[-FS:] ** 2) / np.sum(e1[-FS:] ** 2))

        e2 = cascade_run(x, y, RaecParams(), stage2)
        erle_cascade = 10 * np.log10(np.sum(y[-FS:] ** 2) / np.sum(e2[-FS:] ** 2))

        assert erle_single >= 20.0
        assert erle_cascade >= erle_single

    def test_reconverges_after_an_echo_path_change(self):
        # Acceptance 02's input, one second longer, with the 256-tap path
        # swapped for a second draw at 6 s. Measured on the default cascade,
        # 0.05-0.95 s windows after the swap: 11.5 dB at +1 s, 27.0 at +2 s,
        # 45.1 at +4 s (50.3 before the swap). With the robust scale's slow
        # rise alone the ERLE stays at -3.1 dB; with the fast rise and a
        # stage 2 of four partitions at mu 0.5 it reads 10.7 dB at +2 s and
        # 16.1 at +4 s.
        rng = np.random.default_rng(7)
        g = rng.standard_normal(256)
        g /= np.sqrt(np.sum(g**2))
        x = rng.standard_normal(11 * FS) * 0.1
        g2 = rng.standard_normal(256)
        g2 /= np.sqrt(np.sum(g2**2))
        swap = 6 * FS
        y = np.convolve(x, g)[: len(x)]
        y[swap:] = np.convolve(x, g2)[swap: len(x)]
        defaults = build_pipeline_params()
        e = cascade_run(x, y, defaults.raec1, defaults.raec2)

        def erle_after(seconds):
            sl = slice(swap + int((seconds + 0.05) * FS), swap + int((seconds + 0.95) * FS))
            return 10 * np.log10(np.sum(y[sl] ** 2) / np.sum(e[sl] ** 2))

        assert erle_after(2) >= 20.0
        assert erle_after(4) >= 40.0

    def test_near_end_only_distortion_below_one_percent(self):
        from conftest import speech_like

        rng = np.random.default_rng(11)
        x = rng.standard_normal(10 * FS) * 0.1
        s = speech_like(10.0, seed=12, rms=0.03)
        e = cascade_run(x, s, RaecParams(), RaecParams(partitions=4))
        tail = slice(5 * FS, None)
        distortion = np.sum((e[tail] - s[tail]) ** 2) / np.sum(s[tail] ** 2)
        assert distortion < 0.01

    def test_frozen_second_stage_passes_first_stage_through(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal(64)
        g /= np.sqrt(np.sum(g**2))
        x = rng.standard_normal(2 * FS) * 0.1
        y = np.convolve(x, g)[: len(x)]

        single = Raec(RaecParams())
        e_single = run_blocks(single, x, y)
        e_cascade = cascade_run(x, y, RaecParams(), RaecParams(partitions=4, mu=1e-9))
        # a second stage that cannot adapt leaves the first stage's error intact
        assert np.allclose(e_cascade, e_single, atol=1e-6)


class TestRobustControls:
    def test_clip_identity_below_threshold(self):
        p = RaecParams()
        e = np.array([0.1, -0.2, 0.3])
        assert np.array_equal(clip_error(e, 1.0, p), e)

    def test_clip_limits_large_errors(self):
        p = RaecParams()
        threshold = p.gamma * 1.0
        e = np.array([10 * threshold, -10 * threshold])
        clipped = clip_error(e, 1.0, p)
        assert np.allclose(clipped, [threshold, -threshold])

    def test_scale_stays_positive_on_silence(self):
        aec = Raec(RaecParams())
        for _ in range(50):
            aec.process(np.zeros(256), np.zeros(256))
        assert aec.stages[0].scale > 0


class TestContracts:
    def test_block_length_mismatch(self):
        aec = Raec(RaecParams())
        with pytest.raises(InputError):
            aec.process(np.zeros(128), np.zeros(256))

    def test_nonfinite_input(self):
        aec = Raec(RaecParams())
        bad = np.zeros(256)
        bad[0] = np.inf
        with pytest.raises(InputError):
            aec.process(bad, np.zeros(256))

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            RaecParams(frame_size=100)
        with pytest.raises(ConfigError):
            RaecParams(mu=2.5)
        with pytest.raises(ConfigError):
            RaecParams(gamma=0.0)
        with pytest.raises(ConfigError):
            RaecParams(partitions=0)
        with pytest.raises(ConfigError, match="iterations"):
            RaecParams(iterations=0)

    def test_stack_needs_one_block_size_and_iteration_count(self):
        for other in (RaecParams(frame_size=128), RaecParams(iterations=3)):
            with pytest.raises(ConfigError):
                Raec(RaecParams(), other)

    def test_determinism(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(FS) * 0.1
        y = rng.standard_normal(FS) * 0.1
        e_a = run_blocks(Raec(RaecParams()), x, y)
        e_b = run_blocks(Raec(RaecParams()), x, y)
        assert np.array_equal(e_a, e_b)


class TestStability:
    def test_energy_bounded_on_adversarial_input(self):
        from conftest import music_like, speech_like

        # full-scale mix of tonal + broadband far end, correlated mic
        n = 30 * FS
        t = np.arange(n) / FS
        x = 0.5 * np.sin(2 * np.pi * 440 * t) + 0.5 * music_like(30.0, seed=21, rms=0.2)
        x = np.clip(x, -1, 1)
        g = np.zeros(400)
        g[::37] = 0.15
        y = np.convolve(x, g)[:n] + speech_like(30.0, seed=22, rms=0.1)
        y = np.clip(y, -1, 1)

        # the stack cascade_run builds, kept to read its stages' weights
        aec = Raec(RaecParams(), RaecParams(partitions=4))
        e = run_blocks(aec, x, y)
        assert np.all(np.isfinite(e))
        for sec in range(30):
            sl = slice(sec * FS, (sec + 1) * FS)
            assert np.sum(e[sl] ** 2) <= 10.0 * np.sum(y[sl] ** 2) + 1e-9
        assert np.all(np.isfinite(aec.stages[0].weights))
        assert np.all(np.isfinite(aec.stages[1].weights))


BLOCK_KINDS = ("echo", "silent", "burst", "far_end_off")


def _blocks(n, kinds, seed):
    """Far-end/mic block pairs of n samples: far-end noise through a short
    decaying path plus a little mic noise, with all-zero blocks, near-end
    bursts and far-end-off blocks mixed in as `kinds` says."""
    rng = np.random.default_rng(seed)
    path = rng.standard_normal(n) * np.exp(-np.arange(n) / (n / 8))
    x = rng.standard_normal(len(kinds) * n) * 0.1
    y = np.convolve(x, path)[: len(x)] + 1e-3 * rng.standard_normal(len(x))
    for k, kind in enumerate(kinds):
        xb, yb = x[k * n:(k + 1) * n].copy(), y[k * n:(k + 1) * n].copy()
        if kind == "silent":
            xb[:] = 0.0
            yb[:] = 0.0
        elif kind == "burst":
            yb += rng.standard_normal(n)
        elif kind == "far_end_off":
            xb[:] = 0.0
        yield xb, yb


class PlainRaec:
    """Reference formulation of one stage: every far-end row smoothed anew
    per block, two np.median passes over the error, one transform per
    error signal, the scale moved with the coherence factor of the block
    before, and the clip taken with the scale after this block's update.
    Raec must match it bit for bit."""

    def __init__(self, p: RaecParams):
        n, m = p.frame_size, p.partitions
        self.p = p
        self.x_buf = np.zeros(2 * n)
        self.x_spectra = np.zeros((m, n + 1), dtype=complex)
        self.x_power = np.zeros((m, n + 1))
        self.weights = np.zeros((m, n + 1), dtype=complex)
        self.psd_bias = 0.0
        self.scale = 1.0
        self.err_cross = np.zeros((m, n + 1), dtype=complex)
        self.err_power = np.zeros(n + 1)
        self.coh_blocks = 0
        self.coherence = 0.0
        self.step_factor = 1.0

    def coherence_factor(self, err_spec):
        b = raec.COHERENCE_SMOOTHING
        self.err_cross = b * self.err_cross + (1 - b) * np.conj(self.x_spectra) * err_spec[None, :]
        self.err_power = b * self.err_power + (1 - b) * np.abs(err_spec) ** 2
        self.coh_blocks += 1
        den = self.x_power * self.err_power[None, :] + 1e-20
        rho = float(np.mean(np.abs(self.err_cross) ** 2 / den, axis=1).max())
        floor = raec.COHERENCE_BIAS_MULT / min(self.coh_blocks, (1 + b) / (1 - b))
        return min(1.0, max(rho - floor, 0.0) / raec.COHERENCE_FULL_SCALE)

    def filter(self):
        n = self.p.frame_size
        return np.fft.irfft(np.sum(self.weights * self.x_spectra, axis=0), n=2 * n)[n:]

    def process_block(self, x_block, y_block):
        p, n = self.p, self.p.frame_size
        zeros = np.zeros(n)
        self.x_buf = np.concatenate((self.x_buf[n:], x_block))
        self.x_spectra[1:] = self.x_spectra[:-1]
        self.x_spectra[0] = np.fft.rfft(self.x_buf)
        self.x_power = p.alpha * self.x_power + (1.0 - p.alpha) * np.abs(self.x_spectra) ** 2
        self.psd_bias = p.alpha * self.psd_bias + (1.0 - p.alpha)
        norm = self.x_power.sum(axis=0) / self.psd_bias + raec.DELTA
        e = e_adapt = y_block - self.filter()
        for it in range(p.iterations):
            if it == 0:
                raw = np.median(np.abs(e)) / raec.MEDIAN_TO_SIGMA
                if raw > raec.SILENCE_LEVEL:
                    burst = min(1.0, (p.gamma * self.scale / raw) ** 2)
                    capped = np.median(np.minimum(np.abs(e), p.gamma * self.scale)) \
                        / raec.MEDIAN_TO_SIGMA
                    # the scale moves with the coherence factor of the block
                    # before: at alpha toward the raw median when that factor
                    # reads a changed echo path
                    if capped < self.scale:
                        a, target = p.alpha, capped
                    elif self.coherence >= raec.PATH_CHANGE_COHERENCE:
                        a, target = p.alpha, raw
                    else:
                        a, target = raec.SCALE_RISE, capped
                    self.scale = max(a * self.scale + (1.0 - a) * target, raec.SCALE_FLOOR)
                    err_spec = np.fft.rfft(np.concatenate((zeros, e)))
                    self.coherence = self.coherence_factor(err_spec)
                    self.step_factor = burst * self.coherence
            else:
                e_adapt = y_block - self.filter()
            err_spec = np.fft.rfft(np.concatenate((zeros, clip_error(e_adapt, self.scale, p))))
            grad = p.mu * self.step_factor * np.conj(self.x_spectra) \
                * err_spec[None, :] / norm[None, :]
            w_time = np.fft.irfft(self.weights + grad, n=2 * n, axis=1)
            w_time[:, n:] = 0.0
            self.weights = np.fft.rfft(w_time, axis=1)
        return e


# The GA's box in params.SCHEMA: mu, gamma and alpha set the far-end table's
# power, normalization and scaled-conjugate rows as well as the updates.
raec_shapes = st.builds(RaecParams,
                        frame_size=st.sampled_from([64, 128, 256, 512, 1024]),
                        partitions=st.integers(1, 16),
                        iterations=st.integers(1, 4),
                        mu=st.floats(0.05, 1.9),
                        gamma=st.floats(0.5, 4.0),
                        alpha=st.floats(0.5, 0.995))
block_kinds = st.lists(st.sampled_from(BLOCK_KINDS), min_size=1, max_size=24)


class TestExactUpdates:
    @given(p=raec_shapes, kinds=block_kinds, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_shifted_histories_equal_direct_update(self, p, kinds, seed):
        n = p.frame_size
        aec = Raec(p)
        stage = aec.stages[0]
        windows = np.zeros(2 * n)
        spectra = np.zeros((p.partitions, n + 1), dtype=complex)
        power = np.zeros_like(stage.x_power)
        for xb, yb in _blocks(n, kinds, seed):
            aec.process(xb, yb)
            windows = np.concatenate((windows[n:], xb))
            spectra[1:] = spectra[:-1]
            spectra[0] = np.fft.rfft(windows)
            power = p.alpha * power + (1 - p.alpha) * np.abs(spectra) ** 2
            assert np.array_equal(stage.x_spectra, spectra)
            assert np.array_equal(stage.x_conj, np.conj(spectra))
            assert np.array_equal(stage.x_power, power)

    @given(p=raec_shapes, kinds=block_kinds, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_scale_and_outputs_match_median_formulation(self, p, kinds, seed):
        # Lockstep with the reference: equal scale after every block means
        # the single partition gives both np.median values, and equal
        # weights mean the clip used the scale after the update. The step
        # control holds adaptation off for the first ~16 echo blocks, so
        # an echo warm-up comes first; clipping with the scale from before
        # the update then breaks the weights within it.
        aec = Raec(p)
        stage = aec.stages[0]
        ref = PlainRaec(p)
        for xb, yb in _blocks(p.frame_size, ["echo"] * 24 + kinds, seed):
            assert np.array_equal(aec.process(xb, yb), ref.process_block(xb, yb))
            assert stage.scale == ref.scale
            assert stage.step_factor == ref.step_factor
            assert np.array_equal(stage.weights, ref.weights)
            assert np.array_equal(stage.err_cross, ref.err_cross)

    def test_capped_median_straddling_the_clip_limit(self):
        # The two middle |e| values lie on either side of the clip limit
        # (gamma * scale = 1.5 at the start), the one case where the capped
        # median is not the median capped.
        p = RaecParams()
        n = p.frame_size
        y = np.repeat([1.0, 2.0], n // 2)
        aec = Raec(p)
        ref = PlainRaec(p)
        aec.process(np.zeros(n), y)
        ref.process_block(np.zeros(n), y)
        assert aec.stages[0].scale == ref.scale

    @given(p=raec_shapes, kinds=block_kinds, n_blocks=st.integers(1, 2 * raec.CHUNK + 2),
           split=st.sampled_from([1, raec.CHUNK - 1, raec.CHUNK, raec.CHUNK + 1, None]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_chunked_process_matches_reference(self, p, kinds, n_blocks, split, seed):
        # Calls of `split` blocks (None: the whole signal in one call) cross
        # the far-end table's chunk boundaries at every offset; each block's
        # outputs and the state after each call must equal the block-by-block
        # reference.
        n = p.frame_size
        pattern = ["echo"] * 24 + kinds
        blocks = list(_blocks(n, [pattern[b % len(pattern)] for b in range(n_blocks)], seed))
        x = np.concatenate([xb for xb, _ in blocks])
        y = np.concatenate([yb for _, yb in blocks])
        step = split or n_blocks
        aec = Raec(p)
        stage = aec.stages[0]
        ref = PlainRaec(p)
        for first in range(0, n_blocks, step):
            sl = slice(first * n, min(first + step, n_blocks) * n)
            e = aec.process(x[sl], y[sl])
            outs = [ref.process_block(xb, yb) for xb, yb in blocks[first:first + step]]
            assert np.array_equal(e, np.concatenate(outs))
            assert stage.scale == ref.scale
            assert stage.step_factor == ref.step_factor
            assert np.array_equal(stage.weights, ref.weights)
            assert np.array_equal(stage.err_cross, ref.err_cross)

    def test_far_end_table_bounded_on_a_long_stream(self, monkeypatch):
        # Every block of a 60 s stream reads its far-end rows from a table
        # of at most CHUNK + M - 1 rows (CHUNK for the normalization),
        # whatever the stream length.
        p = RaecParams()
        tables = []
        block = Raec.process_block

        def spy(self, y_block):
            stage = self.stages[0]
            tables.append((stage.x_spectra.base.shape[0], stage.x_conj.base.shape[0],
                           stage.x_conj_scaled.base.shape[0], stage.x_power.base.shape[0],
                           stage.inv_norm.base.shape[0]))
            return block(self, y_block)

        monkeypatch.setattr(Raec, "process_block", spy)
        rng = np.random.default_rng(17)
        x = rng.standard_normal(60 * FS) * 0.1
        run_blocks(Raec(p), x, 0.5 * x)
        rows = raec.CHUNK + p.partitions - 1
        assert len(tables) == 60 * FS // p.frame_size
        assert max(max(t[:4]) for t in tables) <= rows
        assert max(t[4] for t in tables) <= raec.CHUNK


class TestWorkBuffers:
    def test_interleaved_instances_match_each_run_alone(self):
        # Each stage owns its work buffers and hands out new arrays: no array
        # of one stage overlaps another's or an output, stages fed call by
        # call in turn give the outputs each gives alone, and what one call
        # returned is untouched by the calls after it. Two stages share a
        # shape and see different signals; the third has another shape.
        shapes = [RaecParams(), RaecParams(),
                  RaecParams(frame_size=128, partitions=3, iterations=3, mu=1.2,
                             gamma=2.5, alpha=0.7)]
        n = 256
        signals = []
        for seed in (31, 32, 31):
            blocks = list(_blocks(n, ["echo"] * 24 + ["burst", "silent", "far_end_off"] * 6,
                                  seed))
            signals.append((np.concatenate([b[0] for b in blocks]),
                            np.concatenate([b[1] for b in blocks])))
        # calls of 1, 2 and 3 blocks in turn over the 42 blocks
        bounds = np.cumsum([0] + [1, 2, 3] * 7) * n
        calls = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]

        alone = []
        for p, (x, y) in zip(shapes, signals):
            aec = Raec(p)
            alone.append([aec.process(x[sl], y[sl]).copy() for sl in calls])

        stages = [Raec(p) for p in shapes]
        returned = [[] for _ in stages]
        for c, sl in enumerate(calls):
            for k, (aec, (x, y)) in enumerate(zip(stages, signals)):
                e = aec.process(x[sl], y[sl])
                assert np.array_equal(e, alone[k][c])
                returned[k].append(e)
        buffers = [[v for obj in (aec, *aec.stages) for v in vars(obj).values()
                    if isinstance(v, np.ndarray)] for aec in stages]
        outputs = [e for calls_out in returned for e in calls_out]
        for k, own in enumerate(buffers):
            others = [b for j, bufs in enumerate(buffers) if j != k for b in bufs]
            for buf in own:
                assert not any(np.shares_memory(buf, b) for b in others + outputs)
        for k in range(len(stages)):
            for e, e_ref in zip(returned[k], alone[k]):
                assert e.tobytes() == e_ref.tobytes()


def _stage_shapes(n, iterations):
    """One stage's parameters on a shared block size and iteration count."""
    return st.builds(RaecParams, frame_size=st.just(n), partitions=st.integers(1, 16),
                     iterations=st.just(iterations), mu=st.floats(0.05, 1.9),
                     gamma=st.floats(0.5, 4.0), alpha=st.floats(0.5, 0.995))


stacked_pairs = st.tuples(st.sampled_from([64, 128, 256, 512, 1024]), st.integers(1, 4)) \
    .flatmap(lambda shape: st.tuples(_stage_shapes(*shape), _stage_shapes(*shape)))


def _assert_stages_equal(stack, chain):
    for stage, ref in zip(stack.stages, chain):
        ref = ref.stages[0]
        assert stage.scale == ref.scale
        assert stage.step_factor == ref.step_factor
        assert np.array_equal(stage.weights, ref.weights)
        assert np.array_equal(stage.err_cross, ref.err_cross)


class TestStack:
    """A stack of two stages equals the two one-stage stacks chained, the
    second fed the first's whole output."""

    @given(shapes=stacked_pairs, kinds=block_kinds, silent=st.integers(0, 20),
           n_blocks=st.integers(1, 2 * raec.CHUNK + 2), data=st.data(),
           seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_stack_equals_chained_stages(self, shapes, kinds, silent, n_blocks, data, seed):
        # After an echo warm-up, a silent stretch: when stage 2 models more
        # blocks than stage 1, it still filters far-end history after stage
        # 1's error has gone silent, so stage 1 skips its coherence update
        # while stage 2 runs it. Calls take any whole number of blocks.
        n = shapes[0].frame_size
        pattern = ["echo"] * 24 + ["silent"] * silent + kinds
        blocks = list(_blocks(n, [pattern[b % len(pattern)] for b in range(n_blocks)], seed))
        x = np.concatenate([xb for xb, _ in blocks])
        y = np.concatenate([yb for _, yb in blocks])
        sizes = itertools.cycle(data.draw(st.lists(st.integers(1, n_blocks), min_size=1,
                                                   max_size=8)))
        stack = Raec(*shapes)
        chain = [Raec(p) for p in shapes]
        first = 0
        while first < n_blocks:
            last = min(first + next(sizes), n_blocks)
            sl = slice(first * n, last * n)
            e = stack.process(x[sl], y[sl])
            assert np.array_equal(e, chain[1].process(x[sl], chain[0].process(x[sl], y[sl])))
            _assert_stages_equal(stack, chain)
            first = last

    def test_one_stage_silent_while_the_other_adapts(self):
        # Stage 1 models one block of far end, stage 2 eight: from the second
        # silent block on, stage 1's error is exactly zero and it keeps its
        # coherence state, while stage 2 still filters far-end history and
        # updates its own, block for block as the chained stages do.
        shapes = (RaecParams(partitions=1, mu=0.8, gamma=2.0, alpha=0.8), RaecParams())
        n = shapes[0].frame_size
        stack = Raec(*shapes)
        chain = [Raec(p) for p in shapes]
        mixed = 0
        for xb, yb in _blocks(n, ["echo"] * 40 + ["silent"] * 6 + ["echo"] * 4, 41):
            before = [stage.err_cross.copy() for stage in stack.stages]
            e = stack.process(xb, yb)
            assert np.array_equal(e, chain[1].process(xb, chain[0].process(xb, yb)))
            _assert_stages_equal(stack, chain)
            kept = [np.array_equal(b, stage.err_cross) for b, stage in zip(before, stack.stages)]
            mixed += kept == [True, False]
        assert mixed >= 4

    def test_cascade_runs_a_stack_only_on_a_shared_shape(self, monkeypatch):
        stacks = []
        init = Raec.__init__

        def spy(self, *params):
            stacks.append(len(params))
            init(self, *params)

        monkeypatch.setattr(Raec, "__init__", spy)
        x = np.random.default_rng(43).standard_normal(FS // 4) * 0.1
        p2 = RaecParams(partitions=4)
        e = cascade_run(x, 0.5 * x, RaecParams(), p2)
        assert stacks == [2]
        assert np.array_equal(e, run_blocks(Raec(p2), x, run_blocks(Raec(RaecParams()), x,
                                                                    0.5 * x)))

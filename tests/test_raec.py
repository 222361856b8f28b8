import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echoforge import raec
from echoforge.errors import ConfigError, InputError
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
        e, d_hat = run_blocks(Raec(RaecParams()), np.zeros(FS), y)
        assert np.array_equal(e, y)
        assert not d_hat.any()

    def test_zero_far_end_cascade(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(FS) * 0.3
        e, d_hat, _, _ = cascade_run(np.zeros(FS), y, RaecParams(),
                                     RaecParams(partitions=4))
        assert np.array_equal(e, y)
        assert not d_hat.any()


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

    def test_erle_on_random_path_and_cascade_wins(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal(256)
        g /= np.sqrt(np.sum(g**2))
        x = rng.standard_normal(10 * FS) * 0.1
        y = np.convolve(x, g)[: len(x)]  # direct-convolution oracle for the echo

        single = Raec(RaecParams())
        e1, _ = run_blocks(single, x, y)
        erle_single = 10 * np.log10(np.sum(y[-FS:] ** 2) / np.sum(e1[-FS:] ** 2))

        e2, _, _, _ = cascade_run(x, y, RaecParams(), RaecParams(partitions=4))
        erle_cascade = 10 * np.log10(np.sum(y[-FS:] ** 2) / np.sum(e2[-FS:] ** 2))

        assert erle_single >= 20.0
        assert erle_cascade >= erle_single

    def test_near_end_only_distortion_below_one_percent(self):
        from conftest import speech_like

        rng = np.random.default_rng(11)
        x = rng.standard_normal(10 * FS) * 0.1
        s = speech_like(10.0, seed=12, rms=0.03)
        e, _, _, _ = cascade_run(x, s, RaecParams(), RaecParams(partitions=4))
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
        e_single, _ = run_blocks(single, x, y)
        e_cascade, _, _, _ = cascade_run(x, y, RaecParams(),
                                         RaecParams(partitions=4, mu=1e-9))
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
        assert aec.scale > 0


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

    def test_determinism(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(FS) * 0.1
        y = rng.standard_normal(FS) * 0.1
        e_a, _ = run_blocks(Raec(RaecParams()), x, y)
        e_b, _ = run_blocks(Raec(RaecParams()), x, y)
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

        e, _, stage1, stage2 = cascade_run(x, y, RaecParams(), RaecParams(partitions=4))
        assert np.all(np.isfinite(e))
        for sec in range(30):
            sl = slice(sec * FS, (sec + 1) * FS)
            assert np.sum(e[sl] ** 2) <= 10.0 * np.sum(y[sl] ** 2) + 1e-9
        assert np.all(np.isfinite(stage1.weights))
        assert np.all(np.isfinite(stage2.weights))


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
    error signal, and the clip taken with the scale after this block's
    update. Raec must match it bit for bit."""

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
        self.step_factor = 1.0

    def coherence(self, err_spec):
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
        d_hat = self.filter()
        e = e_adapt = y_block - d_hat
        for it in range(p.iterations):
            if it == 0:
                raw = np.median(np.abs(e)) / raec.MEDIAN_TO_SIGMA
                if raw > raec.SILENCE_LEVEL:
                    burst = min(1.0, (p.gamma * self.scale / raw) ** 2)
                    err_spec = np.fft.rfft(np.concatenate((zeros, e)))
                    self.step_factor = burst * self.coherence(err_spec)
                    capped = np.minimum(np.abs(e), p.gamma * self.scale)
                    raw = np.median(capped) / raec.MEDIAN_TO_SIGMA
                    a = p.alpha if raw < self.scale else p.scale_rise
                    self.scale = max(a * self.scale + (1.0 - a) * raw, raec.SCALE_FLOOR)
            else:
                e_adapt = y_block - self.filter()
            err_spec = np.fft.rfft(np.concatenate((zeros, clip_error(e_adapt, self.scale, p))))
            grad = p.mu * self.step_factor * np.conj(self.x_spectra) \
                * err_spec[None, :] / norm[None, :]
            w_time = np.fft.irfft(self.weights + grad, n=2 * n, axis=1)
            w_time[:, n:] = 0.0
            self.weights = np.fft.rfft(w_time, axis=1)
        return e, d_hat


raec_shapes = st.builds(RaecParams,
                        frame_size=st.sampled_from([64, 128, 256, 512, 1024]),
                        partitions=st.integers(1, 16),
                        iterations=st.integers(1, 4))
block_kinds = st.lists(st.sampled_from(BLOCK_KINDS), min_size=1, max_size=24)


class TestExactUpdates:
    @given(p=raec_shapes, kinds=block_kinds, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_shifted_histories_equal_direct_update(self, p, kinds, seed):
        n = p.frame_size
        aec = Raec(p)
        windows = np.zeros(2 * n)
        spectra = np.zeros_like(aec.x_spectra)
        power = np.zeros_like(aec.x_power)
        for xb, yb in _blocks(n, kinds, seed):
            aec.process(xb, yb)
            windows = np.concatenate((windows[n:], xb))
            spectra[1:] = spectra[:-1]
            spectra[0] = np.fft.rfft(windows)
            power = p.alpha * power + (1 - p.alpha) * np.abs(spectra) ** 2
            assert np.array_equal(aec.x_spectra, spectra)
            assert np.array_equal(aec.x_conj, np.conj(spectra))
            assert np.array_equal(aec.x_power, power)

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
        ref = PlainRaec(p)
        for xb, yb in _blocks(p.frame_size, ["echo"] * 24 + kinds, seed):
            e, d_hat = aec.process(xb, yb)
            e_ref, d_hat_ref = ref.process_block(xb, yb)
            assert np.array_equal(e, e_ref)
            assert np.array_equal(d_hat, d_hat_ref)
            assert aec.scale == ref.scale
            assert aec.step_factor == ref.step_factor
            assert np.array_equal(aec.weights, ref.weights)
            assert np.array_equal(aec.err_cross, ref.err_cross)

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
        assert aec.scale == ref.scale

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
        ref = PlainRaec(p)
        for first in range(0, n_blocks, step):
            sl = slice(first * n, min(first + step, n_blocks) * n)
            e, d_hat = aec.process(x[sl], y[sl])
            outs = [ref.process_block(xb, yb) for xb, yb in blocks[first:first + step]]
            assert np.array_equal(e, np.concatenate([o[0] for o in outs]))
            assert np.array_equal(d_hat, np.concatenate([o[1] for o in outs]))
            assert aec.scale == ref.scale
            assert aec.step_factor == ref.step_factor
            assert np.array_equal(aec.weights, ref.weights)
            assert np.array_equal(aec.err_cross, ref.err_cross)

    def test_far_end_table_bounded_on_a_long_stream(self, monkeypatch):
        # Every block of a 60 s stream reads its far-end rows from a table
        # of at most CHUNK + M - 1 rows, whatever the stream length.
        p = RaecParams()
        tables = []
        block = Raec.process_block

        def spy(self, y_block, norm):
            tables.append((self.x_spectra.base.shape[0], self.x_conj.base.shape[0],
                           self.x_power.base.shape[0], norm.base.shape[0]))
            return block(self, y_block, norm)

        monkeypatch.setattr(Raec, "process_block", spy)
        rng = np.random.default_rng(17)
        x = rng.standard_normal(60 * FS) * 0.1
        run_blocks(Raec(p), x, 0.5 * x)
        rows = raec.CHUNK + p.partitions - 1
        assert len(tables) == 60 * FS // p.frame_size
        assert max(max(t[:3]) for t in tables) <= rows
        assert max(t[3] for t in tables) <= raec.CHUNK

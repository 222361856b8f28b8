import numpy as np
import pytest

from echoforge.errors import ConfigError, InputError
from echoforge.raec import CascadeRaec, Raec, RaecParams, clip_error, run_blocks

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
        cascade = CascadeRaec(RaecParams(), RaecParams(partitions=4))
        e, d_hat = run_blocks(cascade, np.zeros(FS), y)
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

        cascade = CascadeRaec(RaecParams(), RaecParams(partitions=4))
        e2, _ = run_blocks(cascade, x, y)
        erle_cascade = 10 * np.log10(np.sum(y[-FS:] ** 2) / np.sum(e2[-FS:] ** 2))

        assert erle_single >= 20.0
        assert erle_cascade >= erle_single

    def test_near_end_only_distortion_below_one_percent(self):
        from conftest import speech_like

        rng = np.random.default_rng(11)
        x = rng.standard_normal(10 * FS) * 0.1
        s = speech_like(10.0, seed=12, rms=0.03)
        cascade = CascadeRaec(RaecParams(), RaecParams(partitions=4))
        e, _ = run_blocks(cascade, x, s)
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
        cascade = CascadeRaec(RaecParams(), RaecParams(partitions=4, mu=1e-9))
        e_cascade, _ = run_blocks(cascade, x, y)
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
            aec.process_block(np.zeros(256), np.zeros(256))
        assert aec.scale > 0


class TestContracts:
    def test_block_length_mismatch(self):
        aec = Raec(RaecParams())
        with pytest.raises(InputError):
            aec.process_block(np.zeros(128), np.zeros(256))

    def test_nonfinite_input(self):
        aec = Raec(RaecParams())
        bad = np.zeros(256)
        bad[0] = np.inf
        with pytest.raises(InputError):
            aec.process_block(bad, np.zeros(256))

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

        cascade = CascadeRaec(RaecParams(), RaecParams(partitions=4))
        e, _ = run_blocks(cascade, x, y)
        assert np.all(np.isfinite(e))
        for sec in range(30):
            sl = slice(sec * FS, (sec + 1) * FS)
            assert np.sum(e[sl] ** 2) <= 10.0 * np.sum(y[sl] ** 2) + 1e-9
        assert np.all(np.isfinite(cascade.stage1.weights))
        assert np.all(np.isfinite(cascade.stage2.weights))

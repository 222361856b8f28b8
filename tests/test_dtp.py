import copy

import numpy as np
import pytest

from echoforge.dtp import COHERENCE_EPS, DtpEstimator, DtpParams
from echoforge.errors import ConfigError
from echoforge.stft import N_BINS


def _band_params(**kw):
    return DtpParams(**kw)


def _complex_noise(rng, n=N_BINS):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestBasics:
    def test_initial_probability_is_half(self):
        est = DtpEstimator(_band_params())
        assert est.p_dt == 0.5

    def test_echo_only_drives_probability_down(self):
        rng = np.random.default_rng(0)
        est = DtpEstimator(_band_params())
        for _ in range(50):
            d = _complex_noise(rng)
            est.update(d, d)
        assert est.p_dt < 0.1

    def test_independent_signals_drive_probability_up(self):
        rng = np.random.default_rng(1)
        est = DtpEstimator(_band_params())
        for _ in range(50):
            est.update(_complex_noise(rng), _complex_noise(rng))
        assert est.p_dt > 0.9

    def test_silence_holds_probability(self):
        est = DtpEstimator(_band_params())
        before = est.p_dt
        for _ in range(20):
            p = est.update(np.zeros(N_BINS, complex), np.zeros(N_BINS, complex))
        assert p == before

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            DtpParams(a01=1.5)
        with pytest.raises(ConfigError):
            DtpParams(k_begin=50, k_end=40)
        with pytest.raises(ConfigError):
            DtpParams(tau=0.0)
        with pytest.raises(ConfigError):
            DtpParams(k_end=400)
        with pytest.raises(ConfigError):
            DtpParams(k_end=N_BINS)
        assert DtpParams(k_end=N_BINS - 1).k_end == N_BINS - 1


class TestInvariants:
    def test_probability_stays_in_unit_interval(self):
        rng = np.random.default_rng(2)
        est = DtpEstimator(_band_params())
        for i in range(300):
            scale = 10.0 ** rng.integers(-8, 6)
            d = _complex_noise(rng) * scale
            y = _complex_noise(rng) * scale if i % 3 else d
            p = est.update(d, y)
            assert 0.0 <= p <= 1.0

    def test_single_step_monotone_in_coherence(self):
        # identical mid-stream states; mixing more independent signal into y
        # lowers the measured coherence and must not lower the update
        rng = np.random.default_rng(3)
        base = DtpEstimator(_band_params())
        for _ in range(30):
            d = _complex_noise(rng)
            base.update(d, d + 0.5 * _complex_noise(rng))
        d_next = _complex_noise(rng)
        indep = _complex_noise(rng)
        results = []
        for mix in (0.0, 0.3, 1.0, 3.0, 10.0):
            est = copy.deepcopy(base)
            p = est.update(d_next, d_next + mix * indep)
            coherence = np.abs(est.psd_dy) ** 2 / (
                est.psd_dd * est.psd_yy + COHERENCE_EPS)
            band = slice(est.params.k_begin, est.params.k_end + 1)
            results.append((float(np.mean(coherence[band])), p))
        results.sort(key=lambda t: t[0])  # ascending coherence
        probs = [p for _, p in results]
        assert all(probs[i] >= probs[i + 1] - 1e-12 for i in range(len(probs) - 1))

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        frames = [( _complex_noise(rng), _complex_noise(rng)) for _ in range(80)]
        est_a = DtpEstimator(_band_params())
        est_b = DtpEstimator(_band_params())
        c = 37.5
        for d, y in frames:
            p_a = est_a.update(d, y)
            p_b = est_b.update(c * d, c * y)
        assert p_a == pytest.approx(p_b, rel=1e-9)

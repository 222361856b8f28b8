import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echoforge.errors import ConfigError
from echoforge.rpe import (COUPLING_REG, ResidualPowerEstimator, RpeParams,
                           _CouplingTracker, combine_residual_power)
from echoforge.stft import N_BINS


def _noise(rng):
    return rng.standard_normal(N_BINS) + 1j * rng.standard_normal(N_BINS)


class TestCouplingTrackers:
    def test_zero_reference_gives_zero_power(self):
        est = ResidualPowerEstimator(RpeParams())
        rng = np.random.default_rng(0)
        for _ in range(50):
            high = est.update_high(_noise(rng), np.zeros(N_BINS, complex))
            low = est.update_low(_noise(rng), np.zeros(N_BINS, complex))
        assert np.all(high == 0)
        assert np.all(low == 0)

    def test_scalar_coupling_recovers_wiener_solution(self):
        # Y = c X: the smoothed cross/auto ratio equals c at every step,
        # so the tracked power converges to |c|^2 |X|^2
        c = 0.35
        params = RpeParams(partitions_high=1, partitions_low=1)
        est = ResidualPowerEstimator(params)
        rng = np.random.default_rng(1)
        for _ in range(300):
            x = _noise(rng)
            high = est.update_high(c * x, x)
            low = est.update_low(c * x, x)
        expected = c**2 * np.abs(x) ** 2
        assert np.allclose(high, expected, rtol=1e-3)
        assert np.allclose(low, expected, rtol=1e-3)

    def test_independent_signals_leak_below_five_percent(self):
        # cross-PSD of independent signals shrinks as the smoothing grows
        params = RpeParams(partitions_high=1, partitions_low=1,
                           alpha_high=0.99, alpha_low=0.99)
        est = ResidualPowerEstimator(params)
        rng = np.random.default_rng(2)
        powers = []
        y_powers = []
        for i in range(400):
            y = _noise(rng)
            x = _noise(rng)
            high = est.update_high(y, x)
            if i >= 200:
                powers.append(np.mean(high))
                y_powers.append(np.mean(np.abs(y) ** 2))
        assert np.mean(powers) < 0.05 * np.mean(y_powers)

    def test_echo_reduction_orders_low_below_high(self):
        # E carries 20 dB less of the coupled component than Y
        rng = np.random.default_rng(3)
        transfer = _noise(rng)
        est = ResidualPowerEstimator(RpeParams())
        for _ in range(200):
            x = _noise(rng)
            y = transfer * x + 0.05 * _noise(rng)
            e = 0.1 * transfer * x + 0.05 * _noise(rng)
            high = est.update_high(y, x)
            low = est.update_low(e, x)
        assert np.mean(low <= high) >= 0.9

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            RpeParams(partitions_high=0)
        with pytest.raises(ConfigError):
            RpeParams(alpha_low=1.0)


class TestExactUpdates:
    @given(partitions=st.integers(1, 8), alpha=st.floats(0.0, 0.999),
           x_off=st.lists(st.booleans(), min_size=1, max_size=20),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_shifted_auto_and_power_equal_direct_update(self, partitions, alpha,
                                                         x_off, seed):
        # The direct form smooths every row of |x|^2 anew and computes
        # |x|^2 once per use; the tracker must give the same bits.
        rng = np.random.default_rng(seed)
        tracker = _CouplingTracker(partitions, alpha)
        history = np.zeros((partitions, N_BINS), dtype=complex)
        cross = np.zeros((partitions, N_BINS), dtype=complex)
        auto = np.zeros((partitions, N_BINS))
        a = alpha
        for off in x_off:
            x = np.zeros(N_BINS, complex) if off else _noise(rng)
            target = _noise(rng)
            history[1:] = history[:-1]
            history[0] = x
            cross = a * cross + (1 - a) * target[None, :] * np.conj(history)
            auto = a * auto + (1 - a) * np.abs(history) ** 2
            coupling = cross / (auto + COUPLING_REG)
            expected = np.sum(np.abs(coupling) ** 2 * np.abs(history) ** 2, axis=0)
            power = tracker.update(target, x)
            assert np.array_equal(tracker.auto, auto)
            assert np.array_equal(tracker.x_conj, np.conj(history))
            assert np.array_equal(power, expected)


class TestCombine:
    def test_endpoint_zero_returns_high_bitwise(self):
        rng = np.random.default_rng(4)
        high = rng.uniform(0, 5, N_BINS)
        low = rng.uniform(0, 5, N_BINS)
        assert np.array_equal(combine_residual_power(high, low, 0.0), high)

    def test_endpoint_one_returns_low_bitwise(self):
        rng = np.random.default_rng(5)
        high = rng.uniform(0, 5, N_BINS)
        low = rng.uniform(0, 5, N_BINS)
        assert np.array_equal(combine_residual_power(high, low, 1.0), low)

    def test_midpoint_is_arithmetic_mean(self):
        combined = combine_residual_power(np.array([4.0]), np.array([2.0]), 0.5)
        assert combined[0] == pytest.approx(3.0, rel=1e-12)

    @given(p=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_blend_bounded_by_inputs(self, p, seed):
        rng = np.random.default_rng(seed)
        high = rng.uniform(0, 10, 16)
        low = rng.uniform(0, 10, 16)
        combined = combine_residual_power(high, low, p)
        assert np.all(combined >= np.minimum(high, low) - 1e-12)
        assert np.all(combined <= np.maximum(high, low) + 1e-12)
        assert np.all(combined >= 0)

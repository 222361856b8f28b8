import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echoforge.errors import ConfigError
from echoforge.rpe import (COUPLING_REG, ResidualPowerEstimator, RpeParams,
                           combine_residual_power)
from echoforge.stft import N_BINS


def _noise(rng):
    return rng.standard_normal(N_BINS) + 1j * rng.standard_normal(N_BINS)


def _step(est, y, e, x):
    """One frame of mic, error and reference as a one-frame chunk; returns
    the (high, low) powers."""
    high, low = est.process(y[None], e[None], x[None])
    return high[0], low[0]


class TestCouplingTrackers:
    def test_zero_reference_gives_zero_power(self):
        est = ResidualPowerEstimator(RpeParams())
        rng = np.random.default_rng(0)
        for _ in range(50):
            high, low = _step(est, _noise(rng), _noise(rng), np.zeros(N_BINS, complex))
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
            high, low = _step(est, c * x, c * x, x)
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
            high, _ = _step(est, y, y, x)
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
            high, low = _step(est, y, e, x)
        assert np.mean(low <= high) >= 0.9

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            RpeParams(partitions_high=0)
        with pytest.raises(ConfigError):
            RpeParams(alpha_low=1.0)


class TestExactUpdates:
    @given(partitions=st.tuples(st.integers(1, 8), st.integers(1, 8)),
           alpha=st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)),
           x_off=st.lists(st.booleans(), min_size=1, max_size=40),
           chunks=st.lists(st.integers(1, 12), min_size=1, max_size=6),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_shifted_auto_and_power_equal_direct_update(self, partitions, alpha,
                                                         x_off, chunks, seed):
        # The direct form keeps its own reference history per tracker,
        # smooths every row of |x|^2 anew, computes |x|^2 once per use and
        # divides by the regularized auto-PSD, one frame at a time. The
        # estimator, fed chunks whose sizes cycle through `chunks`, must
        # give the same bits for both trackers.
        rng = np.random.default_rng(seed)
        est = ResidualPowerEstimator(RpeParams(
            partitions_high=partitions[0], partitions_low=partitions[1],
            alpha_high=alpha[0], alpha_low=alpha[1]))
        n = len(x_off)
        x = np.array([np.zeros(N_BINS, complex) if off else _noise(rng) for off in x_off])
        targets = rng.standard_normal((2, n, N_BINS)) + 1j * rng.standard_normal((2, n, N_BINS))
        expected = np.empty((2, n, N_BINS))
        for k, (p, a) in enumerate(zip(partitions, alpha)):
            history = np.zeros((p, N_BINS), dtype=complex)
            cross = np.zeros((p, N_BINS), dtype=complex)
            auto = np.zeros((p, N_BINS))
            for t in range(n):
                history[1:] = history[:-1]
                history[0] = x[t]
                cross = a * cross + (1 - a) * targets[k, t][None, :] * np.conj(history)
                auto = a * auto + (1 - a) * np.abs(history) ** 2
                coupling = cross / (auto + COUPLING_REG)
                expected[k, t] = np.sum(np.abs(coupling) ** 2 * np.abs(history) ** 2,
                                        axis=0)
        start, i = 0, 0
        while start < n:
            stop = min(start + chunks[i % len(chunks)], n)
            high, low = est.process(targets[0, start:stop], targets[1, start:stop],
                                    x[start:stop])
            assert np.array_equal(high, expected[0, start:stop])
            assert np.array_equal(low, expected[1, start:stop])
            start, i = stop, i + 1


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

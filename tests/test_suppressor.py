import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1 as scipy_exp1

from echoforge.errors import ConfigError, InputError
from echoforge.suppressor import (Suppressor, SuppressorParams, apply_mask,
                                  dd_prior_snr, exp_integral_e1, lsa_gain,
                                  mask_gain, posterior_snr)


def quadrature_e1(v: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral."""
    val, _ = quad(lambda t: np.exp(-t) / t, v, np.inf, limit=500)
    return val


class TestExponentialIntegral:
    @pytest.mark.parametrize("v", [1e-10, 1e-6, 0.01, 0.1, 0.5, 0.999,
                                   1.0, 1.5, 5.0, 20.0, 50.0])
    def test_matches_quadrature(self, v):
        assert exp_integral_e1(v) == pytest.approx(quadrature_e1(v),
                                                   rel=1e-9, abs=1e-12)

    def test_matches_scipy_on_a_grid(self):
        v = np.logspace(-9, 2, 200)
        assert np.allclose(exp_integral_e1(v), scipy_exp1(v), rtol=1e-11, atol=1e-14)

    def test_zero_d_input_gives_scalar(self):
        out = exp_integral_e1(np.float64(0.5))
        assert np.ndim(out) == 0
        assert out == pytest.approx(quadrature_e1(0.5), rel=1e-9)

    def test_two_d_input_keeps_shape(self):
        v = np.logspace(-6, 1.5, 3 * 257).reshape(3, 257)
        out = exp_integral_e1(v)
        assert out.shape == (3, 257)
        assert out[1, 100] == pytest.approx(quadrature_e1(v[1, 100]), rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            exp_integral_e1(0.0)


class TestPosteriorSnr:
    def test_equal_power_gives_one(self):
        assert posterior_snr(np.array([2.0]), np.array([1.0]), np.array([1.0]))[0] == 1.0

    def test_zero_error_gives_zero(self):
        assert posterior_snr(np.array([0.0]), np.array([1.0]), np.array([1.0]))[0] == 0.0

    def test_arithmetic(self):
        assert posterior_snr(np.array([8.0]), np.array([1.0]), np.array([3.0]))[0] == 2.0

    def test_zero_denominator_floored_not_raised(self):
        out = posterior_snr(np.array([1.0]), np.array([0.0]), np.array([0.0]))
        assert np.isfinite(out[0]) and out[0] > 0


class TestDecisionDirected:
    def test_first_frame_uses_instantaneous_term_only(self):
        xi = dd_prior_snr(np.zeros(1), np.array([3.0]), np.array([0.5]),
                          np.array([0.5]), alpha_dd=0.98)
        assert xi[0] == pytest.approx(0.02 * 2.0, rel=1e-12)

    def test_clamped_at_zero_for_low_posterior(self):
        xi = dd_prior_snr(np.zeros(1), np.array([0.7]), np.array([1.0]),
                          np.array([0.0]), alpha_dd=0.98)
        assert xi[0] == 0.0

    def test_pure_memory_endpoint(self):
        xi = dd_prior_snr(np.array([4.0]), np.array([100.0]), np.array([2.0]),
                          np.array([0.0]), alpha_dd=1.0)
        assert xi[0] == pytest.approx(2.0, rel=1e-12)

    def test_nonnegative_and_bounded_by_parts(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            prev = rng.uniform(0, 10, 8)
            gamma = rng.uniform(0, 10, 8)
            noise = rng.uniform(0.01, 5, 8)
            res = rng.uniform(0, 5, 8)
            a = rng.uniform(0, 0.999)
            xi = dd_prior_snr(prev, gamma, noise, res, a)
            memory = prev / (noise + res)
            instant = np.maximum(gamma - 1, 0)
            assert np.all(xi >= 0)
            assert np.all(xi <= np.maximum(memory, instant) + 1e-12)


class TestLsaGain:
    def test_unit_point_value(self):
        # v = 0.5, G = 0.5 * exp(E1(0.5)/2)
        expected = 0.5 * np.exp(0.5 * quadrature_e1(0.5))
        g = lsa_gain(np.array([1.0]), np.array([1.0]))[0]
        assert g == pytest.approx(expected, abs=1e-9)
        assert g == pytest.approx(0.6615, abs=1e-3)

    def test_high_snr_asymptote(self):
        g = lsa_gain(np.array([1e6]), np.array([1e6]))[0]
        assert g == pytest.approx(1.0, abs=1e-3)

    def test_vanishing_prior_kills_gain(self):
        gains = lsa_gain(np.array([1e-3, 1e-6, 1e-9]), np.ones(3))
        assert gains[2] < gains[1] < gains[0] < 0.03
        assert gains[2] < 1e-4

    def test_grid_against_quadrature(self):
        xi = np.logspace(-2, 2, 20)
        gamma = np.logspace(-2, 2, 20)
        xx, gg = np.meshgrid(xi, gamma)
        got = lsa_gain(xx.ravel(), gg.ravel())
        v = np.maximum(xx.ravel() / (1 + xx.ravel()) * gg.ravel(), 1e-10)
        expected = xx.ravel() / (1 + xx.ravel()) * np.exp(
            0.5 * np.array([quadrature_e1(t) for t in v]))
        assert np.allclose(got, expected, atol=1e-6, rtol=1e-6)


class TestMask:
    def test_low_branch_arithmetic(self):
        p = SuppressorParams(g_min=0.1)
        z = mask_gain(np.array([p.theta1 / 2]), np.array([0.5]), p)
        assert z[0] == pytest.approx(0.55, rel=1e-12)

    def test_middle_branch_constant(self):
        p = SuppressorParams(mask_alpha=0.4)
        xi = np.array([np.sqrt(p.theta1 * p.theta2)])
        z = mask_gain(xi, np.array([0.9]), p)
        assert z[0] == pytest.approx(0.2, rel=1e-12)

    def test_high_branch_constant(self):
        p = SuppressorParams(mask_alpha=0.4)
        z = mask_gain(np.array([2 * p.theta2]), np.array([0.9]), p)
        assert z[0] == pytest.approx(1.2, rel=1e-12)

    def test_boundaries_as_printed(self):
        p = SuppressorParams(g_min=0.25, mask_alpha=0.5)
        g = np.array([0.6, 0.6])
        z = mask_gain(np.array([p.theta1, p.theta2]), g, p)
        assert z[0] == pytest.approx((1 - 0.25) * 0.6 + 0.25)  # <= theta1: low
        assert z[1] == pytest.approx((2 + 0.5) / 2)            # >= theta2: high

    def test_branch_values_exhaustive_random(self):
        rng = np.random.default_rng(1)
        p = SuppressorParams()
        xi = 10 ** rng.uniform(-3, 3, 100_000)
        g = rng.uniform(0.0, 1.0, 100_000)
        z = mask_gain(xi, g, p)
        low = (1 - p.g_min) * g + p.g_min
        expect = np.where(xi <= p.theta1, low,
                          np.where(xi >= p.theta2, (2 + p.mask_alpha) / 2,
                                   p.mask_alpha / 2))
        assert np.array_equal(z, expect)
        lo_bound = min(p.g_min, p.mask_alpha / 2)
        hi_bound = max(1.0, (2 + p.mask_alpha) / 2)
        assert np.all(z >= lo_bound - 1e-12)
        assert np.all(z <= hi_bound + 1e-12)

    def test_cap_at_unity_flag(self):
        p = SuppressorParams(mask_alpha=0.5, cap_at_unity=True)
        z = mask_gain(np.array([100.0]), np.array([0.9]), p)
        assert z[0] == 1.0

    def test_threshold_order_enforced(self):
        with pytest.raises(ConfigError):
            SuppressorParams(theta1=2.0, theta2=1.0)


class TestApplyMask:
    def test_identity_and_zero(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.array_equal(apply_mask(np.ones(16), e), e)
        assert np.all(apply_mask(np.zeros(16), e) == 0)

    def test_phase_preserved(self):
        rng = np.random.default_rng(3)
        e = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        z = rng.uniform(0.1, 2.0, 16)
        out = apply_mask(z, e)
        assert np.allclose(np.angle(out), np.angle(e))

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            apply_mask(np.ones(4), np.ones(5, complex))


class TestSuppressorState:
    def test_memory_updates_with_output_power(self):
        sup = Suppressor(SuppressorParams(), 8)
        rng = np.random.default_rng(4)
        e = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        s_hat, xi, gamma, zeta = sup.process_frame(
            e, np.full(8, 0.1), np.full(8, 0.1))
        assert np.allclose(sup.prev_clean_power, np.abs(s_hat) ** 2)
        assert np.all(xi >= 0)
        assert np.all(gamma >= 0)

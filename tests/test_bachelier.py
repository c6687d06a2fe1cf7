import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from crosshedge import (
    AuxiliaryProcessLaw,
    BachelierCallExposure,
    CustomSmoothExposure,
    ModelParams,
    call_delta,
    call_payoff_curve,
    call_value,
    custom_payoff_curve,
    delta_martingale_check,
    generic_g,
    linear_payoff_curve,
    make_rng,
    payoff_curve_for,
)
from crosshedge.bachelier import expected_delta


class TestCallValue:
    def test_at_the_money_symmetry(self, fig3, call100):
        ttm = fig3.T + call100.dt_offset - 0.5
        expected = 100.0 * math.sqrt(ttm) / math.sqrt(2 * math.pi)
        assert call_value(fig3, call100, 0.5, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_deep_itm_asymptote(self, fig3, call100):
        u = 1.0 + 10.0 * math.sqrt(fig3.T + call100.dt_offset)
        assert call_value(fig3, call100, 0.0, u) == pytest.approx(100.0 * (u - 1.0), rel=1e-6)

    def test_monte_carlo_oracle(self, fig3, call100):
        t, u = 0.5, 1.2
        rng = make_rng(901, 0)
        sd = fig3.eta * math.sqrt(fig3.T + call100.dt_offset - t)
        samples = 100.0 * np.maximum(u + sd * rng.standard_normal(10**6) - 1.0, 0.0)
        se = samples.std(ddof=1) / 1000.0
        assert abs(samples.mean() - call_value(fig3, call100, t, u)) < 3 * se

    def test_domain_error_past_horizon(self, fig3, call100):
        with pytest.raises(ValueError):
            call_value(fig3, call100, fig3.T + call100.dt_offset + 1e-3, 1.0)

    def test_positive_above_intrinsic(self, fig3, call100):
        for u in np.linspace(0.0, 2.0, 9):
            v = call_value(fig3, call100, 0.3, u)
            assert v >= max(100.0 * (u - 1.0), 0.0) - 1e-12


class TestCallTimeArgument:
    """A float t takes the math path in _call_z, any other t the numpy path."""

    U = np.linspace(0.2, 1.8, 9)

    @pytest.mark.parametrize("fn", [call_value, call_delta])
    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    def test_float_and_0d_array_agree_bitwise(self, fig3, call100, fn, t):
        # a float t with a float u (expected_delta's integrand) also computes z with math
        for params in (fig3, replace(fig3, beta=0.05)):
            for u in (1.1, -0.4, 2.6, np.asarray(1.1), self.U):
                a, b = fn(params, call100, t, u), fn(params, call100, np.asarray(t), np.asarray(u))
                assert type(a) is type(b) and np.array_equal(a, b)

    @pytest.mark.parametrize("t", [1.0 + 2e-5, np.asarray(1.0 + 2e-5), np.array([0.5, 1.0 + 2e-5])])
    def test_past_maturity_raises_on_both_paths(self, fig3, call100, t):
        with pytest.raises(ValueError, match="horizon"):
            call_delta(fig3, call100, t, 1.0)


class TestCallDelta:
    def test_at_the_money(self, fig3, call100):
        assert call_delta(fig3, call100, 0.5, 1.0) == pytest.approx(50.0)

    def test_cdf_limits(self, fig3, call100):
        assert call_delta(fig3, call100, 0.0, -50.0) == pytest.approx(0.0, abs=1e-12)
        assert call_delta(fig3, call100, 0.0, 50.0) == pytest.approx(100.0, abs=1e-12)

    def test_matches_finite_difference(self, fig3, call100):
        step = 1e-5
        for u in np.linspace(0.4, 1.6, 7):
            fd = (call_value(fig3, call100, 0.5, u + step) - call_value(fig3, call100, 0.5, u - step)) / (2 * step)
            assert fd == pytest.approx(call_delta(fig3, call100, 0.5, u), abs=1e-4)

    def test_monotone_in_u(self, fig3, call100):
        us = np.linspace(-1.0, 3.0, 41)
        deltas = np.asarray(call_delta(fig3, call100, 0.2, us))
        assert np.all(np.diff(deltas) >= 0)
        assert np.all((deltas >= 0) & (deltas <= 100.0))

    def test_drift_enters_moneyness(self, call100):
        p = ModelParams(mu=0.0, sigma=1.0, beta=0.5, eta=1.0, rho=0.5, b=1e-2, c=1e-3, k=1e-3, gamma=0.0, alpha=0.05, T=1.0)
        # positive factor drift raises the delta at the money
        assert call_delta(p, call100, 0.0, 1.0) > 50.0


class TestLaw:
    def test_density_normalizes(self, fig3):
        law = AuxiliaryProcessLaw.from_params(fig3)
        val, _ = quad(lambda z: law.density(z, 0.2, 0.9, 1.0), -12, 14)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_ordering_rejected(self, fig3):
        law = AuxiliaryProcessLaw.from_params(fig3)
        with pytest.raises(ValueError):
            law.transition_std(0.5, 0.2)


class TestGenericG:
    def test_linear_payoff(self):
        p = ModelParams(mu=0.0, sigma=1.0, beta=0.3, eta=1.0, rho=0.5, b=1e-2, c=1e-3, k=1e-3, gamma=0.0, alpha=0.05, T=1.0)
        law = AuxiliaryProcessLaw.from_params(p)
        val = generic_g(law, lambda u: u, 0.25, 1.1)
        assert val == pytest.approx(1.1 + 0.3 * 0.75, abs=1e-12)

    def test_second_moment(self, fig3):
        law = AuxiliaryProcessLaw.from_params(fig3)
        val = generic_g(law, lambda u: u * u, 0.25, 1.1)
        assert val == pytest.approx(1.1**2 + 0.75, rel=1e-12)

    def test_smoothed_call_matches_closed_form(self, fig3):
        # a well-regularized call: the horizon-value payoff is smooth enough
        # for fixed Gaussian quadrature
        expo = BachelierCallExposure(100.0, 1.0, dt_offset=0.05)
        law = AuxiliaryProcessLaw.from_params(fig3)
        psi = CustomSmoothExposure(payoff=lambda u: call_value(fig3, expo, fig3.T, u))
        for t, u in [(0.1, 0.5), (0.5, 1.0), (0.9, 1.6)]:
            assert generic_g(law, psi, t, u) == pytest.approx(call_value(fig3, expo, t, u), abs=1e-6)

    def test_non_finite_payoff_rejected(self, fig3):
        law = AuxiliaryProcessLaw.from_params(fig3)
        with pytest.raises(ValueError, match="non-finite"):
            generic_g(law, lambda u: np.where(u > 2.0, np.nan, u), 0.1, 1.0)


class TestDeltaMartingale:
    def test_degenerate_conditioning(self, fig3, call100):
        law = AuxiliaryProcessLaw.from_params(fig3)
        curve = call_payoff_curve(fig3, call100)
        assert delta_martingale_check(law, curve, 0.4, 0.4, 1.0) == 0.0

    def test_call_residual_small(self, fig3, call100):
        law = AuxiliaryProcessLaw.from_params(fig3)
        curve = call_payoff_curve(fig3, call100)
        assert abs(delta_martingale_check(law, curve, 0.0, 0.5, 1.0)) < 1e-6

    def test_constant_delta(self, fig3):
        law = AuxiliaryProcessLaw.from_params(fig3)
        curve = linear_payoff_curve(fig3, 3.0)
        assert abs(delta_martingale_check(law, curve, 0.1, 0.8, 1.3)) < 1e-10

    def test_random_triples(self, fig3, call100):
        # the sharpened profile near the horizon must stay within tolerance
        law = AuxiliaryProcessLaw.from_params(fig3)
        curve = call_payoff_curve(fig3, call100)
        rng = make_rng(902, 0)
        worst = 0.0
        for _ in range(40):
            t = float(rng.uniform(0, fig3.T))
            s = float(rng.uniform(t, fig3.T))
            u = float(1.0 + rng.uniform(-3, 3))
            worst = max(worst, abs(delta_martingale_check(law, curve, t, s, u)))
        assert worst < 1e-6

    def test_ordering_violation(self, fig3, call100):
        law = AuxiliaryProcessLaw.from_params(fig3)
        curve = call_payoff_curve(fig3, call100)
        with pytest.raises(ValueError):
            delta_martingale_check(law, curve, 0.8, 0.2, 1.0)


class TestWeightedIntegral:
    @pytest.mark.parametrize("f", [lambda s: 1.0, lambda s: s])
    def test_weighted_future_delta(self, fig3, call100, f):
        from numpy.polynomial.legendre import leggauss

        law = AuxiliaryProcessLaw.from_params(fig3)
        curve = call_payoff_curve(fig3, call100)
        t, u = 0.25, 1.15
        x, w = leggauss(48)
        mid, half = 0.5 * (t + fig3.T), 0.5 * (fig3.T - t)
        nodes, weights = mid + half * x, half * w
        lhs = sum(wt * f(s) * expected_delta(law, curve, t, float(s), u) for s, wt in zip(nodes, weights))
        rhs = float(curve.delta(t, np.asarray(u))) * sum(wt * f(s) for s, wt in zip(nodes, weights))
        assert abs(lhs - rhs) < 1e-6


class TestPutCallConsistency:
    def test_put_from_parity(self, fig3):
        # value of N puts via quadrature equals call minus forward intrinsic
        expo = BachelierCallExposure(100.0, 1.0, dt_offset=0.05)
        law = AuxiliaryProcessLaw.from_params(fig3)
        t_mat = fig3.T + expo.dt_offset

        def put_payoff(u):
            # horizon value of puts expiring at T + dt_offset
            return call_value(fig3, expo, fig3.T, u) - 100.0 * (u + fig3.beta * expo.dt_offset - 1.0)

        for (t, u) in [(0.2, 0.8), (0.6, 1.2)]:
            put_val = generic_g(law, put_payoff, t, u)
            parity = call_value(fig3, expo, t, u) - 100.0 * (u + fig3.beta * (t_mat - t) - 1.0)
            assert put_val == pytest.approx(parity, abs=1e-6)


class TestCustomCurve:
    def test_tanh_payoff_curve(self, fig3):
        law = AuxiliaryProcessLaw.from_params(fig3)
        expo = CustomSmoothExposure(
            payoff=lambda u: np.tanh(u),
            payoff_derivative=lambda u: 1.0 / np.cosh(u) ** 2,
        )
        curve = custom_payoff_curve(law, expo)
        # declared-derivative delta agrees with finite differences of g
        step = 1e-5
        for u in (-0.5, 0.4, 1.5):
            fd = (float(curve.g(0.3, np.asarray(u + step))) - float(curve.g(0.3, np.asarray(u - step)))) / (2 * step)
            assert float(curve.delta(0.3, np.asarray(u))) == pytest.approx(fd, abs=1e-8)

    def test_dispatch(self, fig3, call100):
        from crosshedge import LinearExposure

        assert payoff_curve_for(fig3, call100).tag == "bachelier-call"
        assert payoff_curve_for(fig3, LinearExposure(2.0)).tag == "linear"
        assert payoff_curve_for(fig3, CustomSmoothExposure(payoff=lambda u: u)).tag == "custom"

    def test_dt_offset_required(self):
        with pytest.raises(ValueError):
            BachelierCallExposure(100.0, 1.0, dt_offset=0.0)


class TestDeltaSquaredClosedForm:
    def test_matches_quadrature_mid_horizon(self, fig3, call100):
        # closed form (bivariate orthant via Owen's T) vs direct quadrature
        curve = call_payoff_curve(fig3, call100)
        t, s, u = 0.1, 0.6, 1.2
        sd = fig3.eta * math.sqrt(s - t)

        def integrand(y):
            w = math.exp(-0.5 * ((y - u) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
            return w * float(curve.delta(s, np.asarray(y))) ** 2

        val, _ = quad(integrand, u - 12 * sd, u + 12 * sd, epsabs=1e-10, epsrel=1e-10, limit=400)
        assert float(curve.delta_sq_expectation(t, s, np.asarray(u))) == pytest.approx(val, abs=1e-6)

    def test_degenerate_time(self, fig3, call100):
        curve = call_payoff_curve(fig3, call100)
        d = float(curve.delta(0.4, np.asarray(1.1)))
        assert float(curve.delta_sq_expectation(0.4, 0.4, np.asarray(1.1))) == pytest.approx(d * d, rel=1e-12)


class TestDeltaSquaredOverTimes:
    """delta_sq_expectation(t, s, u) with an array s broadcast against u equals
    the per-time scalar evaluation."""

    T0 = 0.2
    S = np.linspace(0.25, 0.999, 11)
    U = np.linspace(0.2, 1.8, 7)

    @pytest.mark.parametrize("drift", [0.0, 0.05])
    def test_closed_forms_bitwise(self, fig3, call100, drift):
        p = replace(fig3, beta=drift)
        for curve in (call_payoff_curve(p, call100), linear_payoff_curve(p, 3.0)):
            got = curve.delta_sq_expectation(self.T0, self.S, self.U[:, None])
            assert got.shape == (self.U.size, self.S.size)
            loop = np.stack([curve.delta_sq_expectation(self.T0, float(s), self.U) for s in self.S], axis=-1)
            assert np.array_equal(got, loop)

    def test_rejects_time_before_conditioning(self, fig3, call100):
        curve = call_payoff_curve(fig3, call100)
        with pytest.raises(ValueError, match="need t <= s"):
            curve.delta_sq_expectation(0.5, np.array([0.6, 0.4]), 1.0)

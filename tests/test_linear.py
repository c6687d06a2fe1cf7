import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from crosshedge import (
    LinearExposure,
    ModelParams,
    State,
    h0,
    h1,
    h2,
    linear_value_function,
    long_horizon_position,
    optimal_inventory_linear,
    optimal_speed_linear,
)
from crosshedge.config import PRESETS
from crosshedge.market import derived_constants
from crosshedge.oracles import speed_argmax_on_grid
from crosshedge.verify import random_well_posed_params

# Oracle-computed reference values (frozen):
#  - RK4 backward integration of the (h0, h1, h2) terminal-value system,
#    2e4 steps (oracles.riccati_h_system + rk4_backward)
#  - dense Simpson quadrature for h0
H2_GAMMA0_RK4_T0 = -0.00597826086956525      # k=1e-3, alpha=0.05, b=1e-2, gamma=0, T=1
H2_FIG1_RK4_T0 = -0.0757106781186515         # fig1 params, T=3
H1_FIG1L_RK4_T0 = -0.0700458409140021        # fig1 params, T=0.5, frak_n=1
H0_FIG1L_SIMPSON_T0 = -0.2115349191829902    # fig1 params, T=0.5, frak_n=1


def params_with(**kw):
    base = dict(mu=0.0, sigma=1.0, beta=0.0, eta=1.0, rho=0.5, b=1e-2, c=1e-3, k=1e-2, gamma=1.0, alpha=0.05, T=3.0)
    base.update(kw)
    return ModelParams(**base)


class TestH2:
    def test_terminal_condition(self, fig1):
        assert h2(fig1, fig1.T) == pytest.approx(-fig1.alpha, abs=1e-14)

    def test_gamma_zero_analytic_branch(self):
        p = params_with(k=1e-3, gamma=0.0, T=1.0)
        assert h2(p, 0.0) == pytest.approx(H2_GAMMA0_RK4_T0, abs=1e-8)
        # hand value: -k*m/(2k + m*T) - b/2
        assert h2(p, 0.0) == pytest.approx(-1e-3 * 0.09 / (2e-3 + 0.09) - 5e-3, rel=1e-12)

    def test_fig1_matches_rk4(self, fig1):
        assert h2(fig1, 0.0) == pytest.approx(H2_FIG1_RK4_T0, abs=1e-8)

    def test_domain_error(self, fig1):
        with pytest.raises(ValueError):
            h2(fig1, fig1.T + 0.5)

    def test_finite_and_bounded(self, fig1):
        ts = np.linspace(0, fig1.T, 101)
        vals = np.asarray(h2(fig1, ts))
        assert np.all(np.isfinite(vals))
        assert np.all(vals < 0)

    def test_large_stiffness_stable(self):
        # omega*T/k far beyond exp overflow range for the naive form
        p = params_with(k=1e-4, gamma=10.0, T=5.0)
        val = h2(p, 0.0)
        d = math.sqrt(p.k * p.gamma * p.sigma**2 / 2)
        assert val == pytest.approx(-d - p.b / 2, rel=1e-9)

    def test_gamma_limit_consistency(self):
        p0 = params_with(mu=0.1, k=1e-3, gamma=0.0, T=1.0)
        ks = []
        for g in (1e-6, 1e-8):
            pg = params_with(mu=0.1, k=1e-3, gamma=g, T=1.0)
            dev = max(abs(float(h2(pg, t)) - float(h2(p0, t))) for t in np.linspace(0, 1, 11))
            ks.append(dev / g)
        assert ks[0] == pytest.approx(ks[1], rel=0.05)


class TestH1:
    def test_terminal_condition(self, fig1):
        assert h1(fig1, 1.0, fig1.T) == 0.0

    def test_zero_forcing(self):
        p = params_with(mu=0.0)
        ts = np.linspace(0, p.T, 7)
        assert np.all(np.asarray(h1(p, 0.0, ts)) == 0.0)

    def test_fig1_left_matches_rk4(self, fig1_left):
        assert h1(fig1_left, 1.0, 0.0) == pytest.approx(H1_FIG1L_RK4_T0, abs=1e-8)

    def test_broadcasts_over_exposure(self, fig1):
        ns = np.array([0.0, 0.5, 1.0])
        vals = np.asarray(h1(fig1, ns, 1.0))
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(float(h1(fig1, 0.0, 1.0)))


class TestH0:
    def test_terminal_condition(self, fig1):
        assert h0(fig1, 1.0, fig1.T) == 0.0

    def test_zero_case(self):
        p = params_with(mu=0.0)
        assert h0(p, 0.0, 0.7) == 0.0

    def test_fig1_left_matches_simpson(self, fig1_left):
        assert h0(fig1_left, 1.0, 0.0) == pytest.approx(H0_FIG1L_SIMPSON_T0, abs=1e-8)

    @pytest.mark.parametrize(
        "overrides, frak_n, frac",
        [({}, 100.0, 0.0), ({"beta": 0.05}, -3.0, 0.3), ({"k": 0.01, "T": 3.0, "beta": -0.02}, 1.0, 0.9)],
        ids=["fig3", "fig3-beta", "fig3-slow"],
    )
    def test_gamma0_closed_form(self, fig3, overrides, frak_n, frac):
        # gamma = mu = 0: h0 = beta*n*tau + (c*n)^2 * k/m * (1/(2k) - 1/(2k + m*tau)),
        # evaluated exactly in rationals on the float inputs (5/92 for fig3)
        p = replace(fig3, **overrides)
        t = frac * p.T
        tau, k, m = (Fraction(v) for v in (p.T - t, p.k, p.m))
        cn = Fraction(p.c) * Fraction(frak_n)
        exact = float(Fraction(p.beta) * Fraction(frak_n) * tau + cn * cn * k / m * (1 / (2 * k) - 1 / (2 * k + m * tau)))
        assert abs(h0(p, frak_n, t) - exact) <= 4 * math.ulp(exact)

    @staticmethod
    def _worst_vs_adaptive(cases):
        """Largest |h0 - ref| relative to max(|ref|, integral) at t in {0, 0.3T, 0.9T};
        ref is quad at epsrel 2e-14 with breakpoints at the 2k/m and k/omega
        scales before the horizon.  The integral, not h0, sets the scale, so
        cancellation against the exact linear part does not inflate the error."""
        worst = 0.0
        for p, frak_n in cases:
            omega = derived_constants(p).omega
            scales = [2 * p.k / p.m] + ([p.k / omega] if omega > 0 else [])
            for frac in (0.0, 0.3, 0.9):
                t = frac * p.T
                points = sorted({p.T - s * f for s in scales for f in (0.1, 1, 10, 100) if t < p.T - s * f < p.T})
                integral, _ = quad(
                    lambda s: (h1(p, frak_n, s) + p.c * frak_n) ** 2 / (4 * p.k),
                    t, p.T, epsabs=0.0, epsrel=2e-14, limit=1000, points=points or None,
                )
                ref = (p.beta * frak_n - 0.5 * p.gamma * p.eta**2 * frak_n**2) * (p.T - t) + integral
                worst = max(worst, abs(h0(p, frak_n, t) - ref) / max(abs(ref), integral))
        return worst

    def test_matches_tight_adaptive_reference(self):
        presets = [ModelParams(**v["model"]) for v in PRESETS.values()]
        models = presets + [replace(p, mu=0.1, beta=0.05) for p in presets]
        rng = np.random.default_rng(11)
        cases = [(p, n) for p in models for n in (1.0, 100.0, -3.0)]
        cases += [(random_well_posed_params(rng), float(rng.uniform(-2, 2))) for _ in range(40)]
        assert self._worst_vs_adaptive(cases) <= 1e-14

    def test_stiff_sets_match_tight_adaptive_reference(self, fig1):
        cases = [
            (replace(fig1, k=k, gamma=gamma, T=T, mu=0.1), 1.0)
            for k in (1e-4, 1e-3)
            for gamma in (1e-3, 1.0, 10.0)
            for T in (0.5, 3.0, 10.0)
        ]
        assert self._worst_vs_adaptive(cases) <= 5e-11


class TestOdeConsistency:
    def test_h_system_residuals(self, fig1):
        # central-difference residuals of the three coefficient ODEs
        frak_n = 1.0
        eps = 1e-6
        p = fig1
        zeta = p.mu - p.gamma * p.rho * p.sigma * p.eta * frak_n
        worst = {"h0": 0.0, "h1": 0.0, "h2": 0.0}
        for t in np.linspace(0.05, p.T - 0.05, 1000):
            h2p = (float(h2(p, t + eps)) - float(h2(p, t - eps))) / (2 * eps)
            slope = 2 * float(h2(p, t)) + p.b
            worst["h2"] = max(worst["h2"], abs(h2p - 0.5 * p.sigma**2 * p.gamma + slope**2 / (4 * p.k)))
            h1p = (float(h1(p, frak_n, t + eps)) - float(h1(p, frak_n, t - eps))) / (2 * eps)
            w = float(h1(p, frak_n, t)) + p.c * frak_n
            worst["h1"] = max(worst["h1"], abs(h1p + zeta + w * slope / (2 * p.k)))
        for t in np.linspace(0.05, p.T - 0.05, 25):
            h0p = (h0(p, frak_n, t + eps) - h0(p, frak_n, t - eps)) / (2 * eps)
            w = float(h1(p, frak_n, t)) + p.c * frak_n
            rhs = -(p.beta * frak_n - 0.5 * p.gamma * p.eta**2 * frak_n**2) - w * w / (4 * p.k)
            worst["h0"] = max(worst["h0"], abs(h0p - rhs))
        assert worst["h2"] < 1e-6
        assert worst["h1"] < 1e-6
        assert worst["h0"] < 1e-6


class TestOptimalSpeed:
    def test_nothing_to_do(self):
        p = params_with(mu=0.0)
        for t in (0.0, 1.5, p.T):
            assert optimal_speed_linear(p, 0.0, t, 0.0) == 0.0

    def test_terminal_speed_algebra(self, fig1):
        assert optimal_speed_linear(fig1, 1.0, fig1.T, 0.0) == pytest.approx(fig1.c / (2 * fig1.k))

    def test_slope_negative(self, fig1):
        for t in np.linspace(0, fig1.T, 9):
            slope = (2 * float(h2(fig1, t)) + fig1.b) / (2 * fig1.k)
            assert slope < 0

    def test_speed_is_path_derivative(self, fig1):
        # evaluated along the optimal path (q at t=1.5 is -0.49998...)
        eps = 1e-6
        t = 1.5
        q_t = float(optimal_inventory_linear(fig1, 1.0, 0.0, t))
        assert q_t == pytest.approx(-0.5, abs=2e-4)
        deriv = (
            float(optimal_inventory_linear(fig1, 1.0, 0.0, t + eps))
            - float(optimal_inventory_linear(fig1, 1.0, 0.0, t - eps))
        ) / (2 * eps)
        assert optimal_speed_linear(fig1, 1.0, t, q_t) == pytest.approx(deriv, abs=1e-6)

    def test_argmax_matches_grid_search(self, fig1):
        rng = np.random.default_rng(5)
        for _ in range(25):
            t = float(rng.uniform(0, fig1.T))
            q = float(rng.uniform(-0.75, 0.75))
            winner, analytic = speed_argmax_on_grid(fig1, 1.0, t, q)
            assert abs(winner - analytic) <= 1e-4


class TestOptimalInventory:
    def test_initial_condition(self, fig1):
        assert optimal_inventory_linear(fig1, 1.0, 0.37, 0.0) == pytest.approx(0.37, abs=1e-14)

    def test_no_incentive_stays_flat(self):
        p = params_with(mu=0.0)
        ts = np.linspace(0, p.T, 11)
        assert np.allclose(np.asarray(optimal_inventory_linear(p, 0.0, 0.0, ts)), 0.0, atol=1e-15)

    def test_long_horizon_plateau(self, fig1):
        # figure-level check: the T=3 path sits near -0.5 mid-horizon
        assert optimal_inventory_linear(fig1, 1.0, 0.0, 1.5) == pytest.approx(-0.5, abs=0.02)

    def test_consistency_gamma_zero_branch(self, fig3):
        eps = 1e-6
        for t in np.linspace(0.05, fig3.T - 0.05, 19):
            deriv = (
                float(optimal_inventory_linear(fig3, 1.0, 0.3, t + eps))
                - float(optimal_inventory_linear(fig3, 1.0, 0.3, t - eps))
            ) / (2 * eps)
            q_t = float(optimal_inventory_linear(fig3, 1.0, 0.3, t))
            assert deriv == pytest.approx(float(optimal_speed_linear(fig3, 1.0, t, q_t)), abs=1e-6)

    def test_hedge_direction_short_under_positive_correlation(self):
        p = params_with(c=0.0, T=2.0)
        ts = np.linspace(0.01, 1.99, 199)
        q = np.asarray(optimal_inventory_linear(p, 1.0, 0.0, ts))
        assert np.all(q <= 0.0)


class TestLongHorizon:
    def test_fig1_value(self, fig1):
        assert long_horizon_position(fig1, 1.0) == pytest.approx(-0.5)

    def test_constructed_inverse(self):
        p = params_with(mu=1.0 * 1.0**2 * 3 + 1.0 * 0.5 * 1.0 * 1.0 * 1.0)
        assert long_horizon_position(p, 1.0) == pytest.approx(3.0)

    def test_no_hedge_without_correlation(self):
        p = params_with(rho=0.0, mu=0.0)
        assert long_horizon_position(p, 5.0) == 0.0

    def test_undefined_limits(self):
        p = params_with(gamma=0.0, k=1e-3, T=1.0)
        with pytest.raises(ValueError):
            long_horizon_position(p, 1.0)


class TestValueFunction:
    def test_terminal_no_position(self):
        p = params_with()
        assert linear_value_function(p, 0.0, State(p.T, 0.0, 0.0, 10.0, 1.0)) == pytest.approx(-1.0)

    def test_terminal_penalty(self):
        p = params_with()
        val = linear_value_function(p, 0.0, State(p.T, 0.0, 1.0, 0.0, 1.0))
        assert val == pytest.approx(-math.exp(0.05))

    def test_negative_and_increasing_in_cash(self, fig1):
        lo = linear_value_function(fig1, 1.0, State(0.0, 0.0, 0.0, 10.0, 5.0))
        hi = linear_value_function(fig1, 1.0, State(0.0, 1.0, 0.0, 10.0, 5.0))
        assert lo < hi < 0

    def test_requires_risk_aversion(self, fig3):
        with pytest.raises(ValueError):
            linear_value_function(fig3, 1.0, State(0.0, 0.0, 0.0, 10.0, 1.0))

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from crosshedge import (
    ExpansionScale,
    Lambda0,
    Lambda1,
    Lambda2,
    LinearExposure,
    ModelParams,
    call_payoff_curve,
    expansion_value,
    f_coefficients,
    h1,
    h2,
    lambda0,
    lambda1,
    linear_payoff_curve,
    nu_hat,
    nu_hat_components,
    nu_prime,
    optimal_speed_linear,
    risk_neutral_cross_impact_speed,
)
from crosshedge.config import PRESETS
from crosshedge.expansion import (
    _f1,
    _f2,
    delta_substitution_strategy,
    expansion_nu_hat_strategy,
    risk_neutral_cross_impact_strategy,
)
from crosshedge.oracles import (
    Lambda1_nested_quadrature,
    Lambda2_ode_system,
    f1_ode_system,
    lambda0_monte_carlo,
    lambda1_nested_quadrature,
    rk4_backward,
)

# Oracle-computed reference values (frozen):
#  - nested time x space quadrature of the Feynman-Kac expectations
#  - Monte Carlo of lambda_0's expectation (1e6 paths, 400 steps, seed 101)
LAMBDA1_NESTED_FIG3 = -47.87234042553191   # t=0.5, u=K
BIG_LAMBDA1_NESTED_FIG5 = -9.019230769230765  # t=0.3, u=K
LAMBDA0_MC_MEAN = 27.17156979663215
LAMBDA0_MC_SE = 0.012781811848531135


def params_with(**kw):
    base = dict(mu=0.0, sigma=1.0, beta=0.0, eta=1.0, rho=0.5, b=1e-2, c=1e-3, k=1e-3, gamma=0.0, alpha=0.05, T=1.0)
    base.update(kw)
    return ModelParams(**base)


@pytest.fixture(scope="module")
def mu_params():
    return params_with(mu=0.1)


class TestFCoefficients:
    def test_zero_drift(self, fig7):
        f0, f1, f2 = f_coefficients(fig7, 0.3)
        assert f0 == 0.0 and f1 == 0.0
        assert f2 < 0

    def test_terminal(self, fig7):
        assert f_coefficients(fig7, fig7.T) == pytest.approx((0.0, 0.0, -fig7.alpha))

    def test_f1_matches_rk4(self, mu_params):
        sol = rk4_backward(f1_ode_system(mu_params, 2_500))
        for t in np.linspace(0.0, mu_params.T, 7):
            assert f_coefficients(mu_params, t)[1] == pytest.approx(sol(t)[0], abs=1e-8)

    def test_f2_is_gamma0_h2(self, fig3):
        for t in np.linspace(0, fig3.T, 7):
            assert f_coefficients(fig3, t)[2] == pytest.approx(float(h2(fig3, t)), rel=1e-12)


class TestLambda1:
    def test_terminal(self, fig7, call100):
        curve = call_payoff_curve(fig7, call100)
        for u in (1.0, 1.2):
            assert lambda1(fig7, curve, fig7.T, u) == 0.0

    def test_constant_delta_reduction(self, fig7):
        curve = linear_payoff_curve(fig7, 2.0)
        t = 0.4
        tau = fig7.T - t
        expected = -fig7.m * tau / (2 * fig7.k + fig7.m * tau) * 2.0
        assert lambda1(fig7, curve, t, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_matches_nested_quadrature(self, fig3, call100):
        curve = call_payoff_curve(fig3, call100)
        assert float(lambda1(fig3, curve, 0.5, 1.0)) == pytest.approx(LAMBDA1_NESTED_FIG3, abs=1e-6)
        for params in (fig3, replace(fig3, mu=0.1, beta=0.05)):
            curve = call_payoff_curve(params, call100)
            live = lambda1_nested_quadrature(params, curve, 0.5, 1.0, time_nodes=48)
            assert float(lambda1(params, curve, 0.5, 1.0)) == pytest.approx(live, abs=1e-6)

    def test_bound(self, fig7, call100):
        curve = call_payoff_curve(fig7, call100)
        for t in np.linspace(0, fig7.T, 5):
            tau = fig7.T - t
            cap = fig7.m * tau / (2 * fig7.k + fig7.m * tau) * 100.0
            assert abs(float(lambda1(fig7, curve, t, 1.2))) <= cap + 1e-12


class TestLambda0Small:
    def test_zero_drift(self, fig7, call100):
        curve = call_payoff_curve(fig7, call100)
        assert float(lambda0(fig7, curve, 0.3, np.asarray(1.0))) == 0.0

    def test_terminal(self, mu_params, fig7, call100):
        for params, u in ((mu_params, 1.0), (fig7, 1.2)):
            curve = call_payoff_curve(params, call100)
            assert float(lambda0(params, curve, params.T, np.asarray(u))) == 0.0

    def test_monte_carlo_oracle_frozen(self, mu_params, call100):
        curve = call_payoff_curve(mu_params, call100)
        closed = float(lambda0(mu_params, curve, 0.0, np.asarray(1.0)))
        assert abs(closed - LAMBDA0_MC_MEAN) < 3 * LAMBDA0_MC_SE

    def test_monte_carlo_oracle_live(self, mu_params, call100):
        curve = call_payoff_curve(mu_params, call100)
        mean, se = lambda0_monte_carlo(mu_params, curve, 0.0, 1.0, n_paths=200_000, n_steps=400, seed=101)
        closed = float(lambda0(mu_params, curve, 0.0, np.asarray(1.0)))
        assert abs(closed - mean) < 3 * se


class TestBigLambda2:
    def test_terminal_and_sign(self, fig7):
        assert Lambda2(fig7, fig7.T) == 0.0
        ts = np.linspace(0, fig7.T, 21)
        assert np.all(np.asarray(Lambda2(fig7, ts)) <= 0.0)

    def test_sigma_zero(self, call100):
        p = params_with(sigma=0.0, gamma=2e-3)
        assert Lambda2(p, 0.2) == 0.0

    def test_matches_rk4(self, fig7):
        sol = rk4_backward(Lambda2_ode_system(fig7, 2_500))
        ts = np.linspace(0.0, fig7.T, 7)
        np.testing.assert_allclose(Lambda2(fig7, ts), sol(ts)[:, 0], rtol=0, atol=1e-8)


class TestBigLambda1:
    def test_zero_when_uncorrelated_and_driftless(self, call100):
        p = params_with(rho=0.0, gamma=1e-3)
        curve = call_payoff_curve(p, call100)
        for (t, u) in [(0.0, 0.7), (0.6, 1.3)]:
            assert float(Lambda1(p, curve, t, u)) == 0.0

    def test_terminal(self, fig5, fig7, call100):
        for params, u in ((fig5, 1.0), (fig7, 1.2)):
            curve = call_payoff_curve(params, call100)
            assert float(Lambda1(params, curve, params.T, u)) == 0.0

    def test_matches_nested_quadrature(self, fig5, call100):
        curve = call_payoff_curve(fig5, call100)
        assert float(Lambda1(fig5, curve, 0.3, 1.0)) == pytest.approx(BIG_LAMBDA1_NESTED_FIG5, abs=1e-6)
        for params in (fig5, replace(fig5, mu=0.1, beta=0.05)):
            curve = call_payoff_curve(params, call100)
            live = Lambda1_nested_quadrature(params, curve, 0.3, 1.0, time_nodes=48)
            assert float(Lambda1(params, curve, 0.3, 1.0)) == pytest.approx(live, abs=1e-6)

    def test_negative_pull_when_long_delta(self, fig5, call100):
        # with mu=0 and rho>0 only the hedging pull remains
        curve = call_payoff_curve(fig5, call100)
        assert float(Lambda1(fig5, curve, 0.25, 1.0)) < 0


class TestBigLambda0:
    def test_degenerate_zero(self, call100):
        p = params_with(eta=0.0, gamma=1e-3, rho=0.0)
        curve = call_payoff_curve(p, call100)
        assert float(Lambda0(p, curve, 0.4, np.asarray(1.0))) == 0.0

    def test_terminal(self, fig7, call100):
        curve = call_payoff_curve(fig7, call100)
        for u in (1.0, 1.2):
            assert float(Lambda0(fig7, curve, fig7.T, np.asarray(u))) == 0.0

    def test_constant_delta_value(self, fig7):
        # with delta = frak_n and mu = 0 the integral is -eta^2 n^2 (T-t)/2
        curve = linear_payoff_curve(fig7, 3.0)
        t = 0.25
        val = float(Lambda0(fig7, curve, t, np.asarray(1.0)))
        assert val == pytest.approx(-0.5 * fig7.eta**2 * 9.0 * (fig7.T - t), rel=1e-10)


_REF_QUAD = dict(epsabs=0.0, epsrel=1e-13, limit=500)


def _ref_integral(p, fn, t):
    """integral_t^T fn(s) ds; break points resolve the layer of width ~k/m at T."""
    layer = [p.T - n * p.k / p.m for n in (100.0, 10.0, 1.0)]
    return quad(fn, t, p.T, points=[s for s in layer if t < s] or None, **_REF_QUAD)[0]


def _ref_D(p, t):
    """D(t) = integral_t^T (2k+m(T-s)) f1(s) Lambda2(s) ds / (k*(2k+m(T-t)))."""
    a = lambda s: 2.0 * p.k + p.m * (p.T - s)  # noqa: E731
    num = _ref_integral(p, lambda s: a(s) * float(_f1(p, s)) * float(Lambda2(p, s)), t)
    return num / (p.k * a(t))


def _ref_pull(p, t):
    """-rho*sigma*eta * integral_t^T (2k+m(T-s)) ds / (2k+m(T-t))."""
    tau = p.T - t
    return -p.rho * p.sigma * p.eta * (2.0 * p.k * tau + 0.5 * p.m * tau * tau) / (2.0 * p.k + p.m * tau)


@pytest.fixture(
    scope="module",
    params=[(name, k) for name in ("fig7", "fig1_left") for k in (None, 1e-5)],
    ids=lambda case: f"{case[0]}-k={case[1] or 'preset'}",
)
def drift_preset(request):
    name, k = request.param
    p = replace(ModelParams(**PRESETS[name]["model"]), mu=0.1, beta=0.05)
    return p if k is None else replace(p, k=k)


class TestDriftIntegrals:
    """The drift time integrals against adaptive quadrature of their definitions.

    Under a one-unit linear payoff (delta = 1) lambda0 is its time weight,
    Lambda1 is D(t) plus the closed-form hedging pull, and the drift part
    of Lambda0 (Lambda0 minus its mu = 0 value) is
    integral_t^T f1(s) * (D(s) + pull(s)) ds / (2k).
    """

    tol = dict(rel=1e-11, abs=1e-14)

    @pytest.fixture
    def times(self, drift_preset):
        return [0.0, 0.3 * drift_preset.T, 0.9 * drift_preset.T, drift_preset.T - 1e-4]

    def test_f0(self, drift_preset, times):
        p = drift_preset
        for t in times:
            ref = _ref_integral(p, lambda s: float(_f1(p, s)) ** 2, t) / (4.0 * p.k)
            assert f_coefficients(p, t)[0] == pytest.approx(ref, **self.tol)

    def test_lambda0_weight(self, drift_preset, times):
        p = drift_preset
        curve = linear_payoff_curve(p, 1.0)
        for t in times:
            ref = _ref_integral(p, lambda s: float(_f1(p, s)) / (2.0 * p.k + p.m * (p.T - s)), t)
            assert float(lambda0(p, curve, t, 1.0)) == pytest.approx(ref, **self.tol)

    def test_drift_risk_integral(self, drift_preset, times):
        p = drift_preset
        curve = linear_payoff_curve(p, 1.0)
        for t in times:
            ref = _ref_D(p, t) + _ref_pull(p, t)
            assert float(Lambda1(p, curve, t, 1.0)) == pytest.approx(ref, **self.tol)

    def test_Lambda0_drift_part(self, drift_preset, times):
        p = drift_preset
        curve = linear_payoff_curve(p, 1.0)
        driftless = replace(p, mu=0.0)
        for t in times:
            ref = _ref_integral(p, lambda s: float(_f1(p, s)) * (_ref_D(p, s) + _ref_pull(p, s)), t) / (2.0 * p.k)
            got = float(Lambda0(p, curve, t, 1.0)) - float(Lambda0(driftless, curve, t, 1.0))
            assert got == pytest.approx(ref, **self.tol)


class TestNuHat:
    def test_theta_zero_is_base_speed(self, fig7, call100):
        curve = call_payoff_curve(fig7, call100)
        sc = ExpansionScale.from_params(fig7, 0.0)
        got = nu_hat(fig7, curve, sc, 0.3, -0.7, 1.1)
        base = (float(_f1(fig7, 0.3)) + (2 * float(_f2(fig7, 0.3)) + fig7.b) * (-0.7)) / (2 * fig7.k)
        assert got == base

    def test_terminal_reduces_to_cross_term(self, fig7, call100):
        curve = call_payoff_curve(fig7, call100)
        sc = ExpansionScale.from_params(fig7, 0.5)
        got = nu_hat(fig7, curve, sc, fig7.T, 0.0, 1.2)
        expected = sc.effective_c * float(curve.delta(fig7.T, np.asarray(1.2))) / (2 * fig7.k)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_assembled_from_nested_quadrature(self, fig7, call100):
        # independent oracle: rebuild nu_hat from quadrature-computed
        # lambda_1 and Lambda_1 (no martingale shortcut)
        curve = call_payoff_curve(fig7, call100)
        sc = ExpansionScale.from_params(fig7, 1.0)
        t, q, u = 0.0, 0.0, 1.0
        d = float(curve.delta(t, np.asarray(u)))
        nu0 = (float(_f1(fig7, t)) + (2 * float(_f2(fig7, t)) + fig7.b) * q) / (2 * fig7.k)
        assembled = (
            nu0
            + sc.effective_c * (d + lambda1_nested_quadrature(fig7, curve, t, u)) / (2 * fig7.k)
            + sc.effective_gamma
            * (Lambda1_nested_quadrature(fig7, curve, t, u) + 2 * float(Lambda2(fig7, t)) * q)
            / (2 * fig7.k)
        )
        assert nu_hat(fig7, curve, sc, t, q, u) == pytest.approx(assembled, abs=1e-8)

    @pytest.mark.parametrize("drift", [{}, {"mu": 0.1, "beta": 0.05}])
    def test_assembled_from_coefficients(self, fig7, call100, drift):
        # the summed (a, w, B) triple against nu_0 + theta*c*(delta + lambda_1)/(2k)
        # + theta*gamma*(Lambda_1 + 2*Lambda_2*q)/(2k) from the public coefficients
        params = replace(fig7, **drift)
        curve = call_payoff_curve(params, call100)
        sc = ExpansionScale.from_params(params, 0.2)
        for t, q, u in [(0.0, 0.0, 1.0), (0.3, -1.5, 0.4), (0.8, 2.0, 1.9)]:
            d = float(curve.delta(t, np.asarray(u)))
            nu0 = (float(_f1(params, t)) + (2 * float(_f2(params, t)) + params.b) * q) / (2 * params.k)
            assembled = (
                nu0
                + sc.effective_c * (d + lambda1(params, curve, t, u)) / (2 * params.k)
                + sc.effective_gamma * (Lambda1(params, curve, t, u) + 2 * Lambda2(params, t) * q) / (2 * params.k)
            )
            got = nu_hat(params, curve, sc, t, q, u)
            assert abs(got - assembled) <= 1e-12 * max(1.0, abs(assembled))

    def test_affine_in_inventory(self, fig7, call100):
        curve = call_payoff_curve(fig7, call100)
        sc = ExpansionScale.from_params(fig7, 1.0)
        qs = np.array([-1.0, 0.0, 1.0])
        vals = np.asarray(nu_hat(fig7, curve, sc, 0.4, qs, 1.0))
        assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0], rel=1e-12)

    def test_opposing_signs(self, fig7, call100):
        curve = call_payoff_curve(fig7, call100)
        sc = ExpansionScale.from_params(fig7, 1.0)
        _, c_term, g_term = nu_hat_components(fig7, curve, sc, 0.25, 0.0, 1.0)
        assert float(c_term) > 0
        assert float(g_term) < 0


class TestNuPrime:
    def test_linear_payoff_degeneracy(self, fig1):
        curve = linear_payoff_curve(fig1, 1.0)
        sc = ExpansionScale.from_params(fig1, 1.0)
        for t in (0.0, 1.2, 2.9):
            for q in (-0.5, 0.0, 0.8):
                a = nu_prime(fig1, curve, sc, t, q, 5.0)
                b = optimal_speed_linear(fig1, 1.0, t, q)
                assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("drift", [{}, {"mu": 0.1, "beta": 0.05}])
    def test_linear_speed_at_payoff_delta(self, fig7, call100, drift):
        # the (a, w, B) triple against the linear optimal speed with delta units
        params = replace(fig7, **drift)
        curve = call_payoff_curve(params, call100)
        for theta in (0.2, 1.0):
            sc = ExpansionScale.from_params(params, theta)
            eff = replace(params, c=sc.effective_c, gamma=sc.effective_gamma)
            for t, q, u in [(0.0, 0.0, 1.0), (0.3, -1.5, 0.4), (0.8, 2.0, 1.9)]:
                ref = optimal_speed_linear(eff, float(curve.delta(t, np.asarray(u))), t, q)
                got = nu_prime(params, curve, sc, t, q, u)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_deep_otm_reduces_to_liquidation(self, fig5, call100):
        curve = call_payoff_curve(fig5, call100)
        sc = ExpansionScale.from_params(fig5, 1.0)
        u = 1.0 - 9.0  # delta ~ 1e-16 * N
        q, t = -0.8, 0.4
        eff = ModelParams(**{**fig5.__dict__, "c": sc.effective_c, "gamma": sc.effective_gamma})
        pure = (float(h1(eff, 0.0, t)) + (2 * float(h2(eff, t)) + fig5.b) * q) / (2 * fig5.k)
        assert nu_prime(fig5, curve, sc, t, q, u) == pytest.approx(pure, abs=1e-9)

    def test_two_theta_scaling(self, fig7, call100):
        # |nu_prime - nu_hat| = o(theta): halving theta at least halves it
        curve = call_payoff_curve(fig7, call100)
        rescaled = []
        for theta in (0.1, 0.05):
            sc = ExpansionScale.from_params(fig7, theta)
            diff = abs(nu_prime(fig7, curve, sc, 0.5, -1.0, 1.0) - nu_hat(fig7, curve, sc, 0.5, -1.0, 1.0))
            rescaled.append(diff / theta)
        assert rescaled[1] / rescaled[0] <= 0.6


class TestRiskNeutralCrossImpact:
    def test_zero_case(self, call100):
        p = params_with(c=0.0)
        curve = call_payoff_curve(p, call100)
        assert risk_neutral_cross_impact_speed(p, curve, 0.3, 0.0, 1.0) == 0.0

    def test_equals_nu_hat_at_gamma_zero(self, fig3, call100):
        curve = call_payoff_curve(fig3, call100)
        sc = ExpansionScale.from_params(fig3, 1.0)
        for (t, q, u) in [(0.0, 0.0, 1.0), (0.6, 0.5, 1.4), (0.95, -0.2, 0.7)]:
            assert risk_neutral_cross_impact_speed(fig3, curve, t, q, u) == pytest.approx(
                float(nu_hat(fig3, curve, sc, t, q, u)), rel=1e-12
            )

    def test_deep_itm_target_inventory(self, fig3, call100):
        # the pull term drives q toward (c/m) * delta = (c/m) * N deep ITM
        target = fig3.c / fig3.m * 100.0
        assert target == pytest.approx(1.111, abs=1e-3)
        curve = call_payoff_curve(fig3, call100)
        t, u = 0.9, 1.0 + 5.0
        # at the target the pull vanishes: speed equals the base term alone
        got = risk_neutral_cross_impact_speed(fig3, curve, t, target, u)
        base = (2 * float(_f2(fig3, t)) + fig3.b) * target / (2 * fig3.k)
        pull = fig3.c * 100.0 / (2 * fig3.k + fig3.m * (fig3.T - t))
        assert got == pytest.approx(base + pull, rel=1e-12)
        # rearranged form: -m (q - target)/(2k + m tau), zero at q = target
        assert base + pull == pytest.approx(0.0, abs=1e-12)

    def test_large_penalty_kills_cross_impact(self, fig3):
        big_alpha = ModelParams(**{**fig3.__dict__, "alpha": fig3.alpha * 1e3})
        ratio = (fig3.c / big_alpha.m * 100.0) / (fig3.c / fig3.m * 100.0)
        assert ratio == pytest.approx(1e-3, rel=0.15)


class TestOneDeltaEvaluation:
    """Every shipped speed, each strategy rule and expansion_value read the
    payoff delta once per evaluation: the speeds are a + w*delta + B*q."""

    @pytest.mark.parametrize("drift", [{}, {"mu": 0.1, "beta": 0.05}])
    def test_one_delta_call(self, fig7, call100, drift):
        params = replace(fig7, **drift)
        calls = []
        base = call_payoff_curve(params, call100)

        def counting_delta(t, u):
            calls.append(t)
            return base.delta(t, u)

        curve = replace(base, delta=counting_delta)
        sc = ExpansionScale.from_params(params, 0.5)
        q, u = np.array([-1.0, 0.0, 1.5]), np.array([0.6, 1.0, 1.3])
        rules = {
            "rule " + s.tag: s.rule
            for s in (
                expansion_nu_hat_strategy(params, curve, sc),
                delta_substitution_strategy(params, curve, sc),
                risk_neutral_cross_impact_strategy(params, curve),
            )
        }
        evaluations = {
            "nu_hat": lambda t: nu_hat(params, curve, sc, t, q, u),
            "nu_prime": lambda t: nu_prime(params, curve, sc, t, q, u),
            "risk_neutral_cross_impact_speed": lambda t: risk_neutral_cross_impact_speed(params, curve, t, q, u),
            "expansion_value": lambda t: expansion_value(params, curve, sc, t, 0.5, 1.1),
            **{name: (lambda t, r=rule: r(t, q, u)) for name, rule in rules.items()},
        }
        for name, evaluate in evaluations.items():
            for t in (0.0, 0.4, params.T):
                calls.clear()
                evaluate(t)
                assert calls == [t], f"{name} at t={t}: {len(calls)} delta calls"


class TestExpansionValue:
    def test_theta_zero_keeps_expected_payoff(self, fig7, call100):
        curve = call_payoff_curve(fig7, call100)
        sc = ExpansionScale.from_params(fig7, 0.0)
        val = expansion_value(fig7, curve, sc, 0.4, 0.0, 1.1)
        assert val == pytest.approx(float(curve.g(0.4, np.asarray(1.1))), rel=1e-12)

    def test_terminal_is_payoff_value(self, fig7, call100):
        curve = call_payoff_curve(fig7, call100)
        sc = ExpansionScale.from_params(fig7, 1.0)
        val = expansion_value(fig7, curve, sc, fig7.T, 0.0, 1.3)
        assert val == pytest.approx(float(curve.g(fig7.T, np.asarray(1.3))), rel=1e-12)

    def test_theta_derivative_matches_linear_closed_form(self):
        # linear payoff, mu = 0, gamma = 0: d/dtheta of the exact value at
        # theta = 0 equals c * (lambda_0 + lambda_1 q)
        p = params_with(mu=0.0, gamma=0.0, c=2e-3)
        frak_n, q, t = 1.5, -0.8, 0.35
        curve = linear_payoff_curve(p, frak_n)

        def exact_h(theta):
            eff = ModelParams(**{**p.__dict__, "c": theta * p.c})
            from crosshedge import h0 as h0_fn

            return (
                h0_fn(eff, frak_n, t)
                + float(h1(eff, frak_n, t)) * q
                + float(h2(eff, t)) * q * q
            )

        eps = 1e-3
        fd = (exact_h(eps) - exact_h(-eps)) / (2 * eps)
        expansion_first_order = p.c * (
            float(lambda0(p, curve, t, np.asarray(1.0))) + float(lambda1(p, curve, t, np.asarray(1.0))) * q
        )
        assert fd == pytest.approx(expansion_first_order, abs=1e-6)

    def test_components_retrievable(self, fig7, call100):
        curve = call_payoff_curve(fig7, call100)
        sc = ExpansionScale.from_params(fig7, 1.0)
        total, parts = expansion_value(fig7, curve, sc, 0.4, 0.5, 1.1, return_components=True)
        rebuilt = parts["h0"] + sc.effective_c * parts["h1"] + sc.effective_gamma * parts["h2"]
        assert total == pytest.approx(float(rebuilt), rel=1e-14)


class TestScale:
    def test_from_params(self, fig7):
        sc = ExpansionScale.from_params(fig7, 0.25)
        assert sc.effective_c == pytest.approx(0.25 * fig7.c)
        assert sc.effective_gamma == pytest.approx(0.25 * fig7.gamma)

    def test_negative_theta_rejected(self, fig7):
        with pytest.raises(ValueError):
            ExpansionScale.from_params(fig7, -0.1)

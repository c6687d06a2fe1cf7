import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosshedge import (
    BachelierCallExposure,
    CustomSmoothExposure,
    Lambda1,
    LinearExposure,
    ModelParams,
    SimulationError,
    State,
    Strategy,
    call_payoff_curve,
    constant_strategy,
    lambda1,
    linear_optimal_strategy,
    optimal_inventory_linear,
    payoff_eval,
    risk_neutral_cross_impact_strategy,
    simulate_path,
    terminal_wealth,
    utility_of,
)
from crosshedge.market import DEFAULT_SPEED_CLAMP, RNG_LAYOUT, make_rng
from crosshedge.oracles import simulate_ensemble


def params_with(**kw):
    base = dict(mu=0.0, sigma=1.0, beta=0.0, eta=1.0, rho=0.5, b=1e-2, c=1e-3, k=1e-2, gamma=1.0, alpha=0.05, T=1.0)
    base.update(kw)
    return ModelParams(**base)


class TestModelParams:
    def test_well_posedness_rejected(self):
        with pytest.raises(ValueError, match="2\\*alpha - b"):
            params_with(alpha=0.05, b=0.2)

    @pytest.mark.parametrize(
        "field,value",
        [("k", 0.0), ("T", -1.0), ("rho", 1.0), ("b", -0.1), ("alpha", 0.0),
         ("mu", math.nan), ("T", math.inf), ("c", -math.inf), ("gamma", math.nan)],
    )
    def test_invalid_fields(self, field, value):
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            params_with(**{field: value})

    def test_m_is_terminal_stiffness(self):
        p = params_with()
        assert p.m == pytest.approx(2 * p.alpha - p.b)
        assert p.m > 0


@pytest.mark.parametrize("field,value", [("t", math.nan), ("x", math.inf), ("u", -math.inf), ("s", math.nan)])
def test_state_rejects_non_finite(field, value):
    fields = dict(t=0.0, x=0.0, q=0.0, s=10.0, u=1.0)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        State(**{**fields, field: value})


@pytest.mark.parametrize("make, field", [
    (lambda v: LinearExposure(frak_n=v), "frak_n"),
    (lambda v: BachelierCallExposure(n_options=v, strike=1.0), "n_options"),
    (lambda v: BachelierCallExposure(n_options=100.0, strike=v), "strike"),
    (lambda v: BachelierCallExposure(n_options=100.0, strike=1.0, dt_offset=v), "dt_offset"),
], ids=["frak_n", "n_options", "strike", "dt_offset"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_exposure_rejects_non_finite(make, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make(value)


class TestSimulatePath:
    def test_drift_only_no_trading(self):
        p = params_with(mu=0.1, sigma=0.0, eta=0.0, beta=0.3)
        b = simulate_path(p, LinearExposure(0.0), constant_strategy(0.0), State(0, 0, 0, 10.0, 1.0), 1000, seed=1)
        assert b.s_path[-1] == pytest.approx(10.0 + 0.1, abs=1e-12)
        assert b.u_path[-1] == pytest.approx(1.0 + 0.3, abs=1e-12)
        assert b.x_path[-1] == 0.0

    def test_constant_speed_cost_identity(self):
        v = 0.7
        p = params_with(mu=0.0, sigma=0.0, eta=0.0, b=0.0, c=0.0)
        b = simulate_path(p, LinearExposure(0.0), constant_strategy(v), State(0, 0, 0, 10.0, 1.0), 500, seed=2)
        assert b.q_path[-1] == pytest.approx(v * p.T, rel=1e-12)
        assert b.x_path[-1] == pytest.approx(-(10.0 * v + p.k * v**2) * p.T, rel=1e-12)

    def test_euler_matches_closed_form_inventory(self, fig1):
        # derived check: simulated inventory under the optimal rule vs the
        # explicit deterministic path
        n_steps = 3000
        strat = linear_optimal_strategy(fig1, 1.0)
        b = simulate_path(fig1, LinearExposure(1.0), strat, State(0, 0, 0, 10.0, 5.0), n_steps, seed=7)
        q_cf = np.asarray(optimal_inventory_linear(fig1, 1.0, 0.0, b.times))
        assert np.max(np.abs(b.q_path - q_cf)) < 10.0 * b.dt

    def test_non_finite_speed_reports_step_and_state(self):
        p = params_with()
        bad = Strategy(tag="bad", rule=lambda t, q, u: math.nan if t > 0.5 else 0.0)
        with pytest.raises(SimulationError, match=r"'bad'.*step \d+ \(t=.*, q=.*, u=.*\)"):
            simulate_path(p, LinearExposure(0.0), bad, State(0, 0, 0, 10.0, 1.0), 100, seed=3)

    def test_single_path_is_ensemble_column(self, fig3, call100):
        strat = risk_neutral_cross_impact_strategy(fig3, call_payoff_curve(fig3, call100))
        init = State(0, 0, 0, 10.0, 1.0)
        b = simulate_path(fig3, call100, strat, init, 200, seed=21, stream=0)
        names = ("w", "z", "q", "u", "s", "x", "nu")
        ens = simulate_ensemble(fig3, call100, strat, init, 1, 200, seed=21, record=names)
        for name in names:
            assert np.array_equal(getattr(b, f"{name}_path"), ens[name][:, 0])

    def test_speed_clamp_counts_events(self):
        p = params_with()
        b = simulate_path(p, LinearExposure(0.0), constant_strategy(2e6), State(0, 0, 0, 10.0, 1.0), 50, seed=4)
        assert b.clamp_events == 50
        assert np.all(b.nu_path == DEFAULT_SPEED_CLAMP)

    def test_bundle_is_immutable(self):
        p = params_with()
        b = simulate_path(p, LinearExposure(0.0), constant_strategy(0.0), State(0, 0, 0, 10.0, 1.0), 10, seed=5)
        with pytest.raises(ValueError):
            b.q_path[0] = 1.0

    def test_rejects_bad_step_count(self):
        p = params_with()
        with pytest.raises(ValueError):
            simulate_path(p, LinearExposure(0.0), constant_strategy(0.0), State(0, 0, 0, 10.0, 1.0), 0, seed=6)


class TestInvariants:
    @given(seed=st.integers(0, 2**31 - 1), speed=st.floats(-2.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_cash_and_inventory_bookkeeping(self, seed, speed):
        p = params_with()
        strat = constant_strategy(speed)
        b = simulate_path(p, LinearExposure(0.0), strat, State(0, 0, 0.2, 10.0, 1.0), 64, seed=seed)
        x, q = b.x_path[0], b.q_path[0]
        for i in range(b.n_steps):
            x = x - (b.s_path[i] + p.k * b.nu_path[i]) * b.nu_path[i] * b.dt
            q = q + b.nu_path[i] * b.dt
        assert x == b.x_path[-1]
        assert q == b.q_path[-1]

    def test_round_trip_cross_impact_neutrality(self):
        # buying then selling the same quantity leaves U unmoved net of noise
        p = params_with(b=0.0, c=0.4, beta=0.1, gamma=0.0, mu=0.0)
        rule = Strategy(tag="round-trip", rule=lambda t, q, u: np.where(t < p.T / 2, 1.0, -1.0) + 0.0 * q)
        b = simulate_path(p, LinearExposure(0.0), rule, State(0, 0, 0, 10.0, 1.0), 256, seed=11)
        net_q = b.q_path[-1] - b.q_path[0]
        assert net_q == 0.0
        resid = b.u_path[-1] - b.u_path[0] - p.eta * b.z_path[-1] - p.beta * p.T - p.c * net_q
        assert abs(resid) < 1e-12

    def test_seed_determinism(self):
        p = params_with()
        strat = linear_optimal_strategy(p, 1.0)
        a = simulate_path(p, LinearExposure(1.0), strat, State(0, 0, 0, 10.0, 1.0), 200, seed=42)
        b = simulate_path(p, LinearExposure(1.0), strat, State(0, 0, 0, 10.0, 1.0), 200, seed=42)
        for name in ("w_path", "z_path", "s_path", "u_path", "q_path", "x_path", "nu_path"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        c = simulate_path(p, LinearExposure(1.0), strat, State(0, 0, 0, 10.0, 1.0), 200, seed=43)
        assert not np.array_equal(a.w_path, c.w_path)

    def test_antithetic_symmetry_exact(self):
        p = params_with(mu=0.0, beta=0.0, b=0.0, c=0.0, rho=0.3, gamma=0.0)
        init = State(0, 0, 0, 0.0, 0.0)
        a = simulate_path(p, LinearExposure(0.0), constant_strategy(0.0), init, 300, seed=47)
        m = simulate_path(p, LinearExposure(0.0), constant_strategy(0.0), init, 300, seed=47, antithetic=True)
        assert np.array_equal(a.s_path, -m.s_path)
        assert np.array_equal(a.u_path, -m.u_path)
        assert np.array_equal(a.w_path, -m.w_path)
        assert np.array_equal(a.z_path, -m.z_path)

    def test_correlation_structure(self):
        # realized corr of the increments approaches rho
        p = params_with(rho=0.7, gamma=0.0)
        b = simulate_path(p, LinearExposure(0.0), constant_strategy(0.0), State(0, 0, 0, 10.0, 1.0), 50_000, seed=13)
        dw = np.diff(b.w_path)
        dz = np.diff(b.z_path)
        corr = np.corrcoef(dw, dz)[0, 1]
        assert corr == pytest.approx(0.7, abs=0.02)


class TestWealthAndPayoff:
    def test_wealth_cash_only(self, fig1):
        b = simulate_path(fig1, LinearExposure(0.0), constant_strategy(0.0), State(0, 1.0, 0, 10.0, 1.0), 10, seed=1)
        assert terminal_wealth(b, fig1, LinearExposure(0.0)) == pytest.approx(1.0)

    def test_wealth_inventory_penalty(self):
        p = params_with(sigma=0.0, eta=0.0, mu=0.0, beta=0.0, b=0.0)
        b = simulate_path(p, LinearExposure(0.0), constant_strategy(0.0), State(0, 0.0, 2.0, 10.0, 1.0), 10, seed=1)
        assert terminal_wealth(b, p, LinearExposure(0.0)) == pytest.approx(2 * (10 - 0.05 * 2))

    def test_wealth_linear_exposure(self):
        p = params_with(sigma=0.0, eta=0.0, mu=0.0, beta=0.0)
        b = simulate_path(p, LinearExposure(3.0), constant_strategy(0.0), State(0, 0.0, 0.0, 10.0, 5.0), 10, seed=1)
        assert terminal_wealth(b, p, LinearExposure(3.0)) == pytest.approx(15.0)

    @pytest.mark.parametrize(
        "exposure,u,expected",
        [
            (LinearExposure(2.0), 3.0, 6.0),
            (BachelierCallExposure(100.0, 1.0), 1.0, 0.0),
            (BachelierCallExposure(100.0, 1.0), 1.5, 50.0),
        ],
    )
    def test_payoff_eval(self, exposure, u, expected):
        assert payoff_eval(exposure, u) == pytest.approx(expected)

    def test_payoff_eval_custom(self):
        expo = CustomSmoothExposure(payoff=lambda u: np.tanh(u))
        assert payoff_eval(expo, 0.5) == pytest.approx(math.tanh(0.5))

    def test_utility(self):
        assert utility_of(0.0, 2.0) == pytest.approx(-1.0)
        assert utility_of(1.0, 2.0) == pytest.approx(-math.exp(-2.0))

    def test_utility_overflow_raises(self):
        with pytest.raises(ValueError, match="overflowed"):
            utility_of(np.array([0.0, -800.0]), 1.0)


class TestStrategy:
    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(rule=lambda t, q, u: 0 * q, coeffs=lambda t: (1.0, 0.0, 0.0)), "needs exactly one of rule and coeffs"),
            (dict(), "needs exactly one of rule and coeffs"),
            (dict(rule=lambda t, q, u: 0 * q, delta=lambda t, u: u), "gives delta without coeffs"),
        ],
        ids=["both", "neither", "delta-without-coeffs"],
    )
    def test_needs_exactly_one_of_rule_and_coeffs(self, kw, match):
        with pytest.raises(ValueError, match=f"'x' {match}"):
            Strategy(tag="x", **kw)

    def test_rule_derived_from_coeffs(self):
        s = Strategy(tag="x", coeffs=lambda t: (1.0, 0.5, 2.0), delta=lambda t, u: 3.0 * u)
        q, u = np.array([0.1, -0.2]), np.array([1.0, 2.0])
        assert np.array_equal(s.rule(0.3, q, u), (0.5 * (3.0 * u) + 1.0) + 2.0 * q)


class TestMakeRng:
    """The RNG layout: SFC64 substreams keyed by SeedSequence spawn keys."""

    @pytest.mark.parametrize("seed, stream", [(1, 0), (20260810, 3), (23, 901)])
    def test_equals_sfc64_spawn_key_construction(self, seed, stream):
        ref = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(stream,))))
        got = make_rng(seed, stream)
        assert type(got.bit_generator) is np.random.SFC64
        assert np.array_equal(got.standard_normal((2, 50)), ref.standard_normal((2, 50)))
        assert RNG_LAYOUT.startswith("SFC64/")

    def test_streams_differ(self):
        a, b = make_rng(7, 0).standard_normal(64), make_rng(7, 1).standard_normal(64)
        assert not np.any(a == b)

    def test_raw_draws_pinned(self):
        # integers read the same on every CPU, unlike exp-based transforms
        raw = make_rng(20260810, 3).bit_generator.random_raw(4)
        assert raw.tolist() == [16936391909311546449, 14837062859642363682, 10553925281303599250,
                                2998654007962320234]


class TestZeroWeightShape:
    """A zero delta weight skips the delta call but keeps the broadcast shape of q and U."""

    U = np.linspace(0.5, 1.5, 7)

    def test_coefficients_at_horizon(self, fig7, call100):
        curve = call_payoff_curve(fig7, call100)
        for fn in (lambda1, Lambda1):
            out = fn(fig7, curve, fig7.T, self.U)
            assert out.shape == self.U.shape and np.all(out == 0.0)
        assert isinstance(lambda1(fig7, curve, fig7.T, 1.0), float)

    def test_strategy_rules(self, fig1):
        for strategy in (constant_strategy(0.4), linear_optimal_strategy(fig1, 1.0)):
            a, w, b = strategy.coeffs(0.5)
            assert w == 0.0
            out = strategy.rule(0.5, 0.0, self.U)
            assert out.shape == self.U.shape and np.all(out == b * 0.0 + a)
            assert strategy.rule(0.5, np.zeros((2, 1)), self.U).shape == (2, self.U.size)
            assert isinstance(strategy.rule(0.5, 0.0, 1.0), float)

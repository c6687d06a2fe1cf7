import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from crosshedge import (
    DenseOdeSolution,
    ExpansionScale,
    LinearExposure,
    ModelParams,
    OdeSystemSpec,
    State,
    Strategy,
    call_payoff_curve,
    constant_strategy,
    expansion_value,
    h2,
    hjb_residual_at,
    linear_optimal_strategy,
    mc_performance,
    mc_strategy_gap,
    rk4_backward,
    riccati_h_system,
    theta_sweep,
)
from crosshedge.expansion import _f1, _f2
from crosshedge.market import SimulationError
from crosshedge.oracles import Lambda2_ode_system, f1_ode_system, simulate_ensemble
from crosshedge.verify import (
    mc_se_scaling,
    rk4_convergence_order,
)


class TestRk4:
    def test_constant_rhs(self):
        spec = OdeSystemSpec(rhs=lambda t, y: 0.0 * y, terminal_value=np.array([2.0, -1.0]), step_count=50, t_end=1.0)
        sol = rk4_backward(spec)
        assert np.allclose(sol(0.3), [2.0, -1.0])

    def test_exponential(self):
        spec = OdeSystemSpec(rhs=lambda t, y: y, terminal_value=np.array([1.0]), step_count=10_000, t_end=1.0)
        sol = rk4_backward(spec)
        assert abs(sol(0.0)[0] - math.exp(-1.0)) < 1e-10

    def test_riccati_oracle_pairing(self, fig1):
        sol = rk4_backward(riccati_h_system(fig1, 1.0, 10_000))
        ts = np.linspace(0, fig1.T, 501)
        errs = [abs(float(h2(fig1, t)) - sol(t)[2]) for t in ts]
        assert max(errs) < 1e-8

    def test_dense_output_between_nodes(self):
        spec = OdeSystemSpec(rhs=lambda t, y: y, terminal_value=np.array([1.0]), step_count=100, t_end=1.0)
        sol = rk4_backward(spec)
        # off-grid point: cubic Hermite keeps O(h^4) accuracy
        assert abs(sol(0.5005)[0] - math.exp(0.5005 - 1.0)) < 1e-9

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_blowup_reported(self):
        spec = OdeSystemSpec(rhs=lambda t, y: -y * y, terminal_value=np.array([10.0]), step_count=2000, t_end=1.0)
        # x' = -x^2 from x(1) = 10 explodes near t = 0.9 when run backward;
        # the error names the first grid time with a non-finite state
        with pytest.raises(SimulationError, match=r"near t=0\.8985$"):
            rk4_backward(spec)

    def test_convergence_order(self):
        ok, measured, _ = rk4_convergence_order()
        assert ok, measured

    def test_riccati_batch_equals_single_solves(self, fig1, fig7):
        # members differ in T and frak_n; each sees the operations of its own solve
        cases = [(fig1, 1.0), (replace(fig1, T=0.7, gamma=0.3), -1.5), (fig7, 0.4),
                 (replace(fig7, mu=0.1, beta=0.05), 2.0)]
        batch = rk4_backward(riccati_h_system([p for p, _ in cases], [n for _, n in cases], 2_000))
        assert batch.t_grid.shape == (2_001, 4) and batch.values.shape == (2_001, 3, 4)
        for j, (params, frak_n) in enumerate(cases):
            one = rk4_backward(riccati_h_system(params, frak_n, 2_000))
            member = DenseOdeSolution(batch.t_grid[:, j], batch.values[..., j], batch.derivs[..., j])
            for name in ("t_grid", "values", "derivs"):
                assert np.array_equal(getattr(member, name), getattr(one, name)), name
            ts = np.linspace(0.0, params.T, 401)
            assert np.array_equal(member(ts), one(ts))

    def test_drift_gain_systems_pinned(self, fig7):
        # f1 and Lambda2 at the grids of test_expansion's RK4 checks, as first computed
        mu_params = ModelParams(mu=0.1, sigma=1.0, beta=0.0, eta=1.0, rho=0.5, b=1e-2, c=1e-3, k=1e-3, gamma=0.0,
                                alpha=0.05, T=1.0)
        f1_sol = rk4_backward(f1_ode_system(mu_params, 2_500))
        assert [float(f1_sol(t)[0]) for t in np.linspace(0.0, mu_params.T, 7)] == [
            0.05108695652173908, 0.042748917748917765, 0.03440860215053764, 0.026063829787234035,
            0.01770833333333334, 0.00931372549019621, 0.0,
        ]
        l2_sol = rk4_backward(Lambda2_ode_system(fig7, 2_500))
        assert l2_sol(np.linspace(0.0, fig7.T, 7))[:, 0].tolist() == [
            -0.17036862003779552, -0.14259009388877866, -0.11481096080469153, -0.0870303304662294,
            -0.05924479166656971, -0.03143021914613884, 0.0,
        ]

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_batch_blowup_names_member_time(self):
        # member 0 stays finite (x = 1/(t + 2)); member 1 explodes backward
        # from x(1.5) = 10, so the error names member 1's first non-finite time
        def spec(terminal, t_end):
            return OdeSystemSpec(rhs=lambda t, y: -y * y, terminal_value=terminal, step_count=2000, t_end=t_end)

        with pytest.raises(SimulationError) as single:
            rk4_backward(spec(np.array([10.0]), 1.5))
        with pytest.raises(SimulationError, match=f"^{re.escape(str(single.value))}$"):
            rk4_backward(spec(np.array([[0.25, 10.0]]), np.array([2.0, 1.5])))

    def test_dense_output_rejects_times_outside_grid(self):
        spec = OdeSystemSpec(rhs=lambda t, y: y, terminal_value=np.array([1.0]), step_count=100, t_end=1.0)
        sol = rk4_backward(spec)
        for t in (-2.0, 1.5, [0.5, 1.5]):
            with pytest.raises(ValueError, match=r"time (-2\.0|1\.5) outside the solution interval \[0\.0, 1\.0\]"):
                sol(t)
        # the endpoints, and rounding of 1e-12 relative to t_end, are inside
        assert sol(1.0)[0] == 1.0 and sol(1.0 + 1e-13)[0] == pytest.approx(1.0)
        assert sol(0.0)[0] == pytest.approx(math.exp(-1.0), abs=1e-10)
        assert sol(-1e-13)[0] == pytest.approx(math.exp(-1.0), abs=1e-10)


class TestMcPerformance:
    def test_deterministic_path(self):
        p = ModelParams(mu=0.0, sigma=0.0, beta=0.0, eta=0.0, rho=0.0, b=0.0, c=0.0, k=1e-2, gamma=2.0, alpha=0.05, T=1.0)
        est = mc_performance(p, LinearExposure(0.0), constant_strategy(0.0), State(0, 1.3, 0, 10.0, 1.0), 64, 10, seed=1)
        assert est.mean == pytest.approx(-math.exp(-2.0 * 1.3), rel=1e-14)
        assert est.std_error == 0.0
        assert est.kind == "utility"

    def test_gamma_zero_reports_wealth(self, fig3):
        est = mc_performance(fig3, LinearExposure(0.0), constant_strategy(0.0), State(0, 0.5, 0, 10.0, 1.0), 200, 20, seed=2)
        assert est.kind == "wealth"
        assert est.ce == est.mean

    def test_perturbed_strategy_is_worse(self, fig1):
        # first-order optimality: a constant shift eps costs ~ k*eps^2*T in
        # certainty equivalent; eps = 0.5 keeps the gap well above CRN noise
        # at this path count (eps = 0.1 is real but statistically underpowered)
        eps = 0.5
        strat = linear_optimal_strategy(fig1, 1.0)
        pert = Strategy(tag="perturbed", rule=lambda t, q, u: strat.rule(t, q, u) + eps)
        res = mc_strategy_gap(
            fig1, LinearExposure(1.0), strat, pert, State(0, 0, 0, 10.0, 5.0), 100_000, 1000, seed=5
        )
        assert res.gap > 3.0 * res.gap_se
        assert res.gap == pytest.approx(fig1.k * eps**2 * fig1.T, rel=0.5)

    def test_overflow_raises(self):
        p = ModelParams(mu=0.0, sigma=0.0, beta=0.0, eta=0.0, rho=0.0, b=0.0, c=0.0, k=1e-2, gamma=1.0, alpha=0.05, T=1.0)
        with pytest.raises(ValueError, match="smaller gamma"):
            mc_performance(p, LinearExposure(0.0), constant_strategy(0.0), State(0, -800.0, 0, 10.0, 1.0), 8, 4, seed=3)

    def test_determinism_across_thread_counts(self, fig1, monkeypatch):
        # four chunks of 1000 paths, run by one worker and then by two
        strat = linear_optimal_strategy(fig1, 1.0)
        pert = Strategy(tag="perturbed", rule=lambda t, q, u: strat.rule(t, q, u) + 0.1)
        init = State(0, 0, 0, 10.0, 5.0)
        results = []
        for threads in ("1", "2"):
            monkeypatch.setenv("HEDGE_THREADS", threads)
            perf = mc_performance(fig1, LinearExposure(1.0), strat, init, 4000, 50, seed=9, chunk_paths=1000)
            gap = mc_strategy_gap(fig1, LinearExposure(1.0), strat, pert, init, 4000, 50, seed=9, chunk_paths=1000)
            results.append((perf, gap))
        assert results[0] == results[1]

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_malformed_hedge_threads_rejected(self, fig1, monkeypatch, value):
        monkeypatch.setenv("HEDGE_THREADS", value)
        with pytest.raises(ValueError, match=f"HEDGE_THREADS.*'{value}'"):
            mc_performance(fig1, LinearExposure(1.0), constant_strategy(0.0), State(0, 0, 0, 10.0, 5.0), 8, 4, seed=1)

    def test_se_scaling(self):
        ok, measured, _ = mc_se_scaling(seed=31)
        assert ok, measured

    @pytest.mark.parametrize("seed", [8, 11])
    def test_se_scaling_other_seeds(self, seed):
        # the n-path run is the first chunk of the 2n-path run, so the
        # window [1.3, 1.5] holds well beyond the default seed
        ok, measured, _ = mc_se_scaling(seed=seed)
        assert ok, measured

    def test_single_pair_leaves_se_undefined(self, fig1):
        # one antithetic pair is one independent sample: no standard error
        strat = linear_optimal_strategy(fig1, 1.0)
        init = State(0, 0, 0, 10.0, 5.0)
        est = mc_performance(fig1, LinearExposure(1.0), strat, init, 2, 10, seed=1)
        assert est.n_samples == 1 and math.isnan(est.std_error) and math.isnan(est.ce_std_error)
        pert = Strategy(tag="perturbed", rule=lambda t, q, u: strat.rule(t, q, u) + 0.1)
        gap = mc_strategy_gap(fig1, LinearExposure(1.0), strat, pert, init, 2, 10, seed=1)
        assert math.isnan(gap.gap_se)

    def test_crn_self_gap_zero(self, fig1):
        strat = linear_optimal_strategy(fig1, 1.0)
        res = mc_strategy_gap(fig1, LinearExposure(1.0), strat, strat, State(0, 0, 0, 10.0, 5.0), 1000, 50, seed=4)
        assert res.gap == 0.0 and res.gap_se == 0.0


class TestHjbResidual:
    def test_exact_linear_solution(self, fig1):
        from crosshedge import h0 as h0_fn, h1 as h1_fn

        def h_exact(t, q, u):
            return h0_fn(fig1, 1.0, t) + float(h1_fn(fig1, 1.0, t)) * q + float(h2(fig1, t)) * q * q + 1.0 * u

        worst = max(
            abs(hjb_residual_at(fig1, h_exact, fig1.c, fig1.gamma, t, q, u))
            for t in (0.3, 1.5, 2.7)
            for q in (-1.0, 0.5)
            for u in (4.0, 6.0)
        )
        assert worst < 1e-6

    def test_zero_order_solution_with_zero_couplings(self, fig7, call100):
        # h0 = f0 + f1 q + f2 q^2 + g solves the HJB at c = gamma = 0
        curve = call_payoff_curve(fig7, call100)

        def h_base(t, q, u):
            return (
                float(_f1(fig7, t)) * q
                + float(_f2(fig7, t)) * q * q
                + float(curve.g(t, np.asarray(u)))
            )

        worst = max(
            abs(hjb_residual_at(fig7, h_base, 0.0, 0.0, t, q, u))
            for t in (0.2, 0.5, 0.8)
            for q in (-1.0, 1.0)
            for u in (0.6, 1.0, 1.5)
        )
        assert worst < 1e-6

    @pytest.mark.parametrize("drift", [{}, {"mu": 0.1, "beta": 0.05}])
    def test_arrays_equal_scalar_calls(self, fig7, call100, drift):
        params = replace(fig7, **drift)
        curve = call_payoff_curve(params, call100)
        sc = ExpansionScale.from_params(params, 0.2)
        h_fn = partial(expansion_value, params, curve, sc)
        q, u = np.meshgrid(np.linspace(-2.0, 2.0, 5), np.linspace(-0.5, 2.5, 4), indexing="ij")
        for t in (0.1 * params.T, 0.5 * params.T):
            got = hjb_residual_at(params, h_fn, sc.effective_c, sc.effective_gamma, t, q, u)
            loop = [
                hjb_residual_at(params, h_fn, sc.effective_c, sc.effective_gamma, t, float(qi), float(ui))
                for qi, ui in zip(q.ravel(), u.ravel())
            ]
            assert got.shape == q.shape and np.array_equal(got.ravel(), loop)

    def test_boundary_probe_rejected(self, fig7, call100):
        from crosshedge import ExpansionScale, pde_residual

        curve = call_payoff_curve(fig7, call100)
        with pytest.raises(ValueError, match="interior"):
            pde_residual(fig7, curve, ExpansionScale.from_params(fig7, 0.1), [(0.0, 0.0, 1.0)])


class TestThetaSweep:
    def test_linear_exposure_gap_negligible(self, fig7):
        rows = theta_sweep(fig7, LinearExposure(1.0), [0.1], 20_000, seed=4, n_steps=200)
        (row,) = rows
        # nu_prime is exact for linear payoffs; nu_hat differs only by its
        # own first-order truncation, far below the CE scale
        assert abs(row["gap"]) <= max(3.0 * row["gap_se"], 1e-6)

    def test_theta_zero_exact_tie(self, fig7):
        rows = theta_sweep(fig7, LinearExposure(1.0), [0.0], 2_000, seed=4, n_steps=100)
        assert rows[0]["gap"] == 0.0
        assert rows[0]["kind"] == "wealth"

    def test_rejects_negative(self, fig7):
        with pytest.raises(ValueError):
            theta_sweep(fig7, LinearExposure(1.0), [-0.1], 100, seed=1, n_steps=10)


class TestEnsemble:
    def test_matches_single_path_moments(self, fig3, call100):
        curve = call_payoff_curve(fig3, call100)
        from crosshedge import risk_neutral_cross_impact_strategy

        strat = risk_neutral_cross_impact_strategy(fig3, curve)
        ens = simulate_ensemble(fig3, call100, strat, State(0, 0, 0, 10.0, 1.0), 4000, 200, seed=6, record=("q",))
        assert ens["q"].shape == (201, 4000)
        assert ens["q"][0].std() == 0.0
        assert np.array_equal(ens["q"][-1], ens["q_T"])

    @pytest.mark.parametrize("record, bad", [(("Q", "q"), r"\['Q'\]"), ("qu", "'qu'")])
    def test_bad_record_rejected(self, fig1, record, bad):
        with pytest.raises(ValueError, match=bad):
            simulate_ensemble(fig1, LinearExposure(0.0), constant_strategy(0.0), State(0, 0, 0, 10.0, 1.0), 4, 3,
                              seed=1, record=record)

    def test_clamp_events_counted(self, fig1):
        from crosshedge.market import DEFAULT_SPEED_CLAMP

        # 24 steps of dt = 0.125 keep the clamped inventory exact
        ens = simulate_ensemble(fig1, LinearExposure(0.0), constant_strategy(2e6), State(0, 0, 0, 10.0, 1.0), 64, 24, seed=3)
        assert ens["clamp_events"] == 64 * 24
        assert np.all(ens["q_T"] == DEFAULT_SPEED_CLAMP * fig1.T)

    def test_clamp_events_reported_by_estimators(self, fig1):
        init = State(0, 0, 0, 10.0, 1.0)
        fast, still = constant_strategy(2e6), constant_strategy(0.0)
        est = mc_performance(fig1, LinearExposure(0.0), fast, init, 64, 24, seed=3, gamma=0.0, chunk_paths=16)
        assert est.clamp_events == 64 * 24
        gap = mc_strategy_gap(fig1, LinearExposure(0.0), fast, still, init, 64, 24, seed=3, gamma=0.0, chunk_paths=16)
        assert (gap.clamp_events_a, gap.clamp_events_b) == (64 * 24, 0)
        assert mc_performance(fig1, LinearExposure(0.0), still, init, 64, 24, seed=3).clamp_events == 0

    def test_non_finite_speed_names_step_and_state(self, fig1):
        bad = Strategy(tag="bad", rule=lambda t, q, u: np.where(u > 1.5, np.nan, 0.0))
        with pytest.raises(SimulationError, match=r"'bad'.*step \d+ \(t=.*, q=.*, u=.*, path \d+\)"):
            simulate_ensemble(fig1, LinearExposure(0.0), bad, State(0, 0, 0, 10.0, 1.0), 64, 50, seed=3)

    def test_degenerate_strategy_distribution(self, call100):
        p = ModelParams(mu=0.0, sigma=1.0, beta=0.0, eta=1.0, rho=0.5, b=1e-2, c=0.0, k=1e-3, gamma=0.0, alpha=0.05, T=1.0)
        curve = call_payoff_curve(p, call100)
        from crosshedge import risk_neutral_cross_impact_strategy

        strat = risk_neutral_cross_impact_strategy(p, curve)
        ens = simulate_ensemble(p, call100, strat, State(0, 0, 0, 10.0, 1.0), 2000, 100, seed=8)
        assert ens["q_T"].std() < 1e-10

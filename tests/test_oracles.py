import math
import os
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
    delta_substitution_strategy,
    expansion_nu_hat_strategy,
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
from crosshedge.config import PRESETS, _build_exposure
from crosshedge.expansion import _f1, _f2
from crosshedge.market import SimulationError, utility_of
from crosshedge.oracles import (
    Lambda2_ode_system,
    _mc_samples,
    _mean_and_se,
    _worker_count,
    f1_ode_system,
    simulate_ensemble,
)
from crosshedge.verify import (
    FIG7,
    lemma_reduction_equivalence,
    mc_se_scaling,
    rk4_convergence_order,
    strategy_gap_order,
    value_function_mc,
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

    @pytest.mark.parametrize("make", [f1_ode_system, Lambda2_ode_system])
    def test_one_equation_float_lane_equals_one_member_batch(self, fig7, make):
        # an unbatched one-equation system steps on Python floats; a one-member
        # batch of the same rhs steps on arrays, and both give the same bits
        params = replace(fig7, mu=0.1, beta=0.05)
        one = make(params, 2_500)
        batch = rk4_backward(replace(one, terminal_value=np.array([[0.0]]), t_end=np.array([params.T])))
        sol = rk4_backward(one)
        assert sol.values.shape == (2_501, 1) and batch.values.shape == (2_501, 1, 1)
        assert np.array_equal(sol.t_grid, batch.t_grid[:, 0])
        assert np.array_equal(sol.values, batch.values[..., 0])
        assert np.array_equal(sol.derivs, batch.derivs[..., 0])

    def test_one_equation_rhs_gets_float(self):
        seen = set()

        def rhs(t, y):
            seen.add(type(y))
            return -y

        sol = rk4_backward(OdeSystemSpec(rhs=rhs, terminal_value=np.array([1.0]), step_count=20, t_end=1.0))
        assert seen == {float} and sol.values.shape == (21, 1)

    @pytest.mark.parametrize("terminal, t_end", [
        (np.array([1.0]), 0.0), (np.array([1.0]), -1.0), (np.array([1.0]), math.nan), (np.array([1.0]), math.inf),
        (np.array([[1.0, 2.0]]), np.array([1.0, 0.0])),
    ], ids=["zero", "negative", "nan", "inf", "batch-member-zero"])
    def test_t_end_must_be_finite_and_positive(self, terminal, t_end):
        spec = OdeSystemSpec(rhs=lambda t, y: y, terminal_value=terminal, step_count=10, t_end=t_end)
        with pytest.raises(ValueError, match=r"^t_end must be finite and > 0"):
            rk4_backward(spec)

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

    def test_batch_solution_has_no_dense_output(self):
        spec = OdeSystemSpec(rhs=lambda t, y: y, terminal_value=np.array([[1.0, 2.0]]), step_count=10,
                             t_end=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match=re.escape("DenseOdeSolution(t_grid[:, j], values[..., j], derivs[..., j])")):
            rk4_backward(spec)(0.25)

    def test_dense_output_rejects_times_outside_grid(self):
        spec = OdeSystemSpec(rhs=lambda t, y: y, terminal_value=np.array([1.0]), step_count=100, t_end=1.0)
        sol = rk4_backward(spec)
        for t in (-2.0, 1.5, [0.5, 1.5], math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"time (-2\.0|1\.5|nan) outside the solution interval \[0\.0, 1\.0\]"):
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

    @pytest.mark.parametrize("gamma", [-1.0, math.nan, math.inf])
    def test_bad_gamma_raises(self, fig1, gamma):
        # unchecked, a negative gamma would take the wealth branch and a NaN one give a NaN CE
        strat = linear_optimal_strategy(fig1, 1.0)
        init = State(0, 0.0, 0, 10.0, 5.0)
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            mc_performance(fig1, LinearExposure(1.0), strat, init, 200, 10, seed=1, gamma=gamma)
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            mc_strategy_gap(fig1, LinearExposure(1.0), strat, strat, init, 200, 10, seed=1, gamma=gamma)

    def test_overflow_raises(self):
        p = ModelParams(mu=0.0, sigma=0.0, beta=0.0, eta=0.0, rho=0.0, b=0.0, c=0.0, k=1e-2, gamma=1.0, alpha=0.05, T=1.0)
        with pytest.raises(ValueError, match="smaller gamma"):
            mc_performance(p, LinearExposure(0.0), constant_strategy(0.0), State(0, -800.0, 0, 10.0, 1.0), 8, 4, seed=3)

    def test_underflow_raises(self, fig1_left):
        # initial cash 760 drives every utility, and so their mean, to -0.0
        strat = linear_optimal_strategy(fig1_left, 1.0)
        init = State(0, 760.0, 0, 10.0, 1.0)
        with pytest.raises(ValueError, match="underflowed to zero; use a smaller gamma"):
            mc_performance(fig1_left, LinearExposure(1.0), strat, init, 2000, 50, seed=1)

    def test_gap_underflow_raises(self, fig1_left):
        strat = linear_optimal_strategy(fig1_left, 1.0)
        init = State(0, 760.0, 0, 10.0, 1.0)
        with pytest.raises(ValueError, match="underflowed to zero; use a smaller gamma"):
            mc_strategy_gap(fig1_left, LinearExposure(1.0), strat, constant_strategy(0.0), init, 2000, 50, seed=1)

    def test_determinism_across_thread_counts(self, fig1, monkeypatch):
        # four chunks of 1000 paths, and three of 1000 with a short last one
        # of 500, run by one worker and then by two
        strat = linear_optimal_strategy(fig1, 1.0)
        pert = Strategy(tag="perturbed", rule=lambda t, q, u: strat.rule(t, q, u) + 0.1)
        init = State(0, 0, 0, 10.0, 5.0)
        results = []
        for threads in ("1", "2"):
            monkeypatch.setenv("HEDGE_THREADS", threads)
            perf = mc_performance(fig1, LinearExposure(1.0), strat, init, 4000, 50, seed=9, chunk_paths=1000)
            gap = mc_strategy_gap(fig1, LinearExposure(1.0), strat, pert, init, 4000, 50, seed=9, chunk_paths=1000)
            uneven = mc_performance(fig1, LinearExposure(1.0), strat, init, 3500, 50, seed=9, chunk_paths=1000)
            results.append((perf, gap, uneven))
        assert results[0] == results[1]

    def test_pairing_survives_uneven_chunks(self):
        # 151 pairs in chunks of 50 pairs and one; with no drift and no
        # trading from S0 = U0 = 0, each mirror's wealth is its base's negative
        p = ModelParams(mu=0.0, sigma=1.0, beta=0.0, eta=1.0, rho=0.3, b=0.0, c=0.0, k=1e-2, gamma=1.0, alpha=0.05, T=1.0)
        (wealth,), _ = _mc_samples(p, LinearExposure(2.0), [constant_strategy(0.0)], State(0, 0, 0, 0.0, 0.0),
                                   301, 20, 5, True, 100, p.gamma)
        assert wealth.shape == (2, 151)
        assert np.array_equal(wealth[1], -wealth[0]) and np.all(wealth[0] != 0.0)

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_malformed_hedge_threads_rejected(self, fig1, monkeypatch, value):
        monkeypatch.setenv("HEDGE_THREADS", value)
        with pytest.raises(ValueError, match=f"HEDGE_THREADS.*'{value}'"):
            mc_performance(fig1, LinearExposure(1.0), constant_strategy(0.0), State(0, 0, 0, 10.0, 5.0), 8, 4, seed=1)

    def test_unset_threads_follow_affinity_mask(self, monkeypatch):
        # a process pinned to fewer cores than the machine has runs one
        # worker per core it may use, not per machine core
        monkeypatch.delenv("HEDGE_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert _worker_count(5) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert (_worker_count(5), _worker_count(2)) == (3, 2)
        monkeypatch.setenv("HEDGE_THREADS", "4")
        assert _worker_count(5) == 4

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
    def test_unset_threads_without_affinity_use_cpu_count(self, monkeypatch, cpus, workers):
        monkeypatch.delenv("HEDGE_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert _worker_count(5) == workers

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


class TestConditionalEstimator:
    """Each path contributes W0 - gamma/2*sigma^2*(1-rho^2)*dt*sum q^2, its
    certainty equivalent given the factor path."""

    @staticmethod
    def _hand_ce(p, frak_n, speed, init, n_steps):
        """W_det - gamma/2*sigma^2*dt*sum q^2: the exact Euler CE of a constant
        speed when the wealth's only noise is the price's (eta = 0 or
        frak_n = 0), written out step by step."""
        dt = p.T / n_steps
        x, q, s, u, q_sq = init.x, init.q, init.s, init.u, 0.0
        for _ in range(n_steps):
            x -= (s + p.k * speed) * speed * dt
            q += speed * dt
            s += (p.mu + p.b * speed) * dt
            u += (p.beta + p.c * speed) * dt
            q_sq += q * q
        return x + q * (s - p.alpha * q) + frak_n * u - p.gamma / 2 * p.sigma**2 * dt * q_sq

    def test_zero_variance_case_matches_hand_loop(self):
        # rho = eta = 0 and a constant speed: the factor path, the inventory
        # and W0 are deterministic, and all the price noise integrates out
        p = ModelParams(mu=0.05, sigma=0.8, beta=0.1, eta=0.0, rho=0.0, b=1e-2, c=1e-3, k=1e-2, gamma=2.0,
                        alpha=0.05, T=1.0)
        init = State(0.0, 0.2, 0.4, 10.0, 1.0)
        est = mc_performance(p, LinearExposure(1.5), constant_strategy(0.3), init, 128, 40, seed=7)
        assert est.std_error == 0.0
        assert est.ce == pytest.approx(self._hand_ce(p, 1.5, 0.3, init, 40), rel=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.7])
    def test_correlated_price_noise_splits_exactly(self, eta):
        # rho = 0.6 and no factor exposure: W0 carries the price noise
        # sigma*rho*dZ, the variance term the sigma^2*(1-rho^2) rest, and the
        # estimate matches the exact Gaussian CE of the whole price noise
        p = ModelParams(mu=0.05, sigma=0.8, beta=0.1, eta=eta, rho=0.6, b=1e-2, c=1e-3, k=1e-2, gamma=2.0,
                        alpha=0.05, T=1.0)
        init = State(0.0, 0.2, 0.4, 10.0, 1.0)
        est = mc_performance(p, LinearExposure(0.0), constant_strategy(0.3), init, 4000, 40, seed=7)
        assert abs(est.ce - self._hand_ce(p, 0.0, 0.3, init, 40)) <= 4.0 * est.ce_std_error

    def test_silent_factor_matches_a_nearly_silent_one(self, fig1):
        # with eta = 0 the price shock sigma*rho*dZ is built from the normal
        # rows, with eta > 0 from the factor shock scaled by sigma*rho/eta;
        # the two agree as eta -> 0
        init = State(0, 0, 0.4, 10.0, 1.0)
        ests = [
            mc_performance(replace(fig1, eta=eta, rho=0.6), LinearExposure(1.0), constant_strategy(0.3), init,
                           2000, 50, seed=5)
            for eta in (0.0, 1e-9)
        ]
        assert ests[0].std_error > 0.0
        assert ests[0].ce == pytest.approx(ests[1].ce, rel=1e-7)
        assert ests[0].std_error == pytest.approx(ests[1].std_error, rel=1e-6)

    def test_same_normals_as_realized_wealth_with_less_noise(self, fig7, call100):
        # one chunk keys the estimator to substream (seed, 0), the stream of
        # simulate_ensemble, so the realized and conditional gaps share every
        # normal and differ only by the price noise the factor never sees
        curve = call_payoff_curve(fig7, call100)
        sc = ExpansionScale.from_params(fig7, 0.2)
        a, b = expansion_nu_hat_strategy(fig7, curve, sc), delta_substitution_strategy(fig7, curve, sc)
        init = State(0.0, 0.0, 0.0, 10.0, call100.strike)
        g, n_paths, n_steps, seed = sc.effective_gamma, 4000, 100, 3

        def gap_and_se(util_a, util_b):
            mean_d, se_d, _ = _mean_and_se(util_a - util_b)
            mean_b = float(np.mean(util_b))
            return -math.log1p(mean_d / mean_b) / g, se_d / (g * abs(mean_b))

        realized = [
            utility_of(simulate_ensemble(fig7, call100, s, init, n_paths, n_steps, seed, antithetic=True)["wealth"], g)
            .reshape(2, -1)
            for s in (a, b)
        ]
        samples, _ = _mc_samples(fig7, call100, [a, b], init, n_paths, n_steps, seed, True, n_paths, g)
        cond = [utility_of(x, g) for x in samples]
        res = mc_strategy_gap(fig7, call100, a, b, init, n_paths, n_steps, seed, gamma=g, chunk_paths=n_paths)
        assert (res.gap, res.gap_se) == gap_and_se(*cond)
        gap_r, se_r = gap_and_se(*realized)
        se_paired = _mean_and_se((realized[0] - realized[1]) - (cond[0] - cond[1]))[1] / (g * abs(np.mean(realized[1])))
        assert abs(res.gap - gap_r) <= 3.0 * se_paired
        assert res.gap_se <= 0.7 * se_r


class TestStrategyGapOrder:
    def test_measured_outcome_carries_ratio_and_upper_bound(self, monkeypatch):
        # two resolved gaps with ratio 3.5 < 4: the 3-sigma upper ratio
        # (1.05e-5 + 3e-6) / (3e-6 - 6e-7) = 5.625 decides the outcome
        import crosshedge.verify as verify_mod

        rows = [{"theta": th, "gap": gap, "gap_se": se, "noise_bounded": False,
                 "clamp_events_nu_hat": 0, "clamp_events_nu_prime": 0}
                for th, gap, se in ((0.2, -1.05e-5, 1e-6), (0.1, -3e-6, 2e-7))]
        monkeypatch.setattr(verify_mod, "theta_sweep", lambda *args, **kwargs: rows)
        ok, measured, detail = strategy_gap_order()
        assert ok and measured["outcome"] == "measured"
        assert measured["ratio"] == pytest.approx(3.5, rel=1e-12)
        assert measured["ratio_upper"] == pytest.approx(5.625, rel=1e-12)
        assert "3-sigma upper 5.62" in detail

    def test_gap_inside_three_se_gets_no_pass(self, monkeypatch):
        # gap(0.2) = 2e-6 +- 1e-6 is inside 3 SE, gap(0.1) = -3e-6 +- 2e-7 is
        # resolved: the ratio rule judges, and (2e-6 + 3e-6) / (3e-6 - 6e-7) = 2.08 < 4
        import crosshedge.verify as verify_mod

        rows = [{"theta": th, "gap": gap, "gap_se": se, "noise_bounded": noise_bounded,
                 "clamp_events_nu_hat": 0, "clamp_events_nu_prime": 0}
                for th, gap, se, noise_bounded in ((0.2, 2e-6, 1e-6, True), (0.1, -3e-6, 2e-7, False))]
        monkeypatch.setattr(verify_mod, "theta_sweep", lambda *args, **kwargs: rows)
        ok, measured, _ = strategy_gap_order()
        assert not ok and measured["outcome"] == "measured"
        assert measured["ratio_upper"] == pytest.approx(5e-6 / 2.4e-6, rel=1e-12)


class TestLemmaReductionEquivalence:
    def test_both_markets_agree(self):
        ok, measured, detail = lemma_reduction_equivalence(seed=5, n_points=3)
        assert ok and measured["n"] == 3
        assert max(measured["max_error"], measured["drift_max_error"]) < 1e-9
        assert "fig7 mu=0.1 beta=0.05" in detail

    def test_shift_of_the_affine_in_s_residual_fails(self, monkeypatch):
        # eps*(s - (t+T)/2) integrates to zero over [t, T], so it moves only the
        # lemma's f = s residual, which Lambda_1's weight 2k + m(T-s) pins
        import crosshedge.oracles as oracles_mod

        exact = oracles_mod.expected_delta
        monkeypatch.setattr(
            oracles_mod,
            "expected_delta",
            lambda law, payoff, t, s, u: exact(law, payoff, t, s, u) + 1e-4 * (s - 0.5 * (t + FIG7.T)),
        )
        ok, measured, _ = lemma_reduction_equivalence(seed=5, n_points=3)
        assert not ok
        assert measured["max_error"] > 1e-6


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

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_rows_carry_zero_clamp_counts_on_presets(self, preset):
        doc = PRESETS[preset]
        model, exposure = ModelParams(**doc["model"]), _build_exposure(doc["exposure"])
        initial = State(t=0.0, **doc["initial"])
        rows = theta_sweep(model, exposure, [0.2, 0.0], 400, seed=1, n_steps=50, initial=initial)
        for row in rows:
            assert (row["clamp_events_nu_hat"], row["clamp_events_nu_prime"]) == (0, 0)

    def test_verify_checks_report_zero_clamp_counts(self):
        _, measured, _ = value_function_mc(seed=11, n_paths=2000, n_steps=100)
        assert measured["clamp_events"] == 0
        _, measured, _ = strategy_gap_order(seed=23, n_paths=2000, n_steps=50)
        clamps = {k: v for k, v in measured.items() if k.startswith("clamp_events_")}
        assert sorted(clamps) == [f"clamp_events_{tag}_{theta}" for tag in ("nu_hat", "nu_prime")
                                  for theta in (0.1, 0.2)]
        assert set(clamps.values()) == {0}


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

"""The Euler engine's tabulated path for affine strategies against the
per-step rule path: every shipped strategy must give the same bits both ways."""

import math

import numpy as np
import pytest

from crosshedge import (
    ExpansionScale,
    LinearExposure,
    State,
    Strategy,
    call_payoff_curve,
    constant_strategy,
    delta_substitution_strategy,
    expansion_nu_hat_strategy,
    linear_optimal_strategy,
    mc_performance,
    mc_strategy_gap,
    risk_neutral_cross_impact_strategy,
    simulate_path,
)
from crosshedge.market import DEFAULT_SPEED_CLAMP, SimulationError, _step_times
from crosshedge.oracles import simulate_ensemble

NAMES = ("w", "z", "s", "u", "q", "x", "nu")
INIT = State(0.0, 0.0, 0.3, 10.0, 1.0)
N_PATHS = 301  # odd, so antithetic runs round up to 302
N_STEPS = 40
CHUNK = 100  # several chunks per call


@pytest.fixture(scope="module")
def shipped(fig7, call100):
    curve = call_payoff_curve(fig7, call100)
    scale = ExpansionScale.from_params(fig7, 0.2)
    return {
        "nu_hat": expansion_nu_hat_strategy(fig7, curve, scale),
        "nu_prime": delta_substitution_strategy(fig7, curve, scale),
        "risk-neutral": risk_neutral_cross_impact_strategy(fig7, curve),
        "linear-optimal": linear_optimal_strategy(fig7, 50.0),
        "constant": constant_strategy(0.7),
    }


def opaque(strategy: Strategy) -> Strategy:
    return Strategy(tag=strategy.tag, rule=strategy.rule)


def same_bits(a, b) -> bool:
    return np.asarray(a).dtype == np.asarray(b).dtype and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("antithetic", [True, False])
@pytest.mark.parametrize("name", ["nu_hat", "nu_prime", "risk-neutral", "linear-optimal", "constant"])
class TestTabulatedEqualsRule:
    def test_mc_outputs(self, fig7, call100, shipped, monkeypatch, name, antithetic, threads):
        monkeypatch.setenv("HEDGE_THREADS", threads)
        s, ref = shipped[name], shipped["nu_prime"]
        assert s.coeffs is not None
        kw = dict(antithetic=antithetic, chunk_paths=CHUNK)
        perf = [mc_performance(fig7, call100, x, INIT, N_PATHS, N_STEPS, 5, **kw) for x in (s, opaque(s))]
        gap = [mc_strategy_gap(fig7, call100, x, y, INIT, N_PATHS, N_STEPS, 5, **kw)
               for x, y in ((s, ref), (opaque(s), opaque(ref)))]
        # repr prints every float exactly
        assert repr(perf[0]) == repr(perf[1])
        assert repr(gap[0]) == repr(gap[1])

    def test_recorded_ensemble(self, fig7, call100, shipped, monkeypatch, name, antithetic, threads):
        monkeypatch.setenv("HEDGE_THREADS", threads)
        s = shipped[name]
        tab, rule = (
            simulate_ensemble(fig7, call100, x, INIT, N_PATHS, N_STEPS, 6, record=NAMES, antithetic=antithetic)
            for x in (s, opaque(s))
        )
        assert tab.keys() == rule.keys()
        for key in tab:
            assert same_bits(tab[key], rule[key]), key


@pytest.mark.parametrize("name", ["nu_hat", "nu_prime", "risk-neutral", "linear-optimal", "constant"])
def test_single_path_is_column_of_rule_ensemble(fig7, call100, shipped, name):
    s = shipped[name]
    path = simulate_path(fig7, call100, s, INIT, N_STEPS, seed=21)
    ens = simulate_ensemble(fig7, call100, opaque(s), INIT, 1, N_STEPS, 21, record=NAMES)
    for key in NAMES:
        assert same_bits(getattr(path, f"{key}_path"), ens[key][:, 0]), key


class TestTabulationCount:
    @staticmethod
    def counting(strategy: Strategy, calls: list) -> Strategy:
        def coeffs(t):
            calls.append(t)
            return strategy.coeffs(t)

        return Strategy(tag=strategy.tag, coeffs=coeffs, delta=strategy.delta)

    @pytest.mark.parametrize("chunk", [N_PATHS, 150, 40])
    def test_once_per_step_per_call(self, fig7, call100, shipped, chunk):
        calls_a, calls_b = [], []
        a = self.counting(shipped["nu_hat"], calls_a)
        b = self.counting(shipped["nu_prime"], calls_b)
        mc_performance(fig7, call100, a, INIT, N_PATHS, N_STEPS, 5, chunk_paths=chunk)
        assert len(calls_a) == N_STEPS
        calls_a.clear()
        mc_strategy_gap(fig7, call100, a, b, INIT, N_PATHS, N_STEPS, 5, chunk_paths=chunk)
        assert len(calls_a) == len(calls_b) == N_STEPS
        # on the engine's left endpoints, accumulated t += dt
        dt = (fig7.T - INIT.t) / N_STEPS
        expected = [INIT.t]
        for _ in range(N_STEPS - 1):
            expected.append(expected[-1] + dt)
        assert calls_a == expected

    def test_recorded_times_are_the_step_times(self, fig1):
        # at 3,000 steps initial.t + i*dt differs from the accumulated step
        # time at 2,988 steps, by up to 2.2e-13; the record holds the latter
        init = State(0.0, 0.0, 0.0, 10.0, 5.0)
        strat = linear_optimal_strategy(fig1, 1.0)
        times = simulate_ensemble(fig1, LinearExposure(1.0), strat, init, 2, 3000, 1)["times"]
        assert times.tolist() == [*_step_times(fig1, init, 3000), fig1.T]
        path = simulate_path(fig1, LinearExposure(1.0), strat, init, 3000, 1)
        assert np.array_equal(path.times, times)

    def test_delta_weight_without_delta_rejected(self, fig7):
        bad = Strategy(tag="no-delta", coeffs=lambda t: (0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="no-delta"):
            simulate_ensemble(fig7, LinearExposure(1.0), bad, INIT, 4, 3, 1)


def _front_end(name, fig7, call100, strategy, initial, n_paths, n_steps):
    if name == "simulate_ensemble":
        return simulate_ensemble(fig7, call100, strategy, initial, n_paths, n_steps, 3, antithetic=True)
    if name == "mc_performance":
        return mc_performance(fig7, call100, strategy, initial, n_paths, n_steps, 3)
    return mc_strategy_gap(fig7, call100, strategy, strategy, initial, n_paths, n_steps, 3)


@pytest.mark.parametrize("front_end", ["simulate_ensemble", "mc_performance", "mc_strategy_gap"])
class TestEngineInputs:
    """Every Monte Carlo front end goes through one validated engine entry."""

    @pytest.mark.parametrize(
        "n_paths, n_steps, t0, message",
        [
            (4, 0, 0.0, "n_steps must be >= 1, got 0"),
            (4, 3, 1.0, "initial.t must precede the horizon T=1.0, got 1.0"),
            (4, 3, 1.5, "initial.t must precede the horizon T=1.0, got 1.5"),
            (0, 3, 0.0, "n_paths must be >= 1, got 0"),
            (-2, 3, 0.0, "n_paths must be >= 1, got -2"),
        ],
    )
    def test_bad_inputs_named(self, fig7, call100, shipped, front_end, n_paths, n_steps, t0, message):
        initial = State(t0, 0.0, 0.3, 10.0, 1.0)
        with pytest.raises(ValueError, match=message):
            _front_end(front_end, fig7, call100, shipped["nu_hat"], initial, n_paths, n_steps)

    @pytest.mark.parametrize("n_paths", [1, 5])
    def test_odd_antithetic_count_rounds_up(self, fig7, call100, shipped, front_end, n_paths):
        out = _front_end(front_end, fig7, call100, shipped["nu_hat"], INIT, n_paths, 3)
        if front_end == "simulate_ensemble":
            assert out["wealth"].shape == (n_paths + 1,)
        elif front_end == "mc_performance":
            # each mirrored pair is one independent sample
            assert out.n_samples == (n_paths + 1) // 2
        else:
            assert out.gap == 0.0


@pytest.mark.parametrize("chunk_paths", [0, -5])
@pytest.mark.parametrize("front_end", ["mc_performance", "mc_strategy_gap"])
def test_non_positive_chunk_rejected(fig7, call100, shipped, front_end, chunk_paths):
    s = shipped["nu_hat"]
    with pytest.raises(ValueError, match=f"chunk_paths must be >= 1, got {chunk_paths}"):
        if front_end == "mc_performance":
            mc_performance(fig7, call100, s, INIT, 8, 3, 1, chunk_paths=chunk_paths)
        else:
            mc_strategy_gap(fig7, call100, s, s, INIT, 8, 3, 1, chunk_paths=chunk_paths)


@pytest.mark.parametrize("antithetic, simulated", [(True, 6), (False, 5)])
def test_estimators_report_simulated_path_count(fig7, call100, shipped, antithetic, simulated):
    # an odd antithetic request rounds up to whole pairs, and n_paths says so
    perf = mc_performance(fig7, call100, shipped["nu_hat"], INIT, 5, 3, 3, antithetic=antithetic)
    gap = mc_strategy_gap(fig7, call100, shipped["nu_hat"], shipped["nu_prime"], INIT, 5, 3, 3,
                          antithetic=antithetic)
    assert perf.n_paths == gap.n_paths == simulated
    assert perf.n_samples == (simulated // 2 if antithetic else simulated)


class TestDeltaFreeInventoryOncePerStep:
    """A strategy with w == 0 on every step holds one inventory for all paths;
    every output must still equal its opaque twin's per-path run."""

    @staticmethod
    def bursting(params) -> Strategy:
        # a beyond the clamp on the first quarter of the horizon only
        def coeffs(t):
            return (2.0 * DEFAULT_SPEED_CLAMP if t < params.T / 4 else 0.3, 0.0, -0.2)

        return Strategy(tag="burst", coeffs=coeffs)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("antithetic", [True, False])
    def test_clamped_affine_matches_opaque_twin(self, fig7, call100, shipped, monkeypatch, threads, antithetic):
        monkeypatch.setenv("HEDGE_THREADS", threads)
        s = self.bursting(fig7)
        tab, rule = (
            simulate_ensemble(fig7, call100, x, INIT, N_PATHS, N_STEPS, 6, record=NAMES, antithetic=antithetic)
            for x in (s, opaque(s))
        )
        assert 0 < tab["clamp_events"] < tab["nu"].size
        assert tab["clamp_events"] == rule["clamp_events"]
        for key in ("q", "nu", "x", "q_T", "wealth"):
            assert same_bits(tab[key], rule[key]), key
        kw = dict(antithetic=antithetic, chunk_paths=CHUNK, gamma=0.0)
        perf = [mc_performance(fig7, call100, x, INIT, N_PATHS, N_STEPS, 5, **kw) for x in (s, opaque(s))]
        ref = shipped["nu_prime"]
        gap = [mc_strategy_gap(fig7, call100, x, y, INIT, N_PATHS, N_STEPS, 5, **kw)
               for x, y in ((s, ref), (opaque(s), opaque(ref)))]
        assert perf[0].clamp_events > 0
        assert repr(perf[0]) == repr(perf[1])
        assert repr(gap[0]) == repr(gap[1])

    @pytest.mark.parametrize("front_end", ["simulate_ensemble", "mc_performance"])
    def test_nan_coefficient_message_matches_opaque_twin(self, fig7, call100, front_end):
        bad_t = _step_times(fig7, INIT, N_STEPS)[7]
        s = Strategy(tag="nan-step", coeffs=lambda t: (math.nan if t == bad_t else 0.1, 0.0, 0.5))
        messages = []
        for x in (s, opaque(s)):
            with pytest.raises(SimulationError, match=r"'nan-step'.*step 7 .*path 0\)") as err:
                if front_end == "simulate_ensemble":
                    simulate_ensemble(fig7, call100, x, INIT, N_PATHS, N_STEPS, 6)
                else:
                    mc_performance(fig7, call100, x, INIT, N_PATHS, N_STEPS, 5, chunk_paths=CHUNK)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("name", ["linear-optimal", "constant"])
    def test_series_keep_path_shapes(self, fig7, call100, shipped, name, antithetic):
        ens = simulate_ensemble(fig7, call100, shipped[name], INIT, N_PATHS, N_STEPS, 6, record=("q", "nu"),
                                antithetic=antithetic)
        n = N_PATHS + 1 if antithetic else N_PATHS
        assert ens["q"].shape == (N_STEPS + 1, n) and ens["nu"].shape == (N_STEPS, n)
        for key in ("q", "nu"):
            assert np.all(ens[key] == ens[key][:, :1]), key
        q_t = ens["q_T"]
        assert q_t.shape == (n,) and q_t.dtype == np.float64 and q_t.flags.writeable
        assert np.all(q_t == ens["q"][-1])

"""Independent numerical ground-truth generators.

Nothing here reuses the closed forms it is meant to check: the Riccati
system is integrated with a hand-rolled RK4, Feynman-Kac expectations are
evaluated by nested quadrature over the uncontrolled factor, and strategy
quality is measured by common-random-number Monte Carlo of the
exponential-utility performance criterion.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .bachelier import AuxiliaryProcessLaw, PayoffCurve, expected_delta, payoff_curve_for
from .expansion import (
    ExpansionScale,
    Lambda2,
    _f1,
    _f2,
    delta_substitution_strategy,
    expansion_nu_hat_strategy,
    expansion_value,
)
from .linear import _gauss_legendre, h1, h2, optimal_speed_linear
from .market import (
    Exposure,
    ModelParams,
    SimulationError,
    State,
    Strategy,
    _engine_inputs,
    _euler_ensemble,
    make_rng,  # not called here; the benchmark harness tests read oracles.make_rng
    utility_of,
)

__all__ = [
    "OdeSystemSpec",
    "DenseOdeSolution",
    "rk4_backward",
    "riccati_h_system",
    "f1_ode_system",
    "Lambda2_ode_system",
    "McEstimate",
    "mc_performance",
    "StrategyGap",
    "mc_strategy_gap",
    "simulate_ensemble",
    "ResidualReport",
    "hjb_residual_at",
    "pde_residual",
    "default_probe_grid",
    "theta_sweep",
    "nested_quadrature",
    "speed_argmax_on_grid",
]

# Paths per RNG substream (one engine call) of the Monte Carlo estimators.
DEFAULT_CHUNK_PATHS = 20_000
# Speed interval searched by speed_argmax_on_grid, and its grid step.
_SPEED_GRID_LO, _SPEED_GRID_HI = -10.0, 10.0
_SPEED_GRID_STEP = 1e-4
# Outer Gauss-Legendre time nodes of the nested-quadrature oracles.
_NESTED_TIME_NODES = 48


# ---------------------------------------------------------------------------
# Backward RK4 with dense output
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OdeSystemSpec:
    """Terminal-value ODE system y' = rhs(t, y), y(t_end) = terminal_value,
    solved on [0, t_end]; a (dim, *batch) state has a t_end per member.  A
    one-equation system (terminal value of shape (1,), scalar t_end) is
    stepped on Python floats: its rhs receives a float y and returns a float."""

    rhs: Callable[[float, np.ndarray | float], np.ndarray | float]
    terminal_value: np.ndarray
    step_count: int
    t_end: float | np.ndarray


class DenseOdeSolution:
    """Grid solution with cubic-Hermite dense output (O(h^4) between nodes); a
    time outside the grid, beyond rounding of 1e-12 relative to its end, raises."""

    def __init__(self, t_grid: np.ndarray, values: np.ndarray, derivs: np.ndarray):
        self.t_grid = t_grid
        self.values = values
        self.derivs = derivs

    def __call__(self, t) -> np.ndarray:
        if self.t_grid.ndim != 1:
            raise ValueError(
                f"a batch solution (t_grid of shape {self.t_grid.shape}) has no dense output; "
                "call DenseOdeSolution(t_grid[:, j], values[..., j], derivs[..., j]) for member j"
            )
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tq = np.atleast_1d(t)
        lo, hi = self.t_grid[0], self.t_grid[-1]
        outside = ~((tq >= lo - 1e-12 * abs(hi)) & (tq <= hi + 1e-12 * abs(hi)))
        if outside.any():
            raise ValueError(f"time {tq[outside][0]} outside the solution interval [{lo}, {hi}]")
        idx = np.clip(np.searchsorted(self.t_grid, tq, side="right") - 1, 0, len(self.t_grid) - 2)
        t0 = self.t_grid[idx]
        h = self.t_grid[idx + 1] - t0
        s = ((tq - t0) / h)[:, None]
        y0, y1 = self.values[idx], self.values[idx + 1]
        f0, f1 = self.derivs[idx], self.derivs[idx + 1]
        h = h[:, None]
        out = (
            (2 * s**3 - 3 * s**2 + 1) * y0
            + (s**3 - 2 * s**2 + s) * h * f0
            + (-2 * s**3 + 3 * s**2) * y1
            + (s**3 - s**2) * h * f1
        )
        return out[0] if scalar else out


def rk4_backward(spec: OdeSystemSpec) -> DenseOdeSolution:
    """Classical RK4 from t_end back to 0 on a uniform grid.

    A batch state (dim, *batch) steps each member on its own grid: t_grid is
    (n + 1, *batch), values/derivs (n + 1, dim, *batch), and a member's dense
    output is the DenseOdeSolution of its slices.  A one-equation system
    steps its state on Python floats (rhs gets and returns a float) and stores
    it as (n + 1, 1), like any other.  Finiteness is checked once, after the
    sweep; the error names the first non-finite grid time.
    """
    n = spec.step_count
    if n < 1:
        raise ValueError("step_count must be >= 1")
    t_end = spec.t_end
    if not np.all(np.isfinite(t_end) & (t_end > 0)):
        raise ValueError(f"t_end must be finite and > 0 for every member, got {t_end}")
    h = -t_end / n
    half, sixth = h / 2, h / 6
    ts = t_end + np.multiply.outer(np.arange(n + 1), h)
    tl = ts.tolist() if ts.ndim == 1 else ts  # one system steps on Python floats
    rhs = spec.rhs
    y = np.array(spec.terminal_value, dtype=float)
    ys = np.empty((n + 1, *y.shape))
    fs = np.empty_like(ys)
    if y.shape == (1,) and ts.ndim == 1:
        y = float(y[0])
    ys[0] = y
    f = fs[0] = rhs(tl[0], y)
    for i in range(n):
        t = tl[i]
        k1 = f
        k2 = rhs(t + half, y + half * k1)
        k3 = rhs(t + half, y + half * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        ys[i + 1] = y
        f = fs[i + 1] = rhs(tl[i + 1], y)
    bad = np.argwhere(~np.isfinite(ys).all(axis=1))
    if bad.size:
        raise SimulationError(f"ODE state became non-finite near t={ts[tuple(bad[0])]:.6g}")
    # stored backward from t_end; flip to ascending time
    return DenseOdeSolution(ts[::-1].copy(), ys[::-1].copy(), fs[::-1].copy())


def riccati_h_system(
    params: ModelParams | Sequence[ModelParams], frak_n: float | Sequence[float], step_count: int = 10_000
) -> OdeSystemSpec:
    """The coupled terminal-value system for (h0, h1, h2) of the linear case.

    Equal-length sequences of parameter sets and frak_n values make a batch:
    one member per pair, state (3, n) and t_end the array of horizons.
    """
    one = isinstance(params, ModelParams)
    rows = [
        (-p.beta * n + 0.5 * p.gamma * p.eta**2 * n**2, p.c * n, p.mu - p.gamma * p.rho * p.sigma * p.eta * n,
         p.b, 4.0 * p.k, 2.0 * p.k, 0.5 * p.sigma**2 * p.gamma, p.alpha, p.T)
        for p, n in ([(params, frak_n)] if one else zip(params, frak_n))
    ]
    forcing, cn, zeta, b, k4, k2, g_half_sig, alpha, t_end = rows[0] if one else np.array(rows).T

    def rhs(t, y: np.ndarray) -> np.ndarray:
        _, h1_, h2_ = y.tolist() if one else y
        w = h1_ + cn
        slope = 2.0 * h2_ + b
        return np.array([forcing - w * w / k4, -zeta - w * slope / k2, g_half_sig - slope * slope / k4])

    zero = np.zeros_like(alpha)
    return OdeSystemSpec(rhs=rhs, terminal_value=np.array([zero, zero, -alpha]), step_count=step_count, t_end=t_end)


def _drift_gain_system(params: ModelParams, forcing: float, gain: float, step_count: int) -> OdeSystemSpec:
    """y' = forcing - (2*f2(t) + b)*y/gain, y(T) = 0: the f1 and Lambda2 systems."""
    return OdeSystemSpec(
        rhs=lambda t, y: forcing - (2.0 * _f2(params, t) + params.b) * y / gain,
        terminal_value=np.array([0.0]), step_count=step_count, t_end=params.T,
    )


def f1_ode_system(params: ModelParams, step_count: int = 10_000) -> OdeSystemSpec:
    """Terminal-value ODE for the zero-order drift coefficient f1."""
    return _drift_gain_system(params, -params.mu, 2.0 * params.k, step_count)


def Lambda2_ode_system(params: ModelParams, step_count: int = 10_000) -> OdeSystemSpec:
    """Terminal-value ODE for the inventory-risk coefficient Lambda2."""
    return _drift_gain_system(params, 0.5 * params.sigma**2, params.k, step_count)


# ---------------------------------------------------------------------------
# Monte Carlo performance estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate of the performance criterion.

    kind is "utility" (mean of -exp(-gamma*wealth)) for gamma > 0 and
    "wealth" (mean terminal wealth, flagged) for gamma = 0.  With antithetic
    pairing, std_error is the sample std of the n_samples independent pair
    means divided by sqrt(n_samples).  ce is the certainty equivalent
    -ln(-mean)/gamma (the mean itself in wealth mode).  n_paths is the
    number of simulated paths: with antithetic pairing an odd request
    rounds up to whole pairs.  clamp_events counts the path-steps whose
    speed the engine clamped, summed over paths.
    """

    mean: float
    std_error: float
    n_paths: int
    seed: int
    kind: str
    ce: float
    ce_std_error: float
    n_samples: int
    clamp_events: int


def _worker_count(n_tasks: int) -> int:
    """Worker threads for n_tasks chunks: HEDGE_THREADS (a positive integer)
    caps them; unset or empty means one per CPU this process may run on
    (os.sched_getaffinity where the platform has it, else os.cpu_count())."""
    env = os.environ.get("HEDGE_THREADS", "")
    if env and not (env.isdecimal() and int(env) >= 1):
        raise ValueError(f"HEDGE_THREADS must be a positive integer, got {env!r}")
    if env:
        cap = int(env)
    elif hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


def simulate_ensemble(
    params: ModelParams,
    exposure: Exposure,
    strategy: Strategy,
    initial: State,
    n_paths: int,
    n_steps: int,
    seed: int,
    *,
    record: Sequence[str] = (),
    antithetic: bool = False,
) -> dict:
    """Vectorized path ensemble for distributional studies.

    Returns terminal arrays q_T, u_T, s_T, x_T and wealth of length n_paths,
    the time grid, the number of clamped speeds ``clamp_events``, and a full
    (n_steps+1, n_paths) series for each recorded variable ("w", "z", "q",
    "u", "s", "x", "nu").  Independent paths by default (figure-style runs);
    with ``antithetic`` an odd n_paths rounds up to whole mirrored pairs.
    """
    n_base, times, tables = _engine_inputs(params, [strategy], initial, n_steps, n_paths, antithetic, n_paths, record)
    (run,) = _euler_ensemble(
        params, exposure, [strategy], initial, n_steps, seed, 0, n_base, antithetic,
        times=times, tables=tables, record=record,
    )
    run["clamp_events"] = int(run["clamp_events"].sum())
    return run


def _mc_samples(
    params: ModelParams,
    exposure: Exposure,
    strategies: Sequence[Strategy],
    initial: State,
    n_paths: int,
    n_steps: int,
    seed: int,
    antithetic: bool,
    chunk_paths: int,
) -> tuple[list[np.ndarray], list[int]]:
    """Terminal wealth per strategy under common random numbers, and the
    number of clamped speeds per strategy.

    The base paths split into chunks of ``chunk_paths`` simulated paths and a
    shorter last one.  Chunk i runs on the make_rng substream (seed, i), and
    the chunks run on _worker_count threads and are joined in chunk order, so
    results depend on ``chunk_paths`` but not on the number of worker threads.
    Affine strategies are tabulated once here and shared by every chunk.

    Each wealth array is (members, samples): (2, pairs) with antithetic
    sampling, base paths over their mirrors, and (1, paths) without.
    """
    unit, times, tables = _engine_inputs(params, strategies, initial, n_steps, n_paths, antithetic, chunk_paths, ())
    rows = 2 if antithetic else 1

    def task(idx, nb):
        runs = _euler_ensemble(
            params, exposure, strategies, initial, n_steps, seed, idx, nb, antithetic, times=times, tables=tables
        )
        return [(run["wealth"].reshape(rows, -1), int(run["clamp_events"].sum())) for run in runs]

    chunk = max(1, chunk_paths // rows)
    sizes = [min(chunk, unit - start) for start in range(0, unit, chunk)]
    workers = _worker_count(len(sizes))
    if workers == 1:
        results = list(map(task, range(len(sizes)), sizes))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, range(len(sizes)), sizes))
    samples = [np.concatenate([res[r][0] for res in results], axis=1) for r in range(len(strategies))]
    clamps = [sum(res[r][1] for res in results) for r in range(len(strategies))]
    return samples, clamps


def _mean_and_se(values: np.ndarray) -> tuple[float, float, int]:
    """Mean over all paths of a (members, samples) array; standard error
    from its independent samples, the member means of each column.

    Antithetic members are dependent, so the SE treats each mirrored pair's
    average as one sample; the mean itself is unchanged by the pairing.
    Fewer than two independent samples leave the SE undefined (NaN).
    """
    mean = float(np.mean(values))
    indep = values.mean(axis=0)
    n = indep.shape[0]
    se = float(np.std(indep, ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return mean, se, n


def _certainty_equivalent(mean_utility: float, gamma: float) -> float:
    """-ln(-mean)/gamma; a mean utility that underflowed to zero raises ValueError."""
    if mean_utility == 0.0:
        raise ValueError("mean exponential utility underflowed to zero; use a smaller gamma or normalize wealth")
    return -math.log(-mean_utility) / gamma


def mc_performance(
    params: ModelParams,
    exposure: Exposure,
    strategy: Strategy,
    initial: State,
    n_paths: int,
    n_steps: int,
    seed: int,
    *,
    antithetic: bool = True,
    chunk_paths: int = DEFAULT_CHUNK_PATHS,
    gamma: float | None = None,
) -> McEstimate:
    """Estimate the expected exponential utility of terminal wealth.

    Antithetic variates on (dW, dB) are applied by default; fixing the seed
    replays identical increments for any strategy, enabling common-random-
    number comparisons.  For gamma = 0 the estimate is mean terminal wealth,
    flagged in ``kind``.

    Each block of ``chunk_paths`` paths draws from its own make_rng substream,
    so the estimate depends on ``chunk_paths``; it is bit-identical for any
    number of worker threads (``HEDGE_THREADS``).
    """
    g = params.gamma if gamma is None else gamma
    (wealth,), (clamped,) = _mc_samples(
        params, exposure, [strategy], initial, n_paths, n_steps, seed, antithetic, chunk_paths
    )
    if g > 0:
        mean, se, n = _mean_and_se(utility_of(wealth, g))
        ce = _certainty_equivalent(mean, g)
        return McEstimate(mean, se, wealth.size, seed, "utility", ce, se / (g * abs(mean)), n, clamped)
    mean, se, n = _mean_and_se(wealth)
    return McEstimate(mean, se, wealth.size, seed, "wealth", mean, se, n, clamped)


@dataclass(frozen=True)
class StrategyGap:
    """Common-random-number comparison of two strategies on the CE scale;
    n_paths is the number of simulated paths (as in ``McEstimate``) and
    clamp_events_a/_b count each strategy's clamped speeds over all paths."""

    ce_a: float
    ce_b: float
    gap: float
    gap_se: float
    kind: str
    n_paths: int
    seed: int
    clamp_events_a: int
    clamp_events_b: int


def mc_strategy_gap(
    params: ModelParams,
    exposure: Exposure,
    strategy_a: Strategy,
    strategy_b: Strategy,
    initial: State,
    n_paths: int,
    n_steps: int,
    seed: int,
    *,
    gamma: float | None = None,
    antithetic: bool = True,
    chunk_paths: int = DEFAULT_CHUNK_PATHS,
) -> StrategyGap:
    """CE(strategy_a) - CE(strategy_b) under shared Brownian increments.

    The gap is computed from per-sample differences, so the common noise
    cancels before any averaging; comparing a strategy to itself gives an
    exact zero.
    """
    g = params.gamma if gamma is None else gamma
    (wealth_a, wealth_b), clamps = _mc_samples(
        params,
        exposure,
        [strategy_a, strategy_b],
        initial,
        n_paths,
        n_steps,
        seed,
        antithetic,
        chunk_paths,
    )
    if g > 0:
        util_a = utility_of(wealth_a, g)
        util_b = utility_of(wealth_b, g)
        mean_a = float(np.mean(util_a))
        mean_b = float(np.mean(util_b))
        mean_d, se_d, _ = _mean_and_se(util_a - util_b)
        ce_a = _certainty_equivalent(mean_a, g)
        # raises before the gap divides by a mean_b that underflowed to zero
        ce_b = _certainty_equivalent(mean_b, g)
        gap = -math.log1p(mean_d / mean_b) / g
        gap_se = se_d / (g * abs(mean_b))
        return StrategyGap(ce_a, ce_b, gap, gap_se, "utility", wealth_a.size, seed, *clamps)
    mean_d, se_d, _ = _mean_and_se(wealth_a - wealth_b)
    ce_a, ce_b = float(np.mean(wealth_a)), float(np.mean(wealth_b))
    return StrategyGap(ce_a, ce_b, mean_d, se_d, "wealth", wealth_a.size, seed, *clamps)


# ---------------------------------------------------------------------------
# PDE residual of the first-order value expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """Sup-norm HJB residuals per theta and consecutive-theta ratios."""

    theta_values: list[float]
    residual_norms: list[float]
    ratios: list[float]


def hjb_residual_at(
    params: ModelParams,
    h_fn: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
    effective_c: float,
    effective_gamma: float,
    t: float,
    q,
    u,
) -> np.ndarray | float:
    """Left side of the certainty-equivalent HJB at (t, q, u) for candidate h,
    elementwise over array q and u at a scalar t (h_fn must then broadcast).

    Derivatives are central differences with steps scaled by the variable's
    magnitude (relative steps 1e-5 in t, 1e-4 in u and q); an exact solution
    leaves only finite-difference noise.
    """
    dt = 1e-5 * max(1.0, params.T)
    du = 1e-4 * np.maximum(np.abs(u), max(1.0, params.eta * math.sqrt(params.T)))
    dq = 1e-4 * np.maximum(1.0, np.abs(q))

    h_0 = h_fn(t, q, u)
    h_t = (h_fn(t + dt, q, u) - h_fn(t - dt, q, u)) / (2 * dt)
    h_up = h_fn(t, q, u + du)
    h_um = h_fn(t, q, u - du)
    h_u = (h_up - h_um) / (2 * du)
    h_uu = (h_up - 2 * h_0 + h_um) / (du * du)
    h_q = (h_fn(t, q + dq, u) - h_fn(t, q - dq, u)) / (2 * dq)

    drive = h_q + effective_c * h_u + params.b * q
    return (
        h_t
        + params.mu * q
        - 0.5 * effective_gamma * params.sigma**2 * q * q
        + (params.beta - effective_gamma * params.rho * params.sigma * params.eta * q) * h_u
        + 0.5 * params.eta**2 * h_uu
        - 0.5 * effective_gamma * params.eta**2 * h_u * h_u
        + drive * drive / (4.0 * params.k)
    )


def default_probe_grid(params: ModelParams, center_u: float) -> list[tuple[float, float, float]]:
    """Interior tensor probe grid over the strategy's operating envelope."""
    ts = np.linspace(0.1 * params.T, 0.9 * params.T, 9)
    qs = np.linspace(-2.0, 2.0, 5)
    spread = 2.0 * params.eta * math.sqrt(params.T)
    us = np.linspace(center_u - spread, center_u + spread, 5)
    return [(float(t), float(q), float(u)) for t in ts for q in qs for u in us]


def pde_residual(
    params: ModelParams,
    payoff: PayoffCurve,
    scale: ExpansionScale,
    probe_grid: Sequence[tuple[float, float, float]],
    thetas: Sequence[float] | None = None,
) -> ResidualReport:
    """Sup-norm HJB residual of the first-order expansion, per theta.

    ``scale`` fixes the base (c, gamma); residuals are evaluated at each
    theta in ``thetas`` (default: theta and theta/2).  Probe points must be
    interior: t in [0.05*T, 0.95*T].
    """
    t_probe, q_probe, u_probe = np.asarray(probe_grid, dtype=float).reshape(-1, 3).T
    outside = (t_probe < 0.05 * params.T) | (t_probe > 0.95 * params.T)
    if outside.any():
        raise ValueError(f"probe time {t_probe[outside][0]} outside interior window [0.05T, 0.95T]")
    if scale.theta <= 0:
        raise ValueError("pde_residual needs a positive base theta")
    base_c = scale.effective_c / scale.theta
    base_gamma = scale.effective_gamma / scale.theta
    if thetas is None:
        thetas = [scale.theta, scale.theta / 2.0]

    # the probes of each distinct time, evaluated as one array
    probe_sets = [(t, q_probe[t_probe == t], u_probe[t_probe == t]) for t in np.unique(t_probe).tolist()]
    norms = []
    for theta in thetas:
        sc = ExpansionScale(theta=theta, effective_c=theta * base_c, effective_gamma=theta * base_gamma)
        h_fn = partial(expansion_value, params, payoff, sc)
        residuals = [hjb_residual_at(params, h_fn, sc.effective_c, sc.effective_gamma, *probes) for probes in probe_sets]
        norms.append(max((float(np.max(np.abs(r))) for r in residuals), default=0.0))
    ratios = [norms[i] / norms[i + 1] if norms[i + 1] != 0 else math.inf for i in range(len(norms) - 1)]
    return ResidualReport(theta_values=list(map(float, thetas)), residual_norms=norms, ratios=ratios)


# ---------------------------------------------------------------------------
# theta sweep of the two approximate strategies
# ---------------------------------------------------------------------------


def theta_sweep(
    params: ModelParams,
    exposure: Exposure,
    thetas: Sequence[float],
    n_paths: int,
    seed: int,
    *,
    n_steps: int = 500,
    initial: State | None = None,
) -> list[dict]:
    """Certainty-equivalent gap between the expansion and delta-substitution
    strategies at each theta, under common random numbers.

    Each row reports the CEs, the gap with its standard error, gap/theta^2,
    whether the gap is noise-bounded (|gap| <= 3*SE, or an undefined SE
    from a single antithetic pair), and each strategy's clamped speeds over
    all paths.  theta = 0 rows compare identical strategies and the gap is
    exactly zero.
    """
    if any(th < 0 for th in thetas):
        raise ValueError("thetas must be nonnegative")
    payoff = payoff_curve_for(params, exposure)
    if initial is None:
        initial = State(t=0.0, x=0.0, q=0.0, s=10.0, u=1.0)
    rows = []
    for theta in thetas:
        sc = ExpansionScale.from_params(params, theta)
        strat_hat = expansion_nu_hat_strategy(params, payoff, sc)
        strat_prime = delta_substitution_strategy(params, payoff, sc)
        res = mc_strategy_gap(
            params,
            exposure,
            strat_hat,
            strat_prime,
            initial,
            n_paths,
            n_steps,
            seed,
            gamma=sc.effective_gamma,
        )
        rows.append(
            {
                "theta": float(theta),
                "ce_nu_hat": res.ce_a,
                "ce_nu_prime": res.ce_b,
                "gap": res.gap,
                "gap_se": res.gap_se,
                "gap_over_theta2": res.gap / theta**2 if theta > 0 else None,
                "noise_bounded": not abs(res.gap) > 3.0 * res.gap_se,
                "kind": res.kind,
                "clamp_events_nu_hat": res.clamp_events_a,
                "clamp_events_nu_prime": res.clamp_events_b,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Nested-quadrature oracle for the expansion coefficients
# ---------------------------------------------------------------------------


def _expected_deltas(params: ModelParams, payoff: PayoffCurve, t: float, u: float):
    """Gauss-Legendre rule (s_nodes, s_w) on [t, T] and E[delta(s, U~_s) | U~_t = u]
    at each node, by adaptive quadrature (one scalar integral per node)."""
    law = AuxiliaryProcessLaw.from_params(params)
    s_nodes, s_w = _gauss_legendre(t, params.T, _NESTED_TIME_NODES)
    return s_nodes, s_w, np.array([expected_delta(law, payoff, t, s, u) for s in s_nodes.tolist()])


def nested_quadrature(params: ModelParams, payoff: PayoffCurve, t: float, u: float) -> tuple[float, float, float]:
    """(lambda_0, lambda_1, Lambda_1) via their defining expectations: an outer
    time rule over one set of inner adaptive quadratures of the future delta,
    with no martingale shortcut from time t.  lambda_0 integrates
    f1(s)/(2k) * E[delta + lambda_1] with lambda_1(s, .) = -m(T-s)/(2k+m(T-s))
    * delta(s, .), so its time weight is f1(s)/(2k+m(T-s))."""
    tau = params.T - t
    if tau <= 0:
        return 0.0, 0.0, 0.0
    k, m = params.k, params.m
    s_nodes, s_w, e_delta = _expected_deltas(params, payoff, t, u)
    f1 = _f1(params, s_nodes)
    gain = 2.0 * k + m * (params.T - s_nodes)
    lam0 = float(np.sum(s_w * f1 / gain * e_delta))
    lam1 = float(-m / (2.0 * k + m * tau) * np.sum(s_w * e_delta))
    weight = gain / (2.0 * k + m * tau)
    inner = f1 * Lambda2(params, s_nodes) - k * params.rho * params.sigma * params.eta * e_delta
    # the builtin sum adds the nodes in order; np.sum's pairwise order moves the last bits
    return lam0, lam1, float(sum(s_w * weight * inner)) / k


def speed_argmax_on_grid(
    params: ModelParams,
    frak_n: float,
    t: float,
    q: float,
) -> tuple[float, float]:
    """Grid-search argmax of the HJB speed objective vs the analytic optimum.

    The grid spans [_SPEED_GRID_LO, _SPEED_GRID_HI] at spacing _SPEED_GRID_STEP.

    The objective is the nu-dependent part of the optimized Hamiltonian:
    nu*(h1 + 2*h2*q) + b*q*nu + c*frak_n*nu - k*nu^2.
    Returns (grid winner, analytic optimum).
    """
    grid = np.arange(_SPEED_GRID_LO, _SPEED_GRID_HI + _SPEED_GRID_STEP, _SPEED_GRID_STEP)
    slope_term = h1(params, frak_n, t) + 2.0 * h2(params, t) * q
    objective = grid * (slope_term + params.b * q + params.c * frak_n) - params.k * grid * grid
    winner = float(grid[int(np.argmax(objective))])
    return winner, float(optimal_speed_linear(params, frak_n, t, q))

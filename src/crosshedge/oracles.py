"""Independent numerical ground-truth generators.

Nothing here reuses the closed forms it is meant to check: the Riccati
system is integrated with a hand-rolled RK4, Feynman-Kac expectations are
evaluated by nested quadrature or Monte Carlo over the uncontrolled factor,
and strategy quality is measured by common-random-number Monte Carlo of the
exponential-utility performance criterion.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bachelier import PayoffCurve
from .expansion import (
    ExpansionScale,
    Lambda2,
    _f1,
    _f2,
    _gauss_legendre,
    delta_substitution_strategy,
    expansion_nu_hat_strategy,
    expansion_value,
)
from .market import (
    Exposure,
    ModelParams,
    SimulationError,
    State,
    Strategy,
    _euler_ensemble,
    make_rng,
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
    "lambda1_nested_quadrature",
    "Lambda1_nested_quadrature",
    "lambda0_monte_carlo",
    "speed_argmax_on_grid",
]


# ---------------------------------------------------------------------------
# Backward RK4 with dense output
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OdeSystemSpec:
    """Terminal-value ODE system y' = rhs(t, y), y(t_end) = terminal_value."""

    rhs: Callable[[float, np.ndarray], np.ndarray]
    terminal_value: np.ndarray
    step_count: int
    t_end: float
    t_start: float = 0.0


class DenseOdeSolution:
    """Grid solution with cubic-Hermite dense output (O(h^4) between nodes)."""

    def __init__(self, t_grid: np.ndarray, values: np.ndarray, derivs: np.ndarray):
        self.t_grid = t_grid
        self.values = values
        self.derivs = derivs

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tq = np.atleast_1d(t)
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
    """Classical RK4 from t_end back to t_start on a uniform grid.

    The state is checked for finiteness once, after the sweep; the error
    names the first grid time at which it is not finite.
    """
    n = spec.step_count
    if n < 1:
        raise ValueError("step_count must be >= 1")
    h = (spec.t_start - spec.t_end) / n
    half, sixth = h / 2, h / 6
    ts = spec.t_end + h * np.arange(n + 1)
    rhs = spec.rhs
    dim = np.atleast_1d(np.asarray(spec.terminal_value, dtype=float)).shape[0]
    ys = np.empty((n + 1, dim))
    fs = np.empty((n + 1, dim))
    y = np.atleast_1d(np.asarray(spec.terminal_value, dtype=float)).copy()
    ys[0] = y
    fs[0] = rhs(ts[0], y)
    tl = ts.tolist()
    for i in range(n):
        t = tl[i]
        k1 = fs[i]
        k2 = np.asarray(rhs(t + half, y + half * k1))
        k3 = np.asarray(rhs(t + half, y + half * k2))
        k4 = np.asarray(rhs(t + h, y + h * k3))
        y = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        ys[i + 1] = y
        fs[i + 1] = rhs(tl[i + 1], y)
    finite = np.isfinite(ys).all(axis=1)
    if not finite.all():
        raise SimulationError(f"ODE state became non-finite near t={ts[np.argmin(finite)]:.6g}")
    # stored backward from t_end; flip to ascending time
    return DenseOdeSolution(ts[::-1].copy(), ys[::-1].copy(), fs[::-1].copy())


def riccati_h_system(params: ModelParams, frak_n: float, step_count: int = 10_000) -> OdeSystemSpec:
    """The coupled terminal-value system for (h0, h1, h2) of the linear case."""
    k, b, c = params.k, params.b, params.c
    zeta = params.mu - params.gamma * params.rho * params.sigma * params.eta * frak_n
    g_half_sig = 0.5 * params.sigma**2 * params.gamma

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        _, h1_, h2_ = y.tolist()
        w = h1_ + c * frak_n
        slope = 2.0 * h2_ + b
        return np.array(
            [
                -params.beta * frak_n
                + 0.5 * params.gamma * params.eta**2 * frak_n**2
                - w * w / (4.0 * k),
                -zeta - w * slope / (2.0 * k),
                g_half_sig - slope * slope / (4.0 * k),
            ]
        )

    return OdeSystemSpec(
        rhs=rhs,
        terminal_value=np.array([0.0, 0.0, -params.alpha]),
        step_count=step_count,
        t_end=params.T,
    )


def f1_ode_system(params: ModelParams, step_count: int = 10_000) -> OdeSystemSpec:
    """Terminal-value ODE for the zero-order drift coefficient f1."""

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return np.array([-params.mu - (2.0 * _f2(params, t) + params.b) * float(y[0]) / (2.0 * params.k)])

    return OdeSystemSpec(rhs=rhs, terminal_value=np.array([0.0]), step_count=step_count, t_end=params.T)


def Lambda2_ode_system(params: ModelParams, step_count: int = 10_000) -> OdeSystemSpec:
    """Terminal-value ODE for the inventory-risk coefficient Lambda2."""

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return np.array([0.5 * params.sigma**2 - (2.0 * _f2(params, t) + params.b) * float(y[0]) / params.k])

    return OdeSystemSpec(rhs=rhs, terminal_value=np.array([0.0]), step_count=step_count, t_end=params.T)


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
    -ln(-mean)/gamma (the mean itself in wealth mode).
    """

    mean: float
    std_error: float
    n_paths: int
    seed: int
    kind: str
    ce: float
    ce_std_error: float
    n_samples: int


def _worker_count(n_tasks: int) -> int:
    """Worker threads for n_tasks chunks: HEDGE_THREADS (a positive integer)
    caps them; unset or empty means os.cpu_count()."""
    env = os.environ.get("HEDGE_THREADS", "")
    if env and not (env.isdecimal() and int(env) >= 1):
        raise ValueError(f"HEDGE_THREADS must be a positive integer, got {env!r}")
    cap = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(cap, n_tasks))


def _chunk_sizes(total: int, chunk: int) -> list[int]:
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes


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
    "u", "s", "x", "nu").  Independent paths by default (figure-style runs).
    """
    (run,) = _euler_ensemble(
        params, exposure, [strategy], initial, n_steps, seed,
        stream=0, n_base=(n_paths // 2 if antithetic else n_paths), antithetic=antithetic,
        record=tuple(record),
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
) -> list[np.ndarray]:
    """Per-path terminal wealth per strategy under common random numbers.

    Chunk i of the paths runs on Philox substream (seed, i), so results
    depend on ``chunk_paths`` but not on the number of worker threads.

    With antithetic sampling the first and second halves of each returned
    array are mirrored pairs (layout preserved across chunk boundaries by
    concatenating half-arrays separately).
    """
    if antithetic and n_paths % 2:
        n_paths += 1
    unit = n_paths // 2 if antithetic else n_paths
    chunk_unit = max(1, (chunk_paths // 2 if antithetic else chunk_paths))
    sizes = _chunk_sizes(unit, chunk_unit)

    def task(args):
        idx, nb = args
        runs = _euler_ensemble(params, exposure, strategies, initial, n_steps, seed, idx, nb, antithetic)
        return [run["wealth"] for run in runs]

    jobs = list(enumerate(sizes))
    workers = _worker_count(len(jobs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, jobs))
    else:
        results = [task(j) for j in jobs]

    samples = []
    for r in range(len(strategies)):
        if antithetic:
            base = np.concatenate([res[r][: res[r].shape[0] // 2] for res in results])
            mirror = np.concatenate([res[r][res[r].shape[0] // 2 :] for res in results])
            samples.append(np.concatenate([base, mirror]))
        else:
            samples.append(np.concatenate([res[r] for res in results]))
    return samples


def _mean_and_se(values: np.ndarray, antithetic: bool) -> tuple[float, float, int]:
    """Mean over all paths; standard error from independent samples.

    Antithetic halves are dependent, so the SE treats each mirrored pair's
    average as one sample; the mean itself is unchanged by the pairing.
    """
    mean = float(np.mean(values))
    if antithetic:
        half = values.shape[0] // 2
        indep = 0.5 * (values[:half] + values[half:])
    else:
        indep = values
    n = indep.shape[0]
    se = float(np.std(indep, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, se, n


def _utility(wealth: np.ndarray, gamma: float) -> np.ndarray:
    """Exponential utility -exp(-gamma * wealth); overflow raises ValueError."""
    with np.errstate(over="ignore"):
        util = -np.exp(-gamma * wealth)
    if not np.all(np.isfinite(util)):
        raise ValueError("exponential utility overflowed; use a smaller gamma or normalize wealth")
    return util


def _certainty_equivalent(mean_utility: float, gamma: float) -> float:
    return -math.log(-mean_utility) / gamma


def _estimate_from_wealth(
    wealth: np.ndarray, gamma: float, n_paths: int, seed: int, antithetic: bool
) -> McEstimate:
    if gamma > 0:
        mean, se, n = _mean_and_se(_utility(wealth, gamma), antithetic)
        ce_se = se / (gamma * abs(mean))
        return McEstimate(mean, se, n_paths, seed, "utility", _certainty_equivalent(mean, gamma), ce_se, n)
    mean, se, n = _mean_and_se(wealth, antithetic)
    return McEstimate(mean, se, n_paths, seed, "wealth", mean, se, n)


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
    chunk_paths: int = 20_000,
    gamma: float | None = None,
) -> McEstimate:
    """Estimate the expected exponential utility of terminal wealth.

    Antithetic variates on (dW, dB) are applied by default; fixing the seed
    replays identical increments for any strategy, enabling common-random-
    number comparisons.  For gamma = 0 the estimate is mean terminal wealth,
    flagged in ``kind``.

    Each block of ``chunk_paths`` paths draws from its own Philox substream,
    so the estimate depends on ``chunk_paths``; it is bit-identical for any
    number of worker threads (``HEDGE_THREADS``).
    """
    g = params.gamma if gamma is None else gamma
    (wealth,) = _mc_samples(
        params, exposure, [strategy], initial, n_paths, n_steps, seed, antithetic, chunk_paths
    )
    return _estimate_from_wealth(wealth, g, n_paths, seed, antithetic)


@dataclass(frozen=True)
class StrategyGap:
    """Common-random-number comparison of two strategies on the CE scale."""

    ce_a: float
    ce_b: float
    gap: float
    gap_se: float
    kind: str
    n_paths: int
    seed: int


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
    chunk_paths: int = 20_000,
) -> StrategyGap:
    """CE(strategy_a) - CE(strategy_b) under shared Brownian increments.

    The gap is computed from per-sample differences, so the common noise
    cancels before any averaging; comparing a strategy to itself gives an
    exact zero.
    """
    g = params.gamma if gamma is None else gamma
    wealth_a, wealth_b = _mc_samples(
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
        util_a = _utility(wealth_a, g)
        util_b = _utility(wealth_b, g)
        mean_a = float(np.mean(util_a))
        mean_b = float(np.mean(util_b))
        mean_d, se_d, _ = _mean_and_se(util_a - util_b, antithetic)
        ce_a = _certainty_equivalent(mean_a, g)
        ce_b = _certainty_equivalent(mean_b, g)
        gap = -math.log1p(mean_d / mean_b) / g
        gap_se = se_d / (g * abs(mean_b))
        return StrategyGap(ce_a, ce_b, gap, gap_se, "utility", n_paths, seed)
    mean_d, se_d, _ = _mean_and_se(wealth_a - wealth_b, antithetic)
    return StrategyGap(float(np.mean(wealth_a)), float(np.mean(wealth_b)), mean_d, se_d, "wealth", n_paths, seed)


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
    h_fn: Callable[[float, float, float], float],
    effective_c: float,
    effective_gamma: float,
    t: float,
    q: float,
    u: float,
    dt_rel: float = 1e-5,
    du_rel: float = 1e-4,
    dq_rel: float = 1e-4,
) -> float:
    """Left side of the certainty-equivalent HJB at (t, q, u) for candidate h.

    Derivatives are central differences with steps scaled by the variable's
    magnitude; an exact solution leaves only finite-difference noise.
    """
    dt = dt_rel * max(1.0, params.T)
    du = du_rel * max(1.0, abs(u), params.eta * math.sqrt(params.T))
    dq = dq_rel * max(1.0, abs(q))

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
    for (t, _, _) in probe_grid:
        if not 0.05 * params.T <= t <= 0.95 * params.T:
            raise ValueError(f"probe time {t} outside interior window [0.05T, 0.95T]")
    if scale.theta <= 0:
        raise ValueError("pde_residual needs a positive base theta")
    base_c = scale.effective_c / scale.theta
    base_gamma = scale.effective_gamma / scale.theta
    if thetas is None:
        thetas = [scale.theta, scale.theta / 2.0]

    norms = []
    for theta in thetas:
        sc = ExpansionScale(theta=theta, effective_c=theta * base_c, effective_gamma=theta * base_gamma)

        def h_fn(t, q, u, _sc=sc):
            return float(expansion_value(params, payoff, _sc, t, q, u))

        sup = 0.0
        for (t, q, u) in probe_grid:
            sup = max(sup, abs(hjb_residual_at(params, h_fn, sc.effective_c, sc.effective_gamma, t, q, u)))
        norms.append(sup)
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
    chunk_paths: int = 20_000,
) -> list[dict]:
    """Certainty-equivalent gap between the expansion and delta-substitution
    strategies at each theta, under common random numbers.

    Each row reports the CEs, the gap with its standard error, gap/theta^2,
    and whether the gap is noise-bounded (|gap| <= 3*SE).  theta = 0 rows
    compare identical strategies and the gap is exactly zero.
    """
    from .bachelier import payoff_curve_for

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
            chunk_paths=chunk_paths,
        )
        rows.append(
            {
                "theta": float(theta),
                "ce_nu_hat": res.ce_a,
                "ce_nu_prime": res.ce_b,
                "gap": res.gap,
                "gap_se": res.gap_se,
                "gap_over_theta2": res.gap / theta**2 if theta > 0 else None,
                "noise_bounded": abs(res.gap) <= 3.0 * res.gap_se,
                "kind": res.kind,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Nested-quadrature and Monte Carlo oracles for the expansion coefficients
# ---------------------------------------------------------------------------


def _expected_delta(params: ModelParams, payoff: PayoffCurve, t: float, s: float, u: float) -> float:
    from .bachelier import AuxiliaryProcessLaw, expected_delta

    return expected_delta(AuxiliaryProcessLaw.from_params(params), payoff, t, s, u)


def lambda1_nested_quadrature(
    params: ModelParams,
    payoff: PayoffCurve,
    t: float,
    u: float,
    time_nodes: int = 128,
) -> float:
    """lambda_1 via its defining expectation: outer time rule, inner adaptive
    quadrature of the future delta.  No martingale shortcut."""
    tau = params.T - t
    if tau <= 0:
        return 0.0
    s_nodes, s_w = _gauss_legendre(t, params.T, time_nodes)
    vals = np.array([_expected_delta(params, payoff, t, float(s), u) for s in s_nodes])
    return float(-params.m / (2.0 * params.k + params.m * tau) * np.sum(s_w * vals))


def Lambda1_nested_quadrature(
    params: ModelParams,
    payoff: PayoffCurve,
    t: float,
    u: float,
    time_nodes: int = 128,
) -> float:
    """Lambda_1 via its defining expectation, quadrature both in time and space."""
    tau = params.T - t
    if tau <= 0:
        return 0.0
    k, m = params.k, params.m
    s_nodes, s_w = _gauss_legendre(t, params.T, time_nodes)
    acc = 0.0
    for s, w in zip(s_nodes, s_w):
        weight = (2.0 * k + m * (params.T - s)) / (2.0 * k + m * tau)
        e_delta = _expected_delta(params, payoff, t, float(s), u)
        inner = float(_f1(params, s)) * float(Lambda2(params, s)) - k * params.rho * params.sigma * params.eta * e_delta
        acc += w * weight * inner
    return acc / k


def lambda0_monte_carlo(
    params: ModelParams,
    payoff: PayoffCurve,
    t: float,
    u: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    *,
    chunk_paths: int = 100_000,
) -> tuple[float, float]:
    """Monte Carlo of lambda_0's defining expectation over exact Gaussian
    factor paths, trapezoid in time.  Returns (mean, std error).

    Plain independent sampling: the standard error must stay large relative
    to the time-discretization bias for a within-3-SE comparison to be fair.
    """
    dt = (params.T - t) / n_steps
    times = t + dt * np.arange(n_steps + 1)
    f1_over_2k = _f1(params, times) / (2.0 * params.k)
    trap_w = np.full(n_steps + 1, dt)
    trap_w[0] = trap_w[-1] = dt / 2.0

    sizes = _chunk_sizes(n_paths, max(2, chunk_paths))
    chunks = []
    sqdt = math.sqrt(dt) * params.eta
    for idx, nb in enumerate(sizes):
        rng = make_rng(seed, idx)
        integrals = np.zeros(nb)
        upaths = np.full(nb, float(u))
        for j in range(n_steps + 1):
            s = float(times[j])
            d = np.asarray(payoff.delta(s, upaths), dtype=float)
            lam1 = float(-params.m * (params.T - s) / (2.0 * params.k + params.m * (params.T - s)))
            integrals += trap_w[j] * f1_over_2k[j] * (lam1 * d + d)
            if j < n_steps:
                upaths = upaths + params.beta * dt + sqdt * rng.standard_normal(nb)
        chunks.append(integrals)
    samples = np.concatenate(chunks)
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(samples.shape[0]))
    return mean, se


def speed_argmax_on_grid(
    params: ModelParams,
    frak_n: float,
    t: float,
    q: float,
    lo: float = -10.0,
    hi: float = 10.0,
    resolution: float = 1e-4,
) -> tuple[float, float]:
    """Grid-search argmax of the HJB speed objective vs the analytic optimum.

    The objective is the nu-dependent part of the optimized Hamiltonian:
    nu*(h1 + 2*h2*q) + b*q*nu + c*frak_n*nu - k*nu^2.
    Returns (grid winner, analytic optimum).
    """
    from .linear import h1 as h1_fn, h2 as h2_fn, optimal_speed_linear

    grid = np.arange(lo, hi + resolution, resolution)
    slope_term = h1_fn(params, frak_n, t) + 2.0 * h2_fn(params, t) * q
    objective = grid * (slope_term + params.b * q + params.c * frak_n) - params.k * grid * grid
    winner = float(grid[int(np.argmax(objective))])
    return winner, float(optimal_speed_linear(params, frak_n, t, q))

"""Market model: parameters, exposures, controlled dynamics and the Euler engine.

The traded asset midprice S and the non-tradable risk factor U follow
arithmetic dynamics driven by correlated Brownian motions.  The agent's
trading speed nu feeds back into both drifts (permanent impact b on S,
cross impact c on U) and into the execution price (temporary impact k).
Cash X and inventory Q follow from the execution price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "derived_constants",
    "LinearExposure",
    "BachelierCallExposure",
    "CustomSmoothExposure",
    "Exposure",
    "State",
    "Strategy",
    "constant_strategy",
    "PathBundle",
    "SimulationError",
    "RNG_LAYOUT",
    "make_rng",
    "simulate_path",
    "payoff_eval",
    "terminal_wealth",
    "utility_of",
]


class SimulationError(RuntimeError):
    """Raised when a path simulation produces a non-finite quantity."""


def _check_finite(obj) -> None:
    """Reject a dataclass with a non-finite field, naming the first one."""
    for field in fields(obj):
        value = getattr(obj, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Market, impact, and preference constants.

    mu, sigma  : drift and volatility of the traded asset S
    beta, eta  : drift and volatility of the non-tradable factor U
    rho        : Brownian correlation between S and U shocks, in (-1, 1)
    b          : permanent impact of trading speed on the S drift, >= 0
    c          : cross impact of trading speed on the U drift
    k          : temporary impact (execution-price penalty), > 0
    gamma      : exponential-utility risk aversion, >= 0
    alpha      : terminal quadratic liquidation penalty, > 0
    T          : trading horizon, > 0

    Every field must be finite.  The constructor enforces 2*alpha - b > 0;
    without it the closed-form value-function coefficients can blow up
    inside [0, T].
    """

    mu: float
    sigma: float
    beta: float
    eta: float
    rho: float
    b: float
    c: float
    k: float
    gamma: float
    alpha: float
    T: float

    def __post_init__(self):
        _check_finite(self)
        if not self.k > 0:
            raise ValueError(f"temporary impact k must be positive, got {self.k}")
        if not self.T > 0:
            raise ValueError(f"horizon T must be positive, got {self.T}")
        if not abs(self.rho) < 1:
            raise ValueError(f"correlation rho must lie in (-1, 1), got {self.rho}")
        if self.b < 0:
            raise ValueError(f"permanent impact b must be nonnegative, got {self.b}")
        if self.gamma < 0:
            raise ValueError(f"risk aversion gamma must be nonnegative, got {self.gamma}")
        if not self.alpha > 0:
            raise ValueError(f"liquidation penalty alpha must be positive, got {self.alpha}")
        if self.sigma < 0 or self.eta < 0:
            raise ValueError("volatilities sigma and eta must be nonnegative")
        if not 2.0 * self.alpha - self.b > 0:
            raise ValueError(
                f"well-posedness requires 2*alpha - b > 0, got {2.0 * self.alpha - self.b}"
            )

    @property
    def m(self) -> float:
        """Effective terminal stiffness 2*alpha - b (positive by construction)."""
        return 2.0 * self.alpha - self.b


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from ModelParams (and a linear exposure size).

    m         : 2*alpha - b
    zeta      : risk-adjusted drift mu - gamma*rho*sigma*eta*frak_n
    omega     : sqrt(k * gamma * sigma^2 / 2)
    phi_plus  : omega + alpha - b/2
    phi_minus : omega - alpha + b/2
    """

    m: float
    zeta: float
    omega: float
    phi_plus: float
    phi_minus: float


def derived_constants(params: ModelParams, frak_n: float = 0.0) -> DerivedConstants:
    """Compute the derived constants for a linear exposure of ``frak_n`` units."""
    omega = math.sqrt(params.k * params.gamma * params.sigma**2 / 2.0)
    half_b = params.b / 2.0
    return DerivedConstants(
        m=params.m,
        zeta=params.mu - params.gamma * params.rho * params.sigma * params.eta * frak_n,
        omega=omega,
        phi_plus=omega + params.alpha - half_b,
        phi_minus=omega - params.alpha + half_b,
    )


def _check_time(params: ModelParams, t) -> float | np.ndarray:
    """Reject times outside [0, T] (up to rounding) and clip the rest into it.

    A scalar time comes back as a float, and a float skips numpy entirely;
    an array time comes back as an array.
    """
    if not isinstance(t, float):
        t = np.asarray(t, dtype=float)
        if t.ndim:
            if not (np.all(t >= -1e-12) and np.all(t <= params.T * (1.0 + 1e-12))):
                raise ValueError(f"time must lie in [0, T={params.T}], got {t}")
            return np.clip(t, 0.0, params.T)
        t = float(t)
    if not (-1e-12 <= t <= params.T * (1.0 + 1e-12)):
        raise ValueError(f"time must lie in [0, T={params.T}], got {t}")
    return min(max(t, 0.0), params.T)


@dataclass(frozen=True)
class LinearExposure:
    """Terminal exposure psi(U) = frak_n * U (frak_n frozen units of the factor)."""

    frak_n: float

    def __post_init__(self):
        _check_finite(self)


@dataclass(frozen=True)
class BachelierCallExposure:
    """n_options European calls on U, strike K, expiring dt_offset after the horizon.

    dt_offset > 0 keeps the effective payoff smooth at the horizon; the raw
    kinked payoff is only used for realized terminal wealth.
    """

    n_options: float
    strike: float
    dt_offset: float = 1e-5

    def __post_init__(self):
        _check_finite(self)
        if not self.dt_offset > 0:
            raise ValueError("dt_offset must be positive (smooth-payoff regularization)")


@dataclass(frozen=True)
class CustomSmoothExposure:
    """Caller-supplied smooth payoff with bounded derivatives up to fourth order.

    payoff_derivative is optional; conditional-expectation deltas fall back to
    finite differences when it is absent.
    """

    payoff: Callable[[np.ndarray], np.ndarray]
    payoff_derivative: Callable[[np.ndarray], np.ndarray] | None = None


Exposure = Union[LinearExposure, BachelierCallExposure, CustomSmoothExposure]


@dataclass(frozen=True)
class State:
    """A point (t, x, q, S, U) of the controlled system: finite, with t >= 0."""

    t: float
    x: float
    q: float
    s: float
    u: float

    def __post_init__(self):
        _check_finite(self)
        if self.t < 0:
            raise ValueError(f"time must be nonnegative, got {self.t}")


# (a, w, B): scalar time coefficients of the affine speed a + w*delta(t,U) + B*q
Affine = tuple[float, float, float]


@dataclass(frozen=True)
class Strategy:
    """A feedback trading rule (t, q, U) -> speed with an identifying tag.

    Give exactly one of ``rule`` and ``coeffs``.  ``rule`` must accept
    scalar t and array-like q, U and broadcast; the Euler engine calls it at
    every step.

    An affine strategy, whose speed is a(t) + w(t)*delta(t,U) + B(t)*q, is
    given as ``coeffs(t) -> (a, w, B)`` and the payoff delta ``delta(t, U)``
    (None when w is zero at every t).  The Euler engine then tabulates the
    coefficients once per Monte Carlo call and evaluates the speed itself,
    as (w*delta + a) + B*q (B*q + a when w is zero).  Its ``rule`` is derived
    here and gives that evaluation bit for bit, in the broadcast shape of q
    and U even when w is zero and no delta is called.
    """

    tag: str
    rule: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None
    coeffs: Callable[[float], Affine] | None = None
    delta: Callable[[float, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if (self.rule is None) == (self.coeffs is None):
            raise ValueError(f"strategy '{self.tag}' needs exactly one of rule and coeffs")
        if self.delta is not None and self.coeffs is None:
            raise ValueError(f"strategy '{self.tag}' gives delta without coeffs; only an affine strategy reads delta")
        if self.coeffs is not None:
            coeffs, delta = self.coeffs, self.delta

            def rule(t, q, u):
                return _affine_speed(coeffs(t), delta, t, q, u)

            object.__setattr__(self, "rule", rule)


def _affine_speed(coeffs: Affine, delta, t: float, q, u):
    """a + w*delta(t,u) + B*q in the Euler engine's order of operations,
    (w*delta + a) + B*q.  A zero weight makes no delta call and gives B*q + a
    in the broadcast shape of q and u."""
    a, w, b = coeffs
    q = np.asarray(q, dtype=float)
    if w != 0.0:
        out = w * np.asarray(delta(t, u), dtype=float) + a + b * q
    else:
        out = b * q + a
        shape = np.broadcast_shapes(out.shape, np.shape(u))
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
    return out if out.ndim else float(out)


def constant_strategy(speed: float) -> Strategy:
    """Trade at a constant speed regardless of state."""
    coeffs = (float(speed), 0.0, 0.0)
    return Strategy(tag="constant", coeffs=lambda t: coeffs)


@dataclass(frozen=True)
class PathBundle:
    """One discretized trajectory of (W, Z, S, U, Q, X, nu) under a strategy.

    State arrays have length n_steps + 1; nu_path has length n_steps.
    Arrays are frozen read-only after construction.
    """

    seed: int
    stream: int
    n_steps: int
    dt: float
    times: np.ndarray
    w_path: np.ndarray
    z_path: np.ndarray
    s_path: np.ndarray
    u_path: np.ndarray
    q_path: np.ndarray
    x_path: np.ndarray
    nu_path: np.ndarray
    strategy_tag: str
    clamp_events: int

    def __post_init__(self):
        for name in ("times", "w_path", "z_path", "s_path", "u_path", "q_path", "x_path", "nu_path"):
            getattr(self, name).flags.writeable = False


# Every random draw of the package comes from make_rng; artifacts carry this id.
RNG_LAYOUT = "SFC64/SeedSequence(seed, spawn_key=(stream,))"


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for substream ``stream`` of ``seed``.

    Substreams are independent because SeedSequence hashes the spawn key
    ``(stream,)`` into each one's initial state, not because the generator
    is counter-based; so draws are reproducible bit for bit in any
    execution order.  SFC64 is numpy's cheapest bit generator at
    ``standard_normal`` (about 13.7 ns per normal, against 15.6 for PCG64 and
    19.4 for Philox on a 2-core Xeon), and the normal fills are most of a
    cheap strategy's Monte Carlo cost.  ``numpy.random`` is loaded here, at
    the first call, not at import.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.SFC64(ss))


# Speeds are clamped to |nu| <= DEFAULT_SPEED_CLAMP; clamps are counted.
DEFAULT_SPEED_CLAMP = 1e6
# Series the Euler engine can record
RECORDABLE = ("w", "z", "s", "u", "q", "x", "nu")


def simulate_path(
    params: ModelParams,
    exposure: Exposure,
    strategy: Strategy,
    initial: State,
    n_steps: int,
    seed: int,
    *,
    stream: int = 0,
    antithetic: bool = False,
) -> PathBundle:
    """Euler-Maruyama simulation of one path of the controlled system.

    The path is a one-path run of the ensemble engine on substream
    (seed, stream): it equals column 0 of ``simulate_ensemble`` with
    n_paths = 1 and the same seed.  ``antithetic=True`` returns the mirror
    path, whose Gaussian increments are the exact negatives of the plain
    path's; from zero initial levels (S0 = U0 = 0) the mirror S and U paths
    are then the exact negatives as well.  Speeds are clamped to
    |nu| <= DEFAULT_SPEED_CLAMP; clamp events are counted on the returned
    bundle.
    """
    n_base, times, tables = _engine_inputs(params, [strategy], initial, n_steps, 1, antithetic, 1, RECORDABLE)
    (run,) = _euler_ensemble(
        params, exposure, [strategy], initial, n_steps, seed, stream, n_base, antithetic,
        times=times, tables=tables, record=RECORDABLE,
    )
    col = 1 if antithetic else 0
    return PathBundle(
        seed=seed,
        stream=stream,
        n_steps=n_steps,
        dt=(params.T - initial.t) / n_steps,
        times=run["times"],
        **{f"{name}_path": np.ascontiguousarray(run[name][:, col]) for name in RECORDABLE},
        strategy_tag=strategy.tag,
        clamp_events=int(run["clamp_events"][col]),
    )


def _clamp_speeds(
    strategy: Strategy, nu: np.ndarray, step: int, t: float, state: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Speeds clamped to [-DEFAULT_SPEED_CLAMP, DEFAULT_SPEED_CLAMP] and the
    clamp mask, both in the shape of ``nu``.

    A non-finite speed raises SimulationError naming the step and the state
    of the first offending path.
    """
    bad = np.flatnonzero(~np.isfinite(nu))
    if bad.size:
        j = bad[0]
        raise SimulationError(
            f"strategy '{strategy.tag}' returned non-finite speed at step {step} "
            f"(t={t:.6g}, q={state['q'][j]:.6g}, u={state['u'][j]:.6g}, path {j})"
        )
    return np.clip(nu, -DEFAULT_SPEED_CLAMP, DEFAULT_SPEED_CLAMP), np.abs(nu) > DEFAULT_SPEED_CLAMP


def _step_times(params: ModelParams, initial: State, n_steps: int) -> list[float]:
    """Left endpoints of the Euler steps, accumulated t += dt as the engine steps."""
    dt = (params.T - initial.t) / n_steps
    times, t = [], initial.t
    for _ in range(n_steps):
        times.append(t)
        t += dt
    return times


def _coefficient_tables(
    strategies: Sequence[Strategy], times: Sequence[float]
) -> list[list[Affine] | None]:
    """(a, w, B) of each affine strategy at each step time; None for an opaque rule."""
    tables = []
    for strategy in strategies:
        table = None
        if strategy.coeffs is not None:
            table = [tuple(map(float, strategy.coeffs(t))) for t in times]
            if strategy.delta is None and any(w != 0.0 for _, w, _ in table):
                raise ValueError(f"strategy '{strategy.tag}' weights the payoff delta but carries no delta")
        tables.append(table)
    return tables


def _engine_inputs(
    params: ModelParams,
    strategies: Sequence[Strategy],
    initial: State,
    n_steps: int,
    n_paths: int,
    antithetic: bool,
    chunk_paths: int,
    record: Sequence[str],
) -> tuple[int, list[float], list[list[Affine] | None]]:
    """Validated inputs shared by every front end of the Euler engine: the
    number of base paths (an odd antithetic count rounds up to whole pairs),
    the engine's step times and the coefficient tables on them.
    ``chunk_paths`` is the paths per engine call (n_paths for a front end
    that runs one); ``record`` is the sequence of RECORDABLE names the
    engine will record."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not initial.t < params.T:
        raise ValueError(f"initial.t must precede the horizon T={params.T}, got {initial.t}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if chunk_paths < 1:
        raise ValueError(f"chunk_paths must be >= 1, got {chunk_paths}")
    if isinstance(record, str):
        raise ValueError(f"record must be a sequence of names from {RECORDABLE}, not the string {record!r}")
    unknown = [name for name in record if name not in RECORDABLE]
    if unknown:
        raise ValueError(f"record names unknown series {unknown} (have {RECORDABLE})")
    n_base = (n_paths + 1) // 2 if antithetic else n_paths
    times = _step_times(params, initial, n_steps)
    return n_base, times, _coefficient_tables(strategies, times)


def _euler_ensemble(
    params: ModelParams,
    exposure: Exposure,
    strategies: Sequence[Strategy],
    initial: State,
    n_steps: int,
    seed: int,
    stream: int,
    n_base: int,
    antithetic: bool,
    *,
    times: Sequence[float],
    tables: Sequence[list[Affine] | None],
    record: Sequence[str] = (),
) -> list[dict]:
    """Euler-Maruyama steps of (X, Q, S, U) for each strategy under shared shocks.

    Each step draws a (2, n_base) block of standard normals from substream
    (seed, stream); ``antithetic=True`` appends n_base mirror paths driven by
    the negated block.  The speed is evaluated at the left endpoint of each
    step (predictable control), the factor shock is
    dZ = rho*dW + sqrt(1-rho^2)*dB, and cash pays the execution price at the
    left endpoint: x_{i+1} = x_i - (S_i + k*nu_i)*nu_i*dt.

    ``times``, ``tables`` and ``record`` come from ``_engine_inputs``, which
    validates them.  An affine strategy's speed is (w*delta + a) + B*q from
    its row of ``tables``; an opaque one calls its rule.  A
    step allocates nothing beyond what a rule or delta call returns.

    An affine strategy with w == 0 on every row (the linear optimum, a
    constant speed) never reads delta and every path starts at initial.q, so
    its inventory, speed, nu*dt and clamp test are held once per step as
    one-element arrays that broadcast against the path arrays.  Every output
    is bit-identical to the per-path evaluation: each product keeps its
    order, e.g. ((S + k*nu)*nu)*dt, and IEEE addition commutes.  Opaque rules
    and strategies with a nonzero delta weight keep per-path inventory.

    Returns one dict per strategy: the time grid ``times``, terminal arrays
    q_T, u_T, s_T, x_T and ``wealth``, per-path ``clamp_events`` counts, and
    for each name in ``record`` (a sequence of RECORDABLE names) its
    (n_steps+1, n_paths) series (n_steps rows for "nu").
    """
    rng = make_rng(seed, stream)
    dt = (params.T - initial.t) / n_steps
    sq = math.sqrt(dt)
    rho_c = math.sqrt(1.0 - params.rho**2)
    k, b_imp, c_imp = params.k, params.b, params.c
    n = 2 * n_base if antithetic else n_base
    tracked = [name for name in ("s", "u", "q", "x", "w", "z") if name in record]

    # per strategy, the buffers (nu, nu*dt, scratch) of its speed: one
    # element for a delta-free affine strategy (see above), else path-sized
    tmp = np.empty(n)
    lanes, path_lane = [], None
    for table in tables:
        if table is not None and all(w == 0.0 for _, w, _ in table):
            lanes.append((np.empty(1), np.empty(1), np.empty(1)))
        else:
            path_lane = path_lane or (np.empty(n), np.empty(n), tmp)
            lanes.append(path_lane)
    runs = []
    for lane in lanes:
        state = {name: np.full(n, float(getattr(initial, name))) for name in ("s", "u", "x")}
        state["q"] = np.full(lane[0].size, float(initial.q))
        state.update((name, np.zeros(n)) for name in ("w", "z") if name in record)
        rec = {name: np.empty((n_steps if name == "nu" else n_steps + 1, n)) for name in record}
        for name in tracked:
            rec[name][0] = state[name]
        runs.append((state, rec, np.zeros(n, dtype=np.int64)))

    # per shock: (buffer, drift, [(coefficient, normal row)]); the S and U
    # shocks carry their drifts, dW and dZ are kept only when recorded
    shocks = {
        "s": (params.mu * dt, [(params.sigma * sq, 0)]),
        "u": (params.beta * dt, [(params.eta * params.rho * sq, 0), (params.eta * rho_c * sq, 1)]),
        "w": (0.0, [(sq, 0)]),
        "z": (0.0, [(params.rho * sq, 0), (rho_c * sq, 1)]),
    }
    shocks = {
        name: (np.empty(n), *spec) for name, spec in shocks.items() if name in ("s", "u") or name in record
    }
    xi = np.empty((2, n_base))
    base, mirror = slice(0, n_base), slice(n_base, n)

    for i, t in enumerate(times):
        rng.standard_normal(out=xi)
        for buf, drift, terms in shocks.values():
            # filled on the base half and mirrored: drift - shock
            (c0, row0), *rest = terms
            np.multiply(xi[row0], c0, out=buf[base])
            for c1, row1 in rest:
                np.multiply(xi[row1], c1, out=tmp[base])
                buf[base] += tmp[base]
            if antithetic:
                np.subtract(drift, buf[base], out=buf[mirror])
            if drift:
                buf[base] += drift
        for strategy, table, (nu, nudt, kv), (st, rec, clamped) in zip(strategies, tables, lanes, runs):
            q = st["q"]
            if table is None:
                v = np.asarray(strategy.rule(t, q, st["u"]), dtype=float)
                if v.ndim == 0:
                    v = np.full(n, float(v))
            else:
                a, w, b = table[i]
                v = nu
                if w == 0.0:
                    np.multiply(q, b, out=v)
                    v += a
                else:
                    np.multiply(strategy.delta(t, st["u"]), w, out=v)
                    v += a
                    np.multiply(q, b, out=tmp)
                    v += tmp
            # two reductions cover both the finite check and the clamp test
            if not (v.max() <= DEFAULT_SPEED_CLAMP and v.min() >= -DEFAULT_SPEED_CLAMP):
                v, mask = _clamp_speeds(strategy, v, i, t, st)
                clamped += mask
            if "nu" in rec:
                rec["nu"][i] = v
            # cash keeps the order ((S + k*nu)*nu)*dt of its bookkeeping identity
            np.multiply(v, k, out=kv)
            np.add(st["s"], kv, out=tmp)
            tmp *= v
            tmp *= dt
            st["x"] -= tmp
            np.multiply(v, dt, out=nudt)
            q += nudt
            for name, impact in (("s", b_imp), ("u", c_imp)):
                np.multiply(nudt, impact, out=kv)
                np.add(shocks[name][0], kv, out=tmp)
                st[name] += tmp
            for name in ("w", "z"):
                if name in shocks:
                    st[name] += shocks[name][0]
            for name in tracked:
                rec[name][i + 1] = st[name]

    for st, _, _ in runs:
        if st["q"].size < n:
            st["q"] = np.full(n, st["q"][0])
    grid = initial.t + dt * np.arange(n_steps + 1)
    return [
        {
            **{f"{name}_T": st[name] for name in ("q", "u", "s", "x")},
            "times": grid,
            "wealth": _wealth(params, exposure, st["x"], st["q"], st["s"], st["u"]),
            "clamp_events": clamped,
            **rec,
        }
        for st, rec, clamped in runs
    ]


def payoff_eval(exposure: Exposure, u) -> np.ndarray | float:
    """Raw terminal payoff psi(u).

    For a Bachelier call this is the intrinsic value n*max(u - K, 0); it is
    what the agent actually receives at the horizon, while pricing before the
    horizon goes through the smoothed conditional-expectation machinery.
    """
    if isinstance(exposure, LinearExposure):
        return exposure.frak_n * np.asarray(u, dtype=float) if np.ndim(u) else exposure.frak_n * float(u)
    if isinstance(exposure, BachelierCallExposure):
        return exposure.n_options * np.maximum(np.asarray(u, dtype=float) - exposure.strike, 0.0)
    if isinstance(exposure, CustomSmoothExposure):
        return exposure.payoff(np.asarray(u, dtype=float))
    raise TypeError(f"unknown exposure type: {type(exposure).__name__}")


def _wealth(params: ModelParams, exposure: Exposure, x, q, s, u):
    """Terminal wealth X_T + Q_T*(S_T - alpha*Q_T) + psi(U_T), elementwise."""
    return x + q * (s - params.alpha * q) + np.asarray(payoff_eval(exposure, u), dtype=float)


def terminal_wealth(bundle: PathBundle, params: ModelParams, exposure: Exposure) -> float:
    """Realized terminal wealth X_T + Q_T*(S_T - alpha*Q_T) + psi(U_T)."""
    x, q, s, u = (path[-1] for path in (bundle.x_path, bundle.q_path, bundle.s_path, bundle.u_path))
    return float(_wealth(params, exposure, x, q, s, u))


def utility_of(wealth, gamma: float):
    """Exponential utility -exp(-gamma * wealth); overflow raises ValueError."""
    with np.errstate(over="ignore"):
        util = -np.exp(-gamma * np.asarray(wealth, dtype=float))
    if not np.all(np.isfinite(util)):
        raise ValueError("exponential utility overflowed; use a smaller gamma or normalize wealth")
    return util

"""Closed-form value function and optimal strategy for a linear factor exposure.

With psi(U) = frak_n * U the certainty-equivalent value separates as
x + q*S + frak_n*U + h(t, q) with h quadratic in inventory:

    h(t, q) = h0(t) + h1(t) * q + h2(t) * q^2.

h2 solves an uncoupled Riccati equation, h1 a linear ODE forced by the
risk-adjusted drift zeta and the cross impact, and h0 integrates the
squared forcing.  All three admit explicit solutions built from the
constants omega = sqrt(k*gamma*sigma^2/2) and phi_± = omega ± alpha ∓ b/2.

``_constants`` computes omega, phi_± and the switch once per evaluation,
and ``_riccati`` builds h1's two parts and h2 from them; h1, h2, h0's
integrand and the optimal speed all read it, and the optimal inventory
reads ``_constants`` directly.  For gamma = 0 the expressions above divide
by omega, so below a small omega threshold (``OMEGA_SWITCH``) the switch
selects the analytic omega -> 0 limits instead.  Those
limits are rationals in time-to-go tau and are the zero-order expansion
coefficients: the h2 limit is f2, the h1 drift gain at forcing mu is f1,
and the cross-impact gain is the lambda_1 weight.  They are defined here
once (``_h2_limit``, ``_drift_gain_limit``, ``_cross_gain_limit``) and
``expansion`` evaluates f1, f2 and lambda_1 through them, and its drift
time integrals are exact rationals built on f1.  The Gauss-Legendre rule
``expansion`` and ``oracles`` share is defined here too, and so is the
fixed rule in log(2k + m*tau) behind h0's time integral.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .market import (
    Affine,
    ModelParams,
    State,
    Strategy,
    _check_time,
)

__all__ = [
    "h0",
    "h1",
    "h2",
    "optimal_speed_linear",
    "optimal_inventory_linear",
    "long_horizon_position",
    "linear_value_function",
    "linear_optimal_strategy",
]

# Relative omega size below which the analytic gamma=0 limit is used.
OMEGA_SWITCH = 1e-8

# Gauss-Legendre nodes in log(2k + m*tau) for h0's time integral
_LOG_A_NODES = 32


@lru_cache(maxsize=16)
def _legendre_nodes(n: int):
    return leggauss(n)


def _gauss_legendre(t0: float, t1: float, n: int):
    x, w = _legendre_nodes(n)
    mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    return mid + half * x, half * w


def _tau_integral(params: ModelParams, g, t):
    """integral_0^{T-t} g(x, A) dx with A = 2k + m*x, vectorised over t;
    the time integral of h0.

    With v = log(A/2k) the span is log1p(m*tau/2k), x = 2k*expm1(v)/m and
    dx = A dv/m (m > 0 is enforced by ModelParams).  At gamma = 0 the h0
    integrand is rational in x with poles only at A = 0, hence entire in v,
    and a fixed Gauss-Legendre rule in v converges geometrically.  At
    gamma > 0 its poles (phi_- e^2 + phi_+ = 0) lie off the interval.
    """
    tau = params.T - np.asarray(t, dtype=float)
    two_k, m = 2.0 * params.k, params.m
    nodes, weights = _legendre_nodes(_LOG_A_NODES)
    half_span = 0.5 * np.log1p(m * tau / two_k)[..., None]
    v = half_span * (1.0 + nodes)
    a = two_k * np.exp(v)
    x = two_k * np.expm1(v) / m
    out = (g(x, a) * a) @ weights * half_span[..., 0] / m
    return out if out.ndim else float(out)


def _h2_limit(params: ModelParams):
    """h2 at gamma = 0 as a function of time-to-go tau, -k*m/(2k + m*tau) - b/2;
    the expansion's f2.  The constants are bound once, so a caller that
    evaluates it at many tau (the RK4 drift oracles) pays only the rational."""
    neg_km, two_k, m, half_b = -params.k * params.m, 2.0 * params.k, params.m, params.b / 2.0
    return lambda tau: neg_km / (two_k + m * tau) - half_b


def _drift_gain_limit(params: ModelParams, zeta, tau):
    """Response of h1 to a constant drift forcing zeta at gamma = 0,
    zeta*tau*(4k + m*tau)/(4k + 2m*tau); the expansion's f1 at zeta = mu."""
    k, m = params.k, params.m
    return zeta * tau * (4.0 * k + m * tau) / (4.0 * k + 2.0 * m * tau)


def _cross_gain_limit(params: ModelParams, tau):
    """Per-unit cross-impact gain of h1 at gamma = 0, -m*tau/(2k + m*tau);
    the expansion's lambda_1 weight."""
    return -params.m * tau / (2.0 * params.k + params.m * tau)


def _constants(params: ModelParams) -> tuple[float, float, float, bool]:
    """(omega, phi_plus, phi_minus, limit): omega = sqrt(k*gamma*sigma^2/2),
    phi_± = omega ± (alpha - b/2), and whether omega is small enough that the
    analytic gamma = 0 limits apply instead of the exponential forms."""
    omega = math.sqrt(params.k * params.gamma * params.sigma**2 / 2.0)
    half_b = params.b / 2.0
    limit = omega < OMEGA_SWITCH * max(1.0, params.m)
    return omega, omega + params.alpha - half_b, omega - params.alpha + half_b, limit


def _riccati(params: ModelParams, t):
    """(drift, per_unit, h2) at an already validated time (float or array),
    with h1(frak_n, t) = drift(t) + per_unit(t) * frak_n.

    h1 is zeta*G(t) + c*frak_n*H(t) with zeta = mu - gamma*rho*sigma*eta*frak_n,
    so it is affine in frak_n; its two parts split the mu forcing from the
    per-unit hedging and cross-impact forcing.  Exponentials are evaluated in
    decayed form (largest factored out), so h1 and h2 stay finite for
    omega*T/k beyond the naive overflow range.
    """
    tau = params.T - t
    hedge = params.gamma * params.rho * params.sigma * params.eta
    omega, phi_plus, phi_minus, limit = _constants(params)
    if limit:
        return (
            _drift_gain_limit(params, params.mu, tau),
            params.c * _cross_gain_limit(params, tau) - _drift_gain_limit(params, hedge, tau),
            _h2_limit(params)(tau),
        )
    k = params.k
    x = omega * tau / k
    e = np.exp(-x)
    e2 = e * e
    # h1's phi_minus*e*e and h2's phi_minus*e2 round differently; each keeps its own
    denom = phi_minus * e * e + phi_plus
    zeta_gain = (k / omega) * -np.expm1(-x) * (phi_minus * e + phi_plus) / denom
    cross_gain = 2.0 * omega * e / denom - 1.0
    return (
        params.mu * zeta_gain,
        params.c * cross_gain - hedge * zeta_gain,
        omega * (phi_minus * e2 - phi_plus) / (phi_minus * e2 + phi_plus) - params.b / 2.0,
    )


def h2(params: ModelParams, t) -> np.ndarray | float:
    """Quadratic-in-inventory coefficient of the certainty-equivalent value.

    At gamma = 0 this is the analytic limit -k*m/(2k + m*(T-t)) - b/2.
    """
    out = _riccati(params, _check_time(params, t))[2]
    return out if np.ndim(out) else float(out)


def h1(params: ModelParams, frak_n, t) -> np.ndarray | float:
    """Linear-in-inventory coefficient; broadcasts over frak_n and t.

    Forced by the risk-adjusted drift zeta = mu - gamma*rho*sigma*eta*frak_n
    and by the cross impact c*frak_n; vanishes at the horizon.
    """
    drift, per_unit, _ = _riccati(params, _check_time(params, t))
    out = drift + per_unit * np.asarray(frak_n, dtype=float)
    return out if np.ndim(out) else float(out)


def h0(params: ModelParams, frak_n: float, t) -> np.ndarray | float:
    """Inventory-independent value component; broadcasts over t and
    vanishes at the horizon.

    The time integral of (h1 + c*frak_n)^2 / (4k) is one fixed Gauss-Legendre
    sum in log(2k + m*tau) (``_tau_integral``, zero at tau = 0); the
    formula's linear part is exact.
    """
    t = _check_time(params, t)
    base = (params.beta * frak_n - 0.5 * params.gamma * params.eta**2 * frak_n**2) * (params.T - t)
    zeta = params.mu - params.gamma * params.rho * params.sigma * params.eta * frak_n
    if zeta == 0.0 and params.c * frak_n == 0.0:
        return base

    def squared_forcing(x, a):
        drift, per_unit, _ = _riccati(params, params.T - x)
        w = drift + per_unit * frak_n + params.c * frak_n
        return w * w

    return base + _tau_integral(params, squared_forcing, t) / (4.0 * params.k)


def _optimal_speed_coeffs(params: ModelParams, t) -> Affine:
    """(a, w, B) with the optimal speed a + w*frak_n + B*q, the HJB
    Hamiltonian's maximiser (h_q + c*h_u + b*q)/(2k) at h_q = h1 + 2*h2*q and
    h_u = frak_n; at an already validated time, broadcasting over an array t."""
    two_k = 2.0 * params.k
    drift, per_unit, h2_t = _riccati(params, t)
    return drift / two_k, (params.c + per_unit) / two_k, (2.0 * h2_t + params.b) / two_k


def optimal_speed_linear(params: ModelParams, frak_n, t, q) -> np.ndarray | float:
    """Optimal trading speed a + w*frak_n + B*q of ``_optimal_speed_coeffs``,
    i.e. (c*frak_n + h1(t) + (2*h2(t) + b)*q) / (2k).

    Affine in inventory with strictly negative slope; broadcasts over
    array-valued frak_n, t and q.
    """
    a, w, b = _optimal_speed_coeffs(params, _check_time(params, t))
    out = a + w * np.asarray(frak_n, dtype=float) + b * np.asarray(q, dtype=float)
    return out if np.ndim(out) else float(out)


def optimal_inventory_linear(params: ModelParams, frak_n: float, q0: float, t) -> np.ndarray | float:
    """Deterministic optimal inventory path started from q0 at time 0.

    For gamma > 0 this is the explicit two-exponential solution written with
    decayed exponentials only; for gamma = 0 the analytic limit integrates
    the affine feedback speed against the rational gain -m/(2k + m*(T-t)).
    """
    t = _check_time(params, t)
    k, m, c = params.k, params.m, params.c
    zeta = params.mu - params.gamma * params.rho * params.sigma * params.eta * frak_n
    omega, phi_plus, phi_minus, limit = _constants(params)
    if limit:
        u_t = 2.0 * k + m * (params.T - t)
        u_0 = 2.0 * k + m * params.T
        j1 = (1.0 / u_t - 1.0 / u_0) / m
        j2 = ((u_0 + 4.0 * k * k / u_0) - (u_t + 4.0 * k * k / u_t)) / (m * m)
        out = (u_t / u_0) * (q0 + c * frak_n * u_0 * j1 + zeta * u_0 * j2 / (4.0 * k))
    else:
        r = omega / k
        decay_2t = math.exp(-2.0 * r * params.T)
        denom = phi_plus + phi_minus * decay_2t
        lead = -zeta * k * m / (4.0 * omega**2) + c * frak_n / 2.0
        sinh_part = (np.exp(-r * (params.T - t)) - np.exp(-r * (params.T + t))) / denom
        ell_ratio = (phi_plus * np.exp(-r * t) + phi_minus * np.exp(-r * (2.0 * params.T - t))) / denom
        out = (
            lead * sinh_part
            - (zeta * k / (2.0 * omega**2)) * (ell_ratio - 1.0)
            + q0 * ell_ratio
        )
    return out if np.ndim(out) else float(out)


def long_horizon_position(params: ModelParams, frak_n: float) -> float:
    """Inventory level approached mid-horizon as T -> infinity (equivalently k -> 0).

    Balances the drift reward mu*q against the instantaneous risk
    gamma*(rho*sigma*eta*frak_n*q + sigma^2*q^2/2).
    """
    if params.gamma <= 0 or params.sigma <= 0:
        raise ValueError("long-horizon position requires gamma > 0 and sigma > 0")
    return (params.mu - params.gamma * params.rho * params.sigma * params.eta * frak_n) / (
        params.gamma * params.sigma**2
    )


def linear_value_function(params: ModelParams, frak_n: float, state: State) -> float:
    """Value -exp(-gamma*(x + q*S + frak_n*U + h(t, q))) of the optimal strategy."""
    if params.gamma <= 0:
        raise ValueError("the exponential-utility value function requires gamma > 0")
    t = _check_time(params, state.t)
    h_val = (
        h0(params, frak_n, t)
        + h1(params, frak_n, t) * state.q
        + h2(params, t) * state.q**2
    )
    return -math.exp(-params.gamma * (state.x + state.q * state.s + frak_n * state.u + h_val))


def linear_optimal_strategy(params: ModelParams, frak_n: float) -> Strategy:
    """Feedback form of the optimal speed for a linear exposure: the affine
    speed (a + w*frak_n, 0, B) of ``_optimal_speed_coeffs``."""

    def coeffs(t) -> Affine:
        a, w, b = _optimal_speed_coeffs(params, _check_time(params, t))
        return a + w * frak_n, 0.0, b

    return Strategy(tag="linear-optimal", coeffs=coeffs)

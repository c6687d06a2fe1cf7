"""First-order expansion of the value function for non-linear exposures.

Cross impact c and risk aversion gamma are jointly scaled by theta; the
certainty-equivalent value admits the expansion

    h = h0 + theta*(c*h1 + gamma*h2) + o(theta^2),

where h0 collects a risk-neutral execution value plus the expected payoff
g(t,U), and the first-order coefficients are quadratic in inventory with
time/factor coefficients lambda_0, lambda_1 (cross impact) and Lambda_0,
Lambda_1, Lambda_2 (risk aversion).  Conditional expectations along the
uncontrolled factor reduce through the delta-martingale property wherever
possible, so lambda_0, lambda_1, Lambda_1 and the drift part of Lambda_0
are deterministic time weights times delta(t,U).  The single non-reducible
term (the squared delta inside Lambda_0) is integrated with Gauss-Hermite
nodes under an outer Gauss-Legendre time rule.

The drift (mu != 0) time integrals -- f0, the lambda_0 weight, the
drift-risk integral D(t) inside Lambda_1 and nu_hat, and the drift part of
Lambda_0 -- have integrands rational in time-to-go tau with poles only at
A = 2k + m*tau = 0.  In log A they are entire, so each is one fixed
Gauss-Legendre sum in log A (``linear._tau_integral``), vectorised over t.

Every strategy shipped here is affine in the payoff delta and in inventory,

    nu(t, q, U) = a(t) + w(t)*delta(t,U) + B(t)*q,

and is held as its scalar time coefficients (a, w, B), evaluated with one
delta call.  ``nu_hat`` is the sum of three triples, nu_0 + theta*(c*nu_1 +
gamma*nu_2); the risk-neutral cross-impact speed is nu_0 plus a pull on
delta; ``nu_prime`` substitutes the payoff delta for the unit count in the
linear-exposure optimal speed, whose h1 is affine in that count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .bachelier import AuxiliaryProcessLaw, PayoffCurve, _hermite_expectation
from .linear import _cross_gain_limit, _drift_gain_limit, _gauss_legendre, _h2_limit
from .linear import _optimal_speed_coeffs, _tau_integral
from .market import Affine, ModelParams, Strategy, _affine_speed, _check_time

__all__ = [
    "ExpansionScale",
    "f_coefficients",
    "lambda0",
    "lambda1",
    "Lambda0",
    "Lambda1",
    "Lambda2",
    "nu_hat",
    "nu_hat_components",
    "nu_prime",
    "risk_neutral_cross_impact_speed",
    "expansion_value",
    "expansion_nu_hat_strategy",
    "delta_substitution_strategy",
    "risk_neutral_cross_impact_strategy",
]

TIME_NODES = 64


@dataclass(frozen=True)
class ExpansionScale:
    """Expansion bookkeeping: theta scales (c, gamma) into the effective pair."""

    theta: float
    effective_c: float
    effective_gamma: float

    def __post_init__(self):
        if not self.theta >= 0:
            raise ValueError(f"theta must be nonnegative, got {self.theta}")

    @classmethod
    def from_params(cls, params: ModelParams, theta: float = 1.0) -> "ExpansionScale":
        return cls(theta=theta, effective_c=theta * params.c, effective_gamma=theta * params.gamma)


def _sum(*triples: Affine) -> Affine:
    return tuple(map(sum, zip(*triples)))


def _f1(params: ModelParams, t):
    """f1, the gamma = 0 limit of the linear h1 drift part (its gain at forcing mu)."""
    return _drift_gain_limit(params, params.mu, params.T - np.asarray(t, dtype=float))


def _f2(params: ModelParams, t):
    """f2, the gamma = 0 limit of the linear h2."""
    return _h2_limit(params, params.T - (t if isinstance(t, float) else np.asarray(t, dtype=float)))


def f_coefficients(params: ModelParams, t: float) -> tuple[float, float, float]:
    """Zero-order value coefficients (f0, f1, f2) at time t.

    f1 and f2 are explicit rationals in time-to-go; f0 integrates f1^2/(4k)
    with the fixed log(2k + m*tau) Gauss-Legendre rule and short-circuits
    to 0 when mu = 0.
    """
    return _f_coefficients(params, _check_time(params, t))


def _f_coefficients(params: ModelParams, t: float) -> tuple[float, float, float]:
    f1 = float(_f1(params, t))
    f2 = float(_f2(params, t))
    if params.mu == 0.0 or t == params.T:
        f0 = 0.0
    else:
        f0 = _tau_integral(params, lambda x, a: _drift_gain_limit(params, params.mu, x) ** 2, t) / (4.0 * params.k)
    return f0, f1, f2


def lambda1(params: ModelParams, payoff: PayoffCurve, t, u) -> np.ndarray | float:
    """Cross-impact coefficient on q: -m*(T-t)/(2k + m*(T-t)) * delta(t,u).

    The defining expectation of the running future delta collapses through
    the delta-martingale property; no sampling is involved.
    """
    t = _check_time(params, t)
    return _affine_speed((0.0, _cross_gain_limit(params, params.T - t), 0.0), payoff.delta, t, 0.0, u)


def _lambda0_weight(params: ModelParams, t: float) -> float:
    """integral_t^T f1(s) / (2k + m(T-s)) ds; zero when mu = 0."""
    if params.mu == 0.0 or t == params.T:
        return 0.0
    return _tau_integral(params, lambda x, a: _drift_gain_limit(params, params.mu, x) / a, t)


def lambda0(params: ModelParams, payoff: PayoffCurve, t: float, u) -> np.ndarray | float:
    """Cross-impact coefficient at q^0: delta(t,u) times a drift-weighted time integral.

    Vanishes when mu = 0 (no drift-induced trading to interact with).
    """
    t = _check_time(params, t)
    return _affine_speed((0.0, _lambda0_weight(params, t), 0.0), payoff.delta, t, 0.0, u)


def _Lambda2_at(params: ModelParams, tau):
    """Lambda2 as a function of time-to-go tau."""
    k, m = params.k, params.m
    return (
        -params.sigma**2
        * tau
        * (12.0 * k * k + 6.0 * k * m * tau + m * m * tau * tau)
        / (6.0 * (2.0 * k + m * tau) ** 2)
    )


def Lambda2(params: ModelParams, t) -> np.ndarray | float:
    """Risk-aversion coefficient on q^2; nonpositive, zero at the horizon."""
    out = _Lambda2_at(params, params.T - _check_time(params, t))
    return out if np.ndim(out) else float(out)


def _drift_risk_integral(params: ModelParams, t):
    """D(t) = [integral_t^T (2k+m(T-s)) f1(s) Lambda2(s) ds] / (k*(2k+m(T-t))),
    vectorised over t."""
    if params.mu == 0.0:
        return 0.0
    num = _tau_integral(params, lambda x, a: a * _drift_gain_limit(params, params.mu, x) * _Lambda2_at(params, x), t)
    return num / (params.k * (2.0 * params.k + params.m * (params.T - t)))


def _lemma_weight(params: ModelParams, t) -> np.ndarray:
    """integral_t^T (2k+m(T-s)) ds / (2k+m(T-t)) = (2k*tau + m*tau^2/2)/(2k+m*tau)."""
    tau = params.T - np.asarray(t, dtype=float)
    k, m = params.k, params.m
    return (2.0 * k * tau + 0.5 * m * tau * tau) / (2.0 * k + m * tau)


def _pull_weight(params: ModelParams, t: float) -> float:
    """Weight of delta(t,u) in Lambda_1: -rho*sigma*eta * lemma-weight(t)."""
    return -params.rho * params.sigma * params.eta * float(_lemma_weight(params, t))


def Lambda1(params: ModelParams, payoff: PayoffCurve, t, u) -> np.ndarray | float:
    """Risk-aversion coefficient on q: drift-risk integral minus the hedging pull.

    The delta-dependent part reduces through the martingale property to
    -rho*sigma*eta * delta(t,u) * lemma-weight(t); the drift part is a
    deterministic time integral (zero when mu = 0).  Sign is indeterminate
    in general.
    """
    t = _check_time(params, t)
    coeffs = (_drift_risk_integral(params, t), _pull_weight(params, t), 0.0)
    return _affine_speed(coeffs, payoff.delta, t, 0.0, u)


def _expected_delta_sq(params: ModelParams, payoff: PayoffCurve, t: float, s: np.ndarray, u: np.ndarray):
    """E[(delta(s, U~_s))^2 | U~_t = u] at each time of the array s, along a
    last axis after u's; not lemma-reducible.

    Uses the payoff's closed form when it carries one (calls, linear), in one
    call over all times; otherwise Gauss-Hermite, adequate for genuinely smooth
    payoffs, one time at a time: delta is called with a float time, and a
    delta that is itself a quadrature keeps its memory to one time's nodes.
    """
    if payoff.delta_sq_expectation is not None:
        return np.asarray(payoff.delta_sq_expectation(t, s, u[..., None]), dtype=float)
    law = AuxiliaryProcessLaw.from_params(params)

    def at(si: float):
        def delta_sq(y):
            d = np.asarray(payoff.delta(si, y), dtype=float)
            return d * d

        return _hermite_expectation(delta_sq, law.transition_mean(t, si, u), law.transition_std(t, si))

    return np.stack([at(si) for si in s.tolist()], axis=-1)


def _Lambda0_drift_weights(params: ModelParams, t: float) -> tuple[float, float]:
    """(a, w) with the drift part of Lambda_0 equal to a + w*delta(t,u).

    The drift part reduces through the martingale property; zero when mu = 0.
    """
    if params.mu == 0.0 or t == params.T:
        return 0.0, 0.0
    s_nodes, s_w = _gauss_legendre(t, params.T, TIME_NODES)
    f1s = _f1(params, s_nodes)
    det = float(np.sum(s_w * f1s * _drift_risk_integral(params, s_nodes)))
    red = float(np.sum(s_w * f1s * _lemma_weight(params, s_nodes))) * params.rho * params.sigma * params.eta
    two_k = 2.0 * params.k
    return det / two_k, -red / two_k


def _Lambda0_variance(params: ModelParams, payoff: PayoffCurve, t: float, u):
    """-eta^2/2 * integral_t^T E[delta(s, U~_s)^2 | U~_t = u] ds by Gauss-Legendre in time."""
    if params.eta == 0.0 or t == params.T:
        return np.zeros_like(u)
    s_nodes, s_w = _gauss_legendre(t, params.T, TIME_NODES)
    return -0.5 * params.eta**2 * (_expected_delta_sq(params, payoff, t, s_nodes, u) @ s_w)


def Lambda0(params: ModelParams, payoff: PayoffCurve, t: float, u) -> np.ndarray | float:
    """Risk-aversion coefficient at q^0 (enters the value, not the strategies).

    The drift part is a time weight times delta(t,u); the squared-delta
    variance cost needs genuine quadrature over the factor transition.
    """
    t = _check_time(params, t)
    u = np.asarray(u, dtype=float)
    out = _Lambda0_variance(params, payoff, t, u)
    if params.mu != 0.0:
        a, w = _Lambda0_drift_weights(params, t)
        out = out + _affine_speed((a, w, 0.0), payoff.delta, t, 0.0, u)
    return out if np.ndim(out) else float(out)


def _nu0(params: ModelParams, t: float) -> Affine:
    """Risk-neutral execution speed without cross impact: (f1 + (2*f2 + b)*q)/(2k)."""
    two_k = 2.0 * params.k
    return float(_f1(params, t)) / two_k, 0.0, (2.0 * float(_f2(params, t)) + params.b) / two_k


def _cross_pull(params: ModelParams, c: float, t: float) -> Affine:
    """c*(delta + lambda_1)/(2k) = c*delta/(2k + m*(T-t))."""
    return 0.0, c / (2.0 * params.k + params.m * (params.T - t)), 0.0


def _nu_hat_terms(params: ModelParams, scale: ExpansionScale, t: float) -> tuple[Affine, Affine, Affine]:
    """(a, w, B) of nu_0, theta*c*nu_1 and theta*gamma*nu_2; the last is
    theta*gamma*(Lambda_1 + 2*Lambda_2*q)/(2k)."""
    two_k = 2.0 * params.k
    gamma = scale.effective_gamma
    return (
        _nu0(params, t),
        _cross_pull(params, scale.effective_c, t),
        (
            gamma * _drift_risk_integral(params, t) / two_k,
            gamma * _pull_weight(params, t) / two_k,
            gamma * float(_Lambda2_at(params, params.T - t)) / params.k,
        ),
    )


def _nu_hat_coeffs(params: ModelParams, scale: ExpansionScale, t: float) -> Affine:
    return _sum(*_nu_hat_terms(params, scale, t))


def _risk_neutral_coeffs(params: ModelParams, t: float) -> Affine:
    return _sum(_nu0(params, t), _cross_pull(params, params.c, t))


def _effective_params(params: ModelParams, scale: ExpansionScale) -> ModelParams:
    return replace(params, c=scale.effective_c, gamma=scale.effective_gamma)


def nu_hat_components(
    params: ModelParams,
    payoff: PayoffCurve,
    scale: ExpansionScale,
    t: float,
    q,
    u,
) -> tuple[np.ndarray | float, np.ndarray | float, np.ndarray | float]:
    """Pieces of the expansion speed: (nu_0, theta*c*nu_1, theta*gamma*nu_2).

    nu_0 is the risk-neutral no-cross-impact execution speed; the c-term
    pushes the factor in the option's favor net of round-trip costs; the
    gamma-term combines the hedging pull with inventory-risk decay.
    """
    t = _check_time(params, t)
    return tuple(_affine_speed(coeffs, payoff.delta, t, q, u) for coeffs in _nu_hat_terms(params, scale, t))


def nu_hat(params: ModelParams, payoff: PayoffCurve, scale: ExpansionScale, t: float, q, u):
    """Expansion trading speed nu_0 + theta*(c*nu_1 + gamma*nu_2); affine in q."""
    t = _check_time(params, t)
    return _affine_speed(_nu_hat_coeffs(params, scale, t), payoff.delta, t, q, u)


def nu_prime(params: ModelParams, payoff: PayoffCurve, scale: ExpansionScale, t: float, q, u):
    """Delta-substitution speed: the linear-case optimal speed with the unit
    count replaced by the payoff delta, at the theta-scaled (c, gamma).

    Exact when the payoff is linear; within o(theta) of ``nu_hat`` otherwise.
    """
    t = _check_time(params, t)
    return _affine_speed(_optimal_speed_coeffs(_effective_params(params, scale), t), payoff.delta, t, q, u)


def risk_neutral_cross_impact_speed(params: ModelParams, payoff: PayoffCurve, t: float, q, u):
    """Reduced gamma=0 speed: nu_0 plus c*delta(t,u)/(2k + m*(T-t)).

    Drives inventory toward (c/m)*delta(t,u) with a gain that stiffens as
    the horizon approaches; equals ``nu_hat`` at gamma=0, theta=1.
    """
    t = _check_time(params, t)
    return _affine_speed(_risk_neutral_coeffs(params, t), payoff.delta, t, q, u)


def expansion_value(
    params: ModelParams,
    payoff: PayoffCurve,
    scale: ExpansionScale,
    t: float,
    q,
    u,
    return_components: bool = False,
):
    """First-order value approximation h0 + theta*(c*h1 + gamma*h2).

    Second-order terms have no explicit solution and are not computed; the
    truncation error is o(theta^2) in the defining PDE.  With
    ``return_components`` the pieces (h0, h1, h2) are returned alongside.
    """
    t = _check_time(params, t)
    q = np.asarray(q, dtype=float)
    u = np.asarray(u, dtype=float)
    f0, f1, f2 = _f_coefficients(params, t)
    delta = np.asarray(payoff.delta(t, u), dtype=float)
    h0_val = f0 + f1 * q + f2 * q * q + np.asarray(payoff.g(t, u), dtype=float)
    h1_val = (_lambda0_weight(params, t) + _cross_gain_limit(params, params.T - t) * q) * delta
    l0_a, l0_w = _Lambda0_drift_weights(params, t)
    h2_val = (
        l0_a
        + l0_w * delta
        + _Lambda0_variance(params, payoff, t, u)
        + (_drift_risk_integral(params, t) + _pull_weight(params, t) * delta) * q
        + _Lambda2_at(params, params.T - t) * q * q
    )
    total = h0_val + scale.effective_c * h1_val + scale.effective_gamma * h2_val
    total = total if np.ndim(total) else float(total)
    if return_components:
        return total, {"h0": h0_val, "h1": h1_val, "h2": h2_val}
    return total


def _strategy(tag: str, params: ModelParams, payoff: PayoffCurve, coeffs_at) -> Strategy:
    """Affine strategy with coefficients coeffs_at(t) at a validated t and the payoff's delta."""
    return Strategy(tag=tag, coeffs=lambda t: coeffs_at(_check_time(params, t)), delta=payoff.delta)


def expansion_nu_hat_strategy(params: ModelParams, payoff: PayoffCurve, scale: ExpansionScale) -> Strategy:
    return _strategy("expansion-nu-hat", params, payoff, partial(_nu_hat_coeffs, params, scale))


def delta_substitution_strategy(params: ModelParams, payoff: PayoffCurve, scale: ExpansionScale) -> Strategy:
    effective = _effective_params(params, scale)
    return _strategy("delta-substitution", params, payoff, partial(_optimal_speed_coeffs, effective))


def risk_neutral_cross_impact_strategy(params: ModelParams, payoff: PayoffCurve) -> Strategy:
    return _strategy("risk-neutral-cross-impact", params, payoff, partial(_risk_neutral_coeffs, params))

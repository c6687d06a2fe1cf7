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
Lambda_0 -- integrate f1 = mu*tau*(4k + m*tau)/(2A) times rationals in
time-to-go tau, with A = 2k + m*tau.  In A each integrand is a polynomial
plus a 1/A^2 term, with no 1/A term, so no logarithm appears and each
integral is an exact rational in tau whose terms share one sign for
tau >= 0 (nothing cancels near the horizon):

    f0               = mu^2*tau^3*(A + 6k) / (48k*A)
    lambda_0 weight  = mu*tau^2 / (2A)
    D(t)             = -mu*sigma^2*tau^3*(A^2 + 6kA + 16k^2) / (48k*A^2)
    int f1*D ds      = -mu^2*sigma^2*tau^5*(64k^2 + 14km*tau + m^2*tau^2) / (480k*A^2)
    int f1*lemma ds  = mu*tau^3*(A + 6k) / (12A)

where lemma = (2k*tau + m*tau^2/2)/A is the time weight of the hedging
pull (``_lemma_weight``).

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
from functools import lru_cache, partial

import numpy as np

from .bachelier import AuxiliaryProcessLaw, PayoffCurve, _hermite_expectation
from .linear import _cross_gain_limit, _drift_gain_limit, _gauss_legendre, _h2_limit, _optimal_speed_coeffs
from .market import Affine, ModelParams, Strategy, _affine_speed, _check_finite, _check_scalar_time, _check_time

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
        _check_finite(self)
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
    return _h2_limit(params)(params.T - (t if isinstance(t, float) else np.asarray(t, dtype=float)))


def f_coefficients(params: ModelParams, t: float) -> tuple[float, float, float]:
    """Zero-order value coefficients (f0, f1, f2) at time t.

    All three are explicit rationals in time-to-go tau; f0, the integral of
    f1^2/(4k), is mu^2*tau^3*(A + 6k)/(48k*A) with A = 2k + m*tau, and 0
    when mu = 0.
    """
    return _f_coefficients(params, _check_scalar_time(params, t))


def _f_coefficients(params: ModelParams, t: float) -> tuple[float, float, float]:
    f1 = float(_f1(params, t))
    f2 = float(_f2(params, t))
    if params.mu == 0.0 or t == params.T:
        f0 = 0.0
    else:
        k, tau = params.k, params.T - t
        a = 2.0 * k + params.m * tau
        f0 = params.mu**2 * tau**3 * (a + 6.0 * k) / (48.0 * k * a)
    return f0, f1, f2


def lambda1(params: ModelParams, payoff: PayoffCurve, t: float, u) -> np.ndarray | float:
    """Cross-impact coefficient on q: -m*(T-t)/(2k + m*(T-t)) * delta(t,u).

    The defining expectation of the running future delta collapses through
    the delta-martingale property; no sampling is involved.
    """
    t = _check_scalar_time(params, t)
    return _affine_speed((0.0, _cross_gain_limit(params, params.T - t), 0.0), payoff.delta, t, 0.0, u)


def _lambda0_weight(params: ModelParams, t: float) -> float:
    """integral_t^T f1(s) / (2k + m(T-s)) ds = mu*tau^2/(2A); zero when mu = 0."""
    if params.mu == 0.0 or t == params.T:
        return 0.0
    tau = params.T - t
    return params.mu * tau * tau / (2.0 * (2.0 * params.k + params.m * tau))


def lambda0(params: ModelParams, payoff: PayoffCurve, t: float, u) -> np.ndarray | float:
    """Cross-impact coefficient at q^0: delta(t,u) times a drift-weighted time integral.

    Vanishes when mu = 0 (no drift-induced trading to interact with).
    """
    t = _check_scalar_time(params, t)
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
    """D(t) = [integral_t^T (2k+m(T-s)) f1(s) Lambda2(s) ds] / (k*(2k+m(T-t)))
    = -mu*sigma^2*tau^3*(A^2 + 6kA + 16k^2)/(48k*A^2), vectorised over t
    (zeros in t's shape when mu = 0; +0.0 for a float t)."""
    if params.mu == 0.0:
        return 0.0 if isinstance(t, float) else np.zeros(np.shape(t))
    k = params.k
    tau = params.T - (t if isinstance(t, float) else np.asarray(t, dtype=float))
    a = 2.0 * k + params.m * tau
    return -params.mu * params.sigma**2 * tau**3 * (a * a + 6.0 * k * a + 16.0 * k * k) / (48.0 * k * a * a)


def _lemma_weight(params: ModelParams, t) -> np.ndarray:
    """integral_t^T (2k+m(T-s)) ds / (2k+m(T-t)) = (2k*tau + m*tau^2/2)/(2k+m*tau)."""
    tau = params.T - np.asarray(t, dtype=float)
    k, m = params.k, params.m
    return (2.0 * k * tau + 0.5 * m * tau * tau) / (2.0 * k + m * tau)


def _pull_weight(params: ModelParams, t: float) -> float:
    """Weight of delta(t,u) in Lambda_1: -rho*sigma*eta * lemma-weight(t)."""
    return -params.rho * params.sigma * params.eta * float(_lemma_weight(params, t))


def Lambda1(params: ModelParams, payoff: PayoffCurve, t: float, u) -> np.ndarray | float:
    """Risk-aversion coefficient on q: drift-risk integral minus the hedging pull.

    The delta-dependent part reduces through the martingale property to
    -rho*sigma*eta * delta(t,u) * lemma-weight(t); the drift part is a
    deterministic time integral (zero when mu = 0).  Sign is indeterminate
    in general.
    """
    t = _check_scalar_time(params, t)
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

    The drift part reduces through the martingale property to
    integral_t^T f1(s) * (D(s) + pull(s)) ds / (2k), whose two parts are
    exact rationals in tau; zero when mu = 0.
    """
    if params.mu == 0.0 or t == params.T:
        return 0.0, 0.0
    k, m, tau = params.k, params.m, params.T - t
    a = 2.0 * k + m * tau
    poly = 64.0 * k * k + 14.0 * k * m * tau + m * m * tau * tau
    det = -((params.mu * params.sigma) ** 2) * tau**5 * poly / (480.0 * k * a * a)
    red = params.mu * tau**3 * (a + 6.0 * k) / (12.0 * a) * params.rho * params.sigma * params.eta
    two_k = 2.0 * k
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
    t = _check_scalar_time(params, t)
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


@lru_cache(maxsize=32)
def _effective_params(params: ModelParams, scale: ExpansionScale) -> ModelParams:
    """params at the theta-scaled (c, gamma), built (and validated) once per
    pair; both are frozen, so the pair is its own cache key."""
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
    t = _check_scalar_time(params, t)
    return tuple(_affine_speed(coeffs, payoff.delta, t, q, u) for coeffs in _nu_hat_terms(params, scale, t))


def nu_hat(params: ModelParams, payoff: PayoffCurve, scale: ExpansionScale, t: float, q, u):
    """Expansion trading speed nu_0 + theta*(c*nu_1 + gamma*nu_2); affine in q."""
    t = _check_scalar_time(params, t)
    return _affine_speed(_nu_hat_coeffs(params, scale, t), payoff.delta, t, q, u)


def nu_prime(params: ModelParams, payoff: PayoffCurve, scale: ExpansionScale, t: float, q, u):
    """Delta-substitution speed: the linear-case optimal speed with the unit
    count replaced by the payoff delta, at the theta-scaled (c, gamma).

    Exact when the payoff is linear; within o(theta) of ``nu_hat`` otherwise.
    """
    t = _check_scalar_time(params, t)
    return _affine_speed(_optimal_speed_coeffs(_effective_params(params, scale), t), payoff.delta, t, q, u)


def risk_neutral_cross_impact_speed(params: ModelParams, payoff: PayoffCurve, t: float, q, u):
    """Reduced gamma=0 speed: nu_0 plus c*delta(t,u)/(2k + m*(T-t)).

    Drives inventory toward (c/m)*delta(t,u) with a gain that stiffens as
    the horizon approaches; equals ``nu_hat`` at gamma=0, theta=1.
    """
    t = _check_scalar_time(params, t)
    return _affine_speed(_risk_neutral_coeffs(params, t), payoff.delta, t, q, u)


def expansion_value(
    params: ModelParams,
    payoff: PayoffCurve,
    scale: ExpansionScale,
    t: float,
    q,
    u,
):
    """First-order value approximation h0 + theta*(c*h1 + gamma*h2).

    Second-order terms have no explicit solution and are not computed; the
    truncation error is o(theta^2) in the defining PDE.  The value is
    ``_value_at_scale`` of the theta-free parts ``_value_parts``, the one
    formula that ``oracles.pde_residual`` also combines, once per theta.
    """
    parts = _value_parts(params, payoff, _check_scalar_time(params, t), q, u)
    total = _value_at_scale(parts, scale)
    return total if np.ndim(total) else float(total)


def _value_parts(params: ModelParams, payoff: PayoffCurve, t: float, q, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h0, h1, h2) at a validated scalar time, elementwise over q and u."""
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
    return h0_val, h1_val, h2_val


def _value_at_scale(parts: tuple[np.ndarray, np.ndarray, np.ndarray], scale: ExpansionScale) -> np.ndarray:
    """h0 + theta*c*h1 + theta*gamma*h2 of the parts ``_value_parts`` returns."""
    h0_val, h1_val, h2_val = parts
    return h0_val + scale.effective_c * h1_val + scale.effective_gamma * h2_val


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

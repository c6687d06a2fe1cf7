"""Conditional-expectation machinery for the uncontrolled factor process.

The auxiliary process U~ is arithmetic Brownian motion dU~ = beta dt + eta dZ
(the factor path stripped of cross impact).  For a payoff psi the expected
payoff surface is g(t, U) = E[psi(U~_T) | U~_t = U]; its U-derivative plays
the role of an option delta and is a martingale along U~.

Calls admit the exact normal-model formulas; generic smooth payoffs are
integrated against the Gaussian transition density with Gauss-Hermite
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import ndtr, owens_t

from .market import BachelierCallExposure, CustomSmoothExposure, Exposure, LinearExposure, ModelParams

__all__ = [
    "AuxiliaryProcessLaw",
    "PayoffCurve",
    "call_value",
    "call_delta",
    "call_payoff_curve",
    "linear_payoff_curve",
    "custom_payoff_curve",
    "payoff_curve_for",
    "generic_g",
    "expected_delta",
    "delta_martingale_check",
]

# Gauss-Hermite nodes of every conditional expectation taken by quadrature
HERMITE_NODES = 128
# Window, in transition standard deviations, of expected_delta's quadrature
_TAIL_SDS = 12.0
# Central-difference step of a custom payoff's delta without a declared derivative
_FD_STEP = 1e-5


@dataclass(frozen=True)
class AuxiliaryProcessLaw:
    """Law of the uncontrolled factor U~ on [0, T]: drift beta, volatility eta."""

    beta: float
    eta: float
    T: float

    @classmethod
    def from_params(cls, params: ModelParams) -> "AuxiliaryProcessLaw":
        return cls(beta=params.beta, eta=params.eta, T=params.T)

    def transition_mean(self, t: float, s: float, u) -> np.ndarray:
        return np.asarray(u, dtype=float) + self.beta * (s - t)

    def transition_std(self, t: float, s: float) -> float:
        if s < t:
            raise ValueError(f"need t <= s, got t={t}, s={s}")
        return self.eta * math.sqrt(s - t)

    def density(self, z, t: float, s: float, u: float) -> np.ndarray:
        """Gaussian transition density of U~_s at z given U~_t = u."""
        sd = self.transition_std(t, s)
        z = np.asarray(z, dtype=float)
        return np.exp(-0.5 * ((z - u - self.beta * (s - t)) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class PayoffCurve:
    """Expected payoff surface g(t,U) with its U-derivative delta(t,U).

    delta_sq_expectation(t, s, u), when present, evaluates
    E[(delta(s, U~_s))^2 | U~_t = u] in closed form, elementwise over an
    array s that broadcasts against u.  Near the horizon the
    squared delta of a barely-regularized call steepens into a step that
    fixed Gaussian quadrature cannot resolve, so closed forms are supplied
    wherever available; without one the expansion falls back to quadrature.
    """

    g: Callable[[float, np.ndarray], np.ndarray]
    delta: Callable[[float, np.ndarray], np.ndarray]
    tag: str = "custom"
    delta_sq_expectation: Callable[[float, float, np.ndarray], np.ndarray] | None = None


def _norm_pdf(z):
    return np.exp(-0.5 * np.asarray(z, dtype=float) ** 2) / math.sqrt(2.0 * math.pi)


def _call_z(params: ModelParams, exposure: BachelierCallExposure, t, u):
    """z and sqrt(ttm); a float t skips numpy for sqrt(ttm), and for z too with a float u."""
    if isinstance(t, float):
        ttm = params.T + exposure.dt_offset - t
        if ttm <= 0:
            raise ValueError("valuation time must not exceed the horizon")
        root = math.sqrt(ttm)
        if isinstance(u, float):
            return (u - exposure.strike) / (params.eta * root) + params.beta * root / params.eta, root
    else:
        ttm = params.T + exposure.dt_offset - np.asarray(t, dtype=float)
        if np.any(ttm <= 0):
            raise ValueError("valuation time must not exceed the horizon")
        root = np.sqrt(ttm)
    z = (np.asarray(u, dtype=float) - exposure.strike) / (params.eta * root) + params.beta * root / params.eta
    return z, root


def call_value(params: ModelParams, exposure: BachelierCallExposure, t, u) -> np.ndarray | float:
    """Exact normal-model call value N*eta*sqrt(ttm)*(z*Phi(z) + phi(z))."""
    z, root = _call_z(params, exposure, t, u)
    out = exposure.n_options * params.eta * root * (z * ndtr(z) + _norm_pdf(z))
    return out if np.ndim(out) else float(out)


def call_delta(params: ModelParams, exposure: BachelierCallExposure, t, u) -> np.ndarray | float:
    """Call delta N*Phi(z); lies in [0, N] and is nondecreasing in u."""
    z, _ = _call_z(params, exposure, t, u)
    out = exposure.n_options * ndtr(z)
    return out if np.ndim(out) else float(out)


def _call_delta_sq_expectation(params: ModelParams, exposure: BachelierCallExposure, t: float, s, u):
    """E[(N*Phi(z(s, U~_s)))^2 | U~_t = u], exact, elementwise over s and u.

    A squared normal CDF of a Gaussian argument is a bivariate normal
    orthant probability with equal thresholds, which reduces to Owen's T:
    Phi2(h, h; rho) = Phi(h) - 2*T(h, sqrt((1-rho)/(1+rho))).
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < t):
        raise ValueError(f"need t <= s, got t={t}, s={s}")
    root_s = np.sqrt(params.T + exposure.dt_offset - s)
    sig_s = params.eta * root_s
    sd = params.eta * np.sqrt(s - t)
    u = np.asarray(u, dtype=float)
    a = (u + params.beta * (s - t) - exposure.strike) / sig_s + params.beta * root_s / params.eta
    b = sd / sig_s
    h = a / np.sqrt(1.0 + b * b)
    phi2 = ndtr(h) - 2.0 * owens_t(h, 1.0 / np.sqrt(1.0 + 2.0 * b * b))
    return exposure.n_options**2 * phi2


def call_payoff_curve(params: ModelParams, exposure: BachelierCallExposure) -> PayoffCurve:
    """Closed-form payoff curve for a regularized call on the factor."""
    return PayoffCurve(
        g=lambda t, u: call_value(params, exposure, t, u),
        delta=lambda t, u: call_delta(params, exposure, t, u),
        tag="bachelier-call",
        delta_sq_expectation=lambda t, s, u: _call_delta_sq_expectation(params, exposure, t, s, u),
    )


def linear_payoff_curve(params: ModelParams, frak_n: float) -> PayoffCurve:
    """Payoff curve of the linear exposure: g = frak_n*(u + beta*(T-t)), delta = frak_n."""

    def g(t, u):
        return frak_n * (np.asarray(u, dtype=float) + params.beta * (params.T - t))

    return PayoffCurve(
        g=g,
        delta=lambda t, u: np.full_like(np.asarray(u, dtype=float), frak_n),
        tag="linear",
        delta_sq_expectation=lambda t, s, u: np.full(np.broadcast_shapes(np.shape(s), np.shape(u)), frak_n**2),
    )


@lru_cache(maxsize=1)
def _hermite_nodes():
    # probabilists' Hermite: integrates f against the standard normal weight
    x, w = hermegauss(HERMITE_NODES)
    return x, w / math.sqrt(2.0 * math.pi)


def _hermite_expectation(fn: Callable[[np.ndarray], np.ndarray], mean: np.ndarray, sd: float):
    """E[fn(mean + sd*Z)] for standard normal Z, elementwise over ``mean``, by
    the HERMITE_NODES-point Gauss-Hermite rule (fn(mean) itself when sd = 0).

    A non-finite value of fn at a node raises ValueError.
    """
    if sd == 0.0:
        return fn(mean)
    x, w = _hermite_nodes()
    fv = fn(mean[..., None] + sd * x)
    if not np.all(np.isfinite(fv)):
        raise ValueError("payoff returned a non-finite value at a quadrature node")
    return fv @ w


def generic_g(
    law: AuxiliaryProcessLaw,
    payoff: CustomSmoothExposure | Callable[[np.ndarray], np.ndarray],
    t: float,
    u,
) -> np.ndarray | float:
    """Expected payoff E[psi(U~_T) | U~_t = u] by Gauss-Hermite quadrature.

    The integrand is psi evaluated at mean + std * node; for payoffs with
    bounded fourth derivative the HERMITE_NODES nodes reach well below 1e-8.
    """
    fn = payoff.payoff if isinstance(payoff, CustomSmoothExposure) else payoff
    u = np.asarray(u, dtype=float)
    if t > law.T:
        raise ValueError(f"time {t} exceeds horizon {law.T}")
    vals = _hermite_expectation(fn, law.transition_mean(t, law.T, u), law.transition_std(t, law.T))
    return vals if np.ndim(vals) else float(vals)


def custom_payoff_curve(law: AuxiliaryProcessLaw, exposure: CustomSmoothExposure) -> PayoffCurve:
    """Payoff curve for a caller-supplied smooth payoff.

    delta uses the declared derivative when present (the conditional
    expectation of psi' equals the U-derivative of g); otherwise central
    finite differences of g.
    """

    def g(t, u):
        return generic_g(law, exposure, t, u)

    if exposure.payoff_derivative is not None:
        dpsi = exposure.payoff_derivative

        def delta(t, u):
            return generic_g(law, dpsi, t, u)

    else:

        def delta(t, u):
            un = np.asarray(u, dtype=float)
            return (g(t, un + _FD_STEP) - g(t, un - _FD_STEP)) / (2.0 * _FD_STEP)

    return PayoffCurve(g=g, delta=delta, tag="custom")


def payoff_curve_for(params: ModelParams, exposure: Exposure) -> PayoffCurve:
    """Payoff curve matching an exposure: closed forms where available."""
    if isinstance(exposure, LinearExposure):
        return linear_payoff_curve(params, exposure.frak_n)
    if isinstance(exposure, BachelierCallExposure):
        return call_payoff_curve(params, exposure)
    if isinstance(exposure, CustomSmoothExposure):
        return custom_payoff_curve(AuxiliaryProcessLaw.from_params(params), exposure)
    raise TypeError(f"unknown exposure type: {type(exposure).__name__}")


def expected_delta(
    law: AuxiliaryProcessLaw,
    payoff: PayoffCurve,
    t: float,
    s: float,
    u: float,
) -> float:
    """E[delta(s, U~_s) | U~_t = u] by adaptive quadrature against the
    transition density.

    Adaptive subdivision resolves the sharpening delta profile near the
    horizon, where fixed Gaussian rules lose accuracy; the integration window
    of +-12 transition standard deviations leaves a negligible tail for any
    bounded delta, which is called with a float u.  ``quad`` is imported at
    the call, so that importing the package does not load ``scipy.integrate``.
    """
    if s < t:
        raise ValueError(f"need t <= s, got t={t}, s={s}")
    sd = law.transition_std(t, s)
    if sd == 0.0:
        return float(payoff.delta(s, np.asarray(u, dtype=float)))
    mean = float(law.transition_mean(t, s, u))
    norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))

    def integrand(y: float) -> float:
        w = norm * math.exp(-0.5 * ((y - mean) / sd) ** 2)
        return w * float(payoff.delta(s, y))

    from scipy.integrate import quad

    val, _ = quad(integrand, mean - _TAIL_SDS * sd, mean + _TAIL_SDS * sd,
                  epsabs=1e-11, epsrel=1e-11, limit=500)
    return val


def delta_martingale_check(
    law: AuxiliaryProcessLaw,
    payoff: PayoffCurve,
    t: float,
    s: float,
    u: float,
) -> float:
    """Residual E[delta(s, U~_s) | U~_t = u] - delta(t, u); zero for a martingale."""
    if not t <= s <= law.T:
        raise ValueError(f"need t <= s <= T, got t={t}, s={s}, T={law.T}")
    if s == t:
        return 0.0
    return expected_delta(law, payoff, t, s, u) - float(payoff.delta(t, np.asarray(u, dtype=float)))

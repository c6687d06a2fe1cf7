"""End-to-end verification suite: every closed form against an independent oracle.

Each check returns a CheckResult with measured values; the suite aggregates
them into a schema-validated JSON report.  Scales are chosen so the full
suite finishes in a few minutes on commodity hardware; the acceptance tests
reuse the same checks at their stated scales.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from . import __version__ as ARTIFACT_VERSION
from .bachelier import AuxiliaryProcessLaw, call_delta, call_payoff_curve, call_value, delta_martingale_check
from .config import DEFAULT_SEED, PRESETS, _build_exposure, _validate_document
from .expansion import (
    ExpansionScale,
    Lambda0,
    Lambda1,
    Lambda2,
    expansion_nu_hat_strategy,
    f_coefficients,
    lambda0,
    lambda1,
    nu_hat_components,
    risk_neutral_cross_impact_strategy,
)
from .linear import h0, h1, h2, linear_optimal_strategy, optimal_inventory_linear, optimal_speed_linear
from .market import (
    RNG_LAYOUT,
    LinearExposure,
    ModelParams,
    State,
    Strategy,
    constant_strategy,
    make_rng,
    simulate_path,
    utility_of,
)
from .oracles import (
    DenseOdeSolution,
    _SPEED_GRID_HI,
    _SPEED_GRID_LO,
    _SPEED_GRID_STEP,
    _expected_deltas,
    _mc_samples,
    _mean_and_se,
    default_probe_grid,
    hjb_residual_at,
    mc_performance,
    mc_strategy_gap,
    nested_quadrature,
    pde_residual,
    riccati_h_system,
    rk4_backward,
    simulate_ensemble,
    speed_argmax_on_grid,
    theta_sweep,
)

__all__ = ["CheckResult", "VerifyReport", "run_verification", "FIG1", "FIG3", "FIG7"]

FIG1 = ModelParams(**PRESETS["fig1_right"]["model"])
FIG3 = ModelParams(**PRESETS["fig3"]["model"])
FIG7 = ModelParams(**PRESETS["fig7"]["model"])
CALL_100 = _build_exposure(PRESETS["fig7"]["exposure"])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    seconds: float
    measured: dict
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name:32s} ({self.seconds:6.2f}s)  {self.detail}"


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    checks: list[CheckResult]
    seed: int
    wall_clock_seconds: float

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "artifact_version": ARTIFACT_VERSION,
            "rng_layout": RNG_LAYOUT,
            "seed": self.seed,
            "wall_clock_seconds": self.wall_clock_seconds,
            "checks": [asdict(c) for c in self.checks],
        }

    def validated_json(self) -> dict:
        doc = self.to_json()
        _validate_document(doc, "verify_report.schema.json")
        return doc


def _plain(value):
    """Coerce numpy scalars/containers to JSON-serializable Python types."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


def _timed(name: str, fn: Callable[[], tuple[bool, dict, str]]) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, measured, detail = fn()
    except Exception as err:  # a crashed check is a failed check with its reason
        return CheckResult(name, False, time.perf_counter() - start, {}, f"raised {type(err).__name__}: {err}")
    return CheckResult(name, bool(passed), time.perf_counter() - start, _plain(measured), detail)


def random_well_posed_params(rng: np.random.Generator) -> ModelParams:
    """Draw a parameter set satisfying the well-posedness constraint, in a
    range where 1e4 RK4 steps resolve the Riccati transition comfortably."""
    alpha = rng.uniform(0.05, 0.3)
    return ModelParams(
        mu=rng.uniform(-0.2, 0.2),
        sigma=rng.uniform(0.5, 1.5),
        beta=rng.uniform(-0.1, 0.1),
        eta=rng.uniform(0.5, 1.5),
        rho=rng.uniform(-0.8, 0.8),
        b=rng.uniform(0.0, 0.05),
        c=rng.uniform(-5e-3, 5e-3),
        k=rng.uniform(5e-3, 5e-2),
        gamma=rng.uniform(0.1, 2.0),
        alpha=alpha,
        T=rng.uniform(0.5, 2.0),
    )


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def riccati_vs_rk4(
    seed: int = 0,
    n_random: int = 20,
    step_count: int = 10_000,
    tol: float = 1e-8,
    h1_fn: Callable = h1,
    h2_fn: Callable = h2,
) -> tuple[bool, dict, str]:
    """Closed-form h0, h1, h2 against RK4 backward integration of the coupled
    terminal-value system, on figure parameters plus randomized sets (with
    drift: mu, beta and c nonzero).  h1 and h2 are compared at 401 times per
    set; the scalar h0 at every 10th of them, t = T included.

    h1_fn/h2_fn are injectable so fault-injection tests can corrupt them.
    """
    rng = make_rng(seed, 900)
    cases = [(FIG1, 1.0)] + [(random_well_posed_params(rng), float(rng.uniform(-2, 2))) for _ in range(n_random)]
    sol = rk4_backward(riccati_h_system(*zip(*cases), step_count))
    worst = 0.0
    for j, (params, frak_n) in enumerate(cases):
        ts = np.linspace(0.0, params.T, 401)
        vals = DenseOdeSolution(sol.t_grid[:, j], sol.values[..., j], sol.derivs[..., j])(ts)
        err_h2 = np.max(np.abs(h2_fn(params, ts) - vals[:, 2]))
        err_h1 = np.max(np.abs(h1_fn(params, frak_n, ts) - vals[:, 1]))
        err_h0 = max(abs(h0(params, frak_n, float(t)) - v) for t, v in zip(ts[::10], vals[::10, 0]))
        worst = max(worst, float(err_h0), float(err_h1), float(err_h2))
    return worst < tol, {"sup_error": worst, "cases": len(cases)}, f"sup|closed-RK4| = {worst:.2e} (tol {tol:g})"


def long_horizon_level() -> tuple[bool, dict, str]:
    """Mid-horizon closed-form inventory sits at the long-horizon level -0.5."""
    tol = 0.02
    kappas = np.linspace(0.25, 0.75, 21)
    qs = optimal_inventory_linear(FIG1, 1.0, 0.0, kappas * FIG1.T)
    worst = float(np.max(np.abs(qs + 0.5)))
    return worst < tol, {"max_deviation": worst}, f"max|Q - (-0.5)| = {worst:.4f} on kappa in [0.25, 0.75]"


def inventory_speed_consistency() -> tuple[bool, dict, str]:
    """d/dt of the closed-form inventory equals the feedback speed on it."""
    eps, tol = 1e-6, 1e-6
    worst = 0.0
    for params in (FIG1, FIG3):
        for t in np.linspace(0.05 * params.T, 0.95 * params.T, 25):
            for q0 in (0.0, 0.4):
                qdot = (
                    optimal_inventory_linear(params, 1.0, q0, t + eps)
                    - optimal_inventory_linear(params, 1.0, q0, t - eps)
                ) / (2 * eps)
                speed = optimal_speed_linear(params, 1.0, t, optimal_inventory_linear(params, 1.0, q0, t))
                worst = max(worst, abs(qdot - speed))
    return worst < tol, {"sup_error": worst}, f"sup|dQ/dt - nu*| = {worst:.2e} (tol {tol:g})"


def euler_vs_closed_inventory(seed: int = 7) -> tuple[bool, dict, str]:
    """Euler-simulated inventory under the optimal rule tracks the closed form."""
    strat = linear_optimal_strategy(FIG1, 1.0)
    bundle = simulate_path(FIG1, LinearExposure(1.0), strat, State(0.0, 0.0, 0.0, 10.0, 5.0), 3000, seed)
    q_cf = optimal_inventory_linear(FIG1, 1.0, 0.0, bundle.times)
    err = float(np.max(np.abs(bundle.q_path - q_cf)))
    tol = 10.0 * bundle.dt
    return err < tol, {"sup_error": err, "tol": tol}, f"sup|Q_euler - Q_closed| = {err:.2e} (tol 10*dt = {tol:g})"


def value_function_mc(seed: int = 11, n_paths: int = 30_000, n_steps: int = 1000) -> tuple[bool, dict, str]:
    """Monte Carlo certainty equivalent of the optimal strategy vs the closed
    form x + q*S + frak_n*U + h(0, q)."""
    initial = State(t=0.0, x=0.0, q=0.0, s=10.0, u=5.0)
    strat = linear_optimal_strategy(FIG1, 1.0)
    est = mc_performance(FIG1, LinearExposure(1.0), strat, initial, n_paths, n_steps, seed)
    closed = initial.x + initial.q * initial.s + 1.0 * initial.u + h0(FIG1, 1.0, 0.0)
    z = (est.ce - closed) / est.ce_std_error
    return (
        abs(z) < 3.0,
        {"ce_mc": est.ce, "ce_closed": closed, "z": z, "se": est.ce_std_error, "clamp_events": est.clamp_events},
        f"CE_mc = {est.ce:.5f}, closed = {closed:.5f}, z = {z:+.2f}",
    )


def bachelier_call_mc(seed: int = 13) -> tuple[bool, dict, str]:
    """Closed-form call value against a direct Monte Carlo of the payoff."""
    t, u, n_samples = 0.5, 1.2, 1_000_000
    rng = make_rng(seed, 901)
    sd = FIG3.eta * math.sqrt(FIG3.T + CALL_100.dt_offset - t)
    draws = u + FIG3.beta * (FIG3.T + CALL_100.dt_offset - t) + sd * rng.standard_normal(n_samples)
    payoff = CALL_100.n_options * np.maximum(draws - CALL_100.strike, 0.0)
    mean, se = float(payoff.mean()), float(payoff.std(ddof=1) / math.sqrt(n_samples))
    closed = call_value(FIG3, CALL_100, t, u)
    z = (mean - closed) / se
    return abs(z) < 3.0, {"mc": mean, "closed": closed, "z": z}, f"MC = {mean:.4f}, closed = {closed:.4f}, z = {z:+.2f}"


def call_delta_vs_fd() -> tuple[bool, dict, str]:
    """delta = d(value)/dU by central differences, relative error on a grid."""
    step, tol_rel = 1e-5, 1e-6
    worst = 0.0
    for t in (0.0, 0.5, 0.9):
        for u in np.linspace(0.2, 1.8, 9):
            fd = (call_value(FIG3, CALL_100, t, u + step) - call_value(FIG3, CALL_100, t, u - step)) / (2 * step)
            d = call_delta(FIG3, CALL_100, t, u)
            worst = max(worst, abs(fd - d) / max(abs(d), 1.0))
    return worst < tol_rel, {"rel_error": worst}, f"max rel|FD - delta| = {worst:.2e} (tol {tol_rel:g})"


def delta_martingale(seed: int = 17, n_triples: int = 100, tol: float = 1e-6) -> tuple[bool, dict, str]:
    """Future-delta martingale property at random (t, s, u) triples."""
    rng = make_rng(seed, 902)
    law = AuxiliaryProcessLaw.from_params(FIG3)
    curve = call_payoff_curve(FIG3, CALL_100)
    spread = 3.0 * FIG3.eta * math.sqrt(FIG3.T)
    worst = 0.0
    for _ in range(n_triples):
        t = float(rng.uniform(0.0, FIG3.T))
        s = float(rng.uniform(t, FIG3.T))
        u = float(CALL_100.strike + rng.uniform(-spread, spread))
        worst = max(worst, abs(delta_martingale_check(law, curve, t, s, u)))
    return worst < tol, {"max_residual": worst, "n": n_triples}, f"max residual = {worst:.2e} (tol {tol:g})"


def weighted_integral_property() -> tuple[bool, dict, str]:
    """E[integral f(s)*delta(s,U~_s) ds] = delta(t,u)*integral f(s) ds for
    f = 1 and f(s) = s, by outer Gauss-Legendre and inner adaptive quadrature."""
    tol = 1e-6
    curve = call_payoff_curve(FIG3, CALL_100)
    t, u = 0.25, 1.1
    s_nodes, s_w, e_delta = _expected_deltas(FIG3, curve, t, u)
    d = float(curve.delta(t, np.asarray(u)))
    # the builtin sum adds the nodes in order; np.sum's pairwise order moves the
    # last bits, which are all this residual measures
    worst = float(max(abs(sum(w * e_delta) - d * sum(w)) for w in (s_w, s_w * s_nodes)))
    return worst < tol, {"max_residual": worst}, f"max residual = {worst:.2e} (tol {tol:g})"


def lemma_reduction_equivalence(seed: int = 19, n_points: int = 50) -> tuple[bool, dict, str]:
    """Martingale-reduced lambda_0, lambda_1 and Lambda_1 vs nested quadrature
    of the defining expectations at random (t, u)."""
    tol = 1e-6
    rng = make_rng(seed, 903)
    curve = call_payoff_curve(FIG7, CALL_100)
    spread = 2.0 * FIG7.eta * math.sqrt(FIG7.T)
    worst = 0.0
    for _ in range(n_points):
        t = float(rng.uniform(0.0, 0.98 * FIG7.T))
        u = float(CALL_100.strike + rng.uniform(-spread, spread))
        nested_lam0, nested_lam1, nested_Lam1 = nested_quadrature(FIG7, curve, t, u)
        worst = max(worst, abs(float(lambda0(FIG7, curve, t, u)) - nested_lam0))
        worst = max(worst, abs(float(lambda1(FIG7, curve, t, u)) - nested_lam1))
        worst = max(worst, abs(float(Lambda1(FIG7, curve, t, u)) - nested_Lam1))
    return worst < tol, {"max_error": worst, "n": n_points}, f"max|reduced - nested| = {worst:.2e} (tol {tol:g})"


def terminal_conditions() -> tuple[bool, dict, str]:
    """All expansion coefficients vanish at the horizon; f2(T) = -alpha."""
    tol = 1e-12
    curve = call_payoff_curve(FIG7, CALL_100)
    tT = FIG7.T
    u = np.asarray(1.3)
    f0_, f1_, f2_ = f_coefficients(FIG7, tT)
    vals = {
        "f1": f1_,
        "f0": f0_,
        "f2+alpha": f2_ + FIG7.alpha,
        "lambda0": float(lambda0(FIG7, curve, tT, u)),
        "lambda1": float(lambda1(FIG7, curve, tT, u)),
        "Lambda0": float(Lambda0(FIG7, curve, tT, u)),
        "Lambda1": float(Lambda1(FIG7, curve, tT, u)),
        "Lambda2": float(Lambda2(FIG7, tT)),
        "h1_linear": float(h1(FIG1, 1.0, FIG1.T)),
        "h2_linear+alpha": float(h2(FIG1, FIG1.T)) + FIG1.alpha,
    }
    worst = max(abs(v) for v in vals.values())
    return worst < tol, {"max_abs": worst}, f"max terminal magnitude = {worst:.2e} (tol {tol:g})"


def pde_residual_linear_exact() -> tuple[bool, dict, str]:
    """The exact linear-case value solves the HJB: residual is FD noise only."""
    frak_n, tol = 1.0, 1e-6

    def h_exact(t, q, u):
        return h0(FIG1, frak_n, t) + h1(FIG1, frak_n, t) * q + h2(FIG1, t) * q * q + frak_n * u

    q, u = np.meshgrid([-1.0, 0.0, 0.7], [4.0, 5.0, 6.0], indexing="ij")
    worst = max(
        float(np.max(np.abs(hjb_residual_at(FIG1, h_exact, FIG1.c, FIG1.gamma, t, q, u)))) for t in (0.3, 1.5, 2.7)
    )
    return worst < tol, {"sup_residual": worst}, f"sup|residual| = {worst:.2e} (tol {tol:g})"


def pde_residual_order(
    thetas: tuple[float, ...] = (0.2, 0.1, 0.05), window: tuple[float, float] = (3.3, 4.8)
) -> tuple[bool, dict, str]:
    """First-order truncation: halving theta divides the HJB residual by ~4,
    on FIG7 and on FIG7 with drift (mu = 0.1, beta = 0.05)."""
    measured = {"thetas": list(map(float, thetas))}
    details = []
    ok = True
    cases = (("", "fig7", FIG7), ("drift_", "fig7 mu=0.1 beta=0.05", replace(FIG7, mu=0.1, beta=0.05)))
    for prefix, label, params in cases:
        curve = call_payoff_curve(params, CALL_100)
        grid = default_probe_grid(params, CALL_100.strike)
        rep = pde_residual(params, curve, ExpansionScale.from_params(params, thetas[0]), grid, thetas=list(thetas))
        ok = ok and all(window[0] <= r <= window[1] for r in rep.ratios)
        measured[prefix + "norms"] = rep.residual_norms
        measured[prefix + "ratios"] = rep.ratios
        details.append(f"{label}: ratios = {[f'{r:.2f}' for r in rep.ratios]}")
    return ok, measured, f"{'; '.join(details)} (window [{window[0]}, {window[1]}])"


def strategy_gap_order(
    seed: int = 23, n_paths: int = 30_000, n_steps: int = 500, factor: float = 4.0
) -> tuple[bool, dict, str]:
    """CE gap between the expansion and delta-substitution strategies under
    common random numbers shrinks by >= factor when theta halves, unless either
    gap is inside 3 SE (``theta_sweep``'s ``noise_bounded``; reported as such)."""
    initial = State(t=0.0, x=0.0, q=0.0, s=10.0, u=CALL_100.strike)
    rows = theta_sweep(FIG7, CALL_100, (0.2, 0.1), n_paths, seed, n_steps=n_steps, initial=initial)
    (g02, s02), (g01, s01) = ((r["gap"], r["gap_se"]) for r in rows)
    measured = {"gap_0.2": g02, "se_0.2": s02, "gap_0.1": g01, "se_0.1": s01}
    for r in rows:
        for tag in ("nu_hat", "nu_prime"):
            measured[f"clamp_events_{tag}_{r['theta']}"] = r[f"clamp_events_{tag}"]
    if any(r["noise_bounded"] for r in rows):
        return True, {**measured, "outcome": "noise-bounded"}, (
            f"noise-bounded: gap(0.2) = {g02:.2e} (3se {3 * s02:.2e}), "
            f"gap(0.1) = {g01:.2e} (3se {3 * s01:.2e})"
        )
    ratio = abs(g02) / abs(g01)
    ratio_upper = (abs(g02) + 3 * s02) / max(abs(g01) - 3 * s01, 1e-300)
    ok = ratio >= factor or ratio_upper >= factor
    return ok, {**measured, "outcome": "measured", "ratio": ratio}, (
        f"measured ratio = {ratio:.2f} (3-sigma upper {ratio_upper:.2f}, need >= {factor})"
    )


def cross_impact_target(
    seed: int = DEFAULT_SEED,
    itm_window: tuple[float, float] = (1.0, 1.22),
    otm_tol: float = 0.05,
) -> tuple[bool, dict, str]:
    """Deep in-the-money paths park inventory near (c/m)*N; deep out-of-the-
    money paths liquidate.

    One ensemble of 500 independent paths of 2000 steps under the
    risk-neutral cross-impact rule is screened at the horizon; the first path with
    U_T - K above 2*eta*sqrt(T) (deep ITM) and the first below minus that
    (deep OTM) are reported by their index in the ensemble."""
    curve = call_payoff_curve(FIG3, CALL_100)
    strat = risk_neutral_cross_impact_strategy(FIG3, curve)
    initial = State(t=0.0, x=0.0, q=0.0, s=10.0, u=CALL_100.strike)
    threshold = 2.0 * FIG3.eta * math.sqrt(FIG3.T)
    ens = simulate_ensemble(FIG3, CALL_100, strat, initial, 500, 2000, seed)
    moneyness = ens["u_T"] - CALL_100.strike
    itm = np.flatnonzero(moneyness > threshold)
    otm = np.flatnonzero(moneyness < -threshold)
    if itm.size == 0 or otm.size == 0:
        return False, {}, "screening failed to find deep ITM/OTM paths"
    itm_path, otm_path = int(itm[0]), int(otm[0])
    itm_q, otm_q = float(ens["q_T"][itm_path]), float(ens["q_T"][otm_path])
    target = FIG3.c / FIG3.m * CALL_100.n_options
    ok = itm_window[0] <= itm_q <= itm_window[1] and abs(otm_q) < otm_tol
    return ok, {
        "itm_path": itm_path,
        "itm_q_T": itm_q,
        "otm_path": otm_path,
        "otm_q_T": otm_q,
        "target": target,
    }, f"ITM Q_T = {itm_q:.3f} (target {target:.3f}), OTM Q_T = {otm_q:.4f}"


def opposing_effects(seed: int = 29, n_paths: int = 10_000, n_steps: int = 500) -> tuple[bool, dict, str]:
    """Cross impact pushes long, risk aversion pushes short; inventory spread
    across paths peaks at interior times."""
    curve = call_payoff_curve(FIG7, CALL_100)
    sc = ExpansionScale.from_params(FIG7, 1.0)
    t_probe = 0.25 * FIG7.T
    _, c_term, gamma_term = nu_hat_components(FIG7, curve, sc, t_probe, 0.0, CALL_100.strike)
    strat = expansion_nu_hat_strategy(FIG7, curve, sc)
    initial = State(t=0.0, x=0.0, q=0.0, s=10.0, u=CALL_100.strike)
    ens = simulate_ensemble(FIG7, CALL_100, strat, initial, n_paths, n_steps, seed, record=("q",))
    stds = ens["q"].std(axis=1)
    t_peak = float(ens["times"][int(np.argmax(stds))])
    interior = 0.2 * FIG7.T < t_peak < 0.8 * FIG7.T
    ok = float(c_term) > 0 and float(gamma_term) < 0 and interior
    return ok, {
        "c_term": float(c_term),
        "gamma_term": float(gamma_term),
        "std_peak_time": t_peak,
        "std_peak": float(np.max(stds)),
    }, f"c-term = {float(c_term):+.3f}, gamma-term = {float(gamma_term):+.3f}, std peak at t = {t_peak:.3f}"


def rk4_convergence_order() -> tuple[bool, dict, str]:
    """Halving the RK4 step divides the Riccati error by ~16 above the
    round-off floor."""
    window = (12.0, 20.0)
    errs = []
    for steps in (200, 400):
        sol = rk4_backward(riccati_h_system(FIG1, 1.0, steps))
        ts = np.linspace(0.0, FIG1.T, 201)
        errs.append(float(np.max(np.abs(h2(FIG1, ts) - sol(ts)[:, 2]))))
    ratio = errs[0] / errs[1]
    ok = window[0] <= ratio <= window[1]
    return ok, {"err_coarse": errs[0], "err_fine": errs[1], "ratio": ratio}, (
        f"error ratio = {ratio:.1f} (window [{window[0]}, {window[1]}])"
    )


def mc_se_scaling(seed: int = 31) -> tuple[bool, dict, str]:
    """Doubling the path count shrinks the standard error by about sqrt(2).

    Each rep simulates 2n paths in chunks of n; its n-path sample is the
    first chunk (the first n columns), so the two standard errors share that
    chunk's noise and their ratio varies far less than that of independent
    runs."""
    reps, n_paths = 40, 1000
    strat = linear_optimal_strategy(FIG3, 1.0)
    initial = State(t=0.0, x=0.0, q=0.0, s=10.0, u=1.0)
    ratios = []
    for rep in range(reps):
        (wealth,), _ = _mc_samples(
            FIG3, LinearExposure(1.0), [strat], initial, 2 * n_paths, 50, seed + 1000 * rep, False, n_paths
        )
        util = utility_of(wealth, 1.0)
        ratios.append(_mean_and_se(util[:, :n_paths])[1] / _mean_and_se(util)[1])
    mean_ratio = float(np.mean(ratios))
    ok = 1.3 <= mean_ratio <= 1.5
    return ok, {"mean_ratio": mean_ratio, "reps": reps}, f"mean SE ratio = {mean_ratio:.3f} (window [1.3, 1.5])"


def crn_self_gap(seed: int = 37) -> tuple[bool, dict, str]:
    """Comparing a strategy to itself under common random numbers is exactly zero."""
    strat = linear_optimal_strategy(FIG1, 1.0)
    initial = State(t=0.0, x=0.0, q=0.0, s=10.0, u=5.0)
    res = mc_strategy_gap(FIG1, LinearExposure(1.0), strat, strat, initial, 2000, 100, seed)
    ok = res.gap == 0.0 and res.gap_se == 0.0
    return ok, {"gap": res.gap}, f"self gap = {res.gap} (exact zero required)"


def hjb_argmax_grid(seed: int = 41) -> tuple[bool, dict, str]:
    """Grid search over speeds recovers the analytic feedback optimum to
    within the oracle's grid step."""
    resolution = _SPEED_GRID_STEP
    rng = make_rng(seed, 904)
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.0, FIG1.T))
        q = float(rng.uniform(-0.75, 0.75))
        winner, analytic = speed_argmax_on_grid(FIG1, 1.0, t, q)
        if not _SPEED_GRID_LO < analytic < _SPEED_GRID_HI:
            continue
        worst = max(worst, abs(winner - analytic))
    ok = worst <= resolution
    return ok, {"max_gap": worst, "resolution": resolution}, f"max|grid - analytic| = {worst:.2e} (res {resolution:g})"


def seed_determinism(seed: int = 43) -> tuple[bool, dict, str]:
    """Identical inputs reproduce bit-identical paths; streams differ."""
    strat = linear_optimal_strategy(FIG1, 1.0)
    initial = State(0.0, 0.0, 0.0, 10.0, 5.0)
    a = simulate_path(FIG1, LinearExposure(1.0), strat, initial, 500, seed)
    b = simulate_path(FIG1, LinearExposure(1.0), strat, initial, 500, seed)
    c = simulate_path(FIG1, LinearExposure(1.0), strat, initial, 500, seed, stream=1)
    same = all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("w_path", "z_path", "s_path", "u_path", "q_path", "x_path", "nu_path")
    )
    differs = not np.array_equal(a.w_path, c.w_path)
    ok = same and differs
    return ok, {"identical": same, "stream_differs": differs}, "bit-identical replay; substreams independent"


def antithetic_symmetry(seed: int = 47) -> tuple[bool, dict, str]:
    """With zero drifts and no trading, negating the shocks negates the paths.

    Exact negation is asserted from zero initial levels (measuring deviations
    from a nonzero base costs one rounding in the comparison itself)."""
    params = ModelParams(mu=0.0, sigma=1.0, beta=0.0, eta=1.0, rho=0.3, b=0.0, c=0.0, k=1e-2, gamma=0.0, alpha=0.05, T=1.0)
    strat = constant_strategy(0.0)
    initial = State(0.0, 0.0, 0.0, 0.0, 0.0)
    a = simulate_path(params, LinearExposure(0.0), strat, initial, 300, seed)
    b = simulate_path(params, LinearExposure(0.0), strat, initial, 300, seed, antithetic=True)
    ok = bool(
        np.array_equal(a.s_path - initial.s, -(b.s_path - initial.s))
        and np.array_equal(a.u_path - initial.u, -(b.u_path - initial.u))
        and np.array_equal(a.w_path, -b.w_path)
        and np.array_equal(a.z_path, -b.z_path)
    )
    return ok, {}, "negated shocks exactly negate (S - S0) and (U - U0)"


def market_conservation(seed: int = 53) -> tuple[bool, dict, str]:
    """Cash-flow and inventory bookkeeping identities, and round-trip
    cross-impact neutrality for a speed integrating to zero."""
    strat = linear_optimal_strategy(FIG1, 1.0)
    bundle = simulate_path(FIG1, LinearExposure(1.0), strat, State(0.0, 0.0, 0.0, 10.0, 5.0), 400, seed)
    x = bundle.x_path[0]
    q = bundle.q_path[0]
    for i in range(bundle.n_steps):
        x = x - (bundle.s_path[i] + FIG1.k * bundle.nu_path[i]) * bundle.nu_path[i] * bundle.dt
        q = q + bundle.nu_path[i] * bundle.dt
    cash_ok = x == bundle.x_path[-1]
    inv_ok = q == bundle.q_path[-1]

    params = ModelParams(mu=0.0, sigma=0.7, beta=0.1, eta=1.0, rho=0.4, b=0.0, c=0.3, k=1e-2, gamma=0.0, alpha=0.05, T=1.0)
    n = 256
    round_trip = Strategy(tag="round-trip", coeffs=lambda t: (1.0 if t < params.T / 2 else -1.0, 0.0, 0.0))
    rb = simulate_path(params, LinearExposure(0.0), round_trip, State(0.0, 0.0, 0.0, 10.0, 1.0), n, seed)
    net_q = rb.q_path[-1] - rb.q_path[0]
    resid = rb.u_path[-1] - rb.u_path[0] - params.eta * rb.z_path[-1] - params.beta * params.T - params.c * net_q
    rt_ok = abs(net_q) < 1e-12 and abs(resid) < 1e-12
    ok = cash_ok and inv_ok and rt_ok
    return ok, {"round_trip_residual": float(resid), "net_q": float(net_q)}, (
        f"cash/inventory identities exact; round-trip residual = {resid:.1e}"
    )


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def run_verification(seed: int = DEFAULT_SEED, scale: str = "fast") -> VerifyReport:
    """Run every check; scales: "fast" (default, suite < 5 min) or "full"
    (acceptance-stated path counts)."""
    full = scale == "full"
    mc_paths = 100_000 if full else 30_000
    mc_steps = 3000 if full else 1000
    gap_paths = 100_000 if full else 30_000
    lemma_points = 50 if full else 15

    checks = [
        _timed("riccati-closed-form-vs-rk4", lambda: riccati_vs_rk4(seed)),
        _timed("long-horizon-level", long_horizon_level),
        _timed("inventory-speed-consistency", inventory_speed_consistency),
        _timed("euler-vs-closed-inventory", lambda: euler_vs_closed_inventory(seed)),
        _timed("value-function-mc", lambda: value_function_mc(seed, mc_paths, mc_steps)),
        _timed("bachelier-call-mc", lambda: bachelier_call_mc(seed)),
        _timed("call-delta-vs-fd", call_delta_vs_fd),
        _timed("delta-martingale", lambda: delta_martingale(seed)),
        _timed("lemma-weighted-integral", weighted_integral_property),
        _timed("lemma-reduction-equivalence", lambda: lemma_reduction_equivalence(seed, lemma_points)),
        _timed("terminal-conditions", terminal_conditions),
        _timed("pde-residual-linear-exact", pde_residual_linear_exact),
        _timed("pde-residual-order", pde_residual_order),
        _timed("strategy-gap-order", lambda: strategy_gap_order(seed, gap_paths)),
        _timed("cross-impact-target", lambda: cross_impact_target(seed)),
        _timed("opposing-effects", lambda: opposing_effects(seed)),
        _timed("rk4-convergence-order", rk4_convergence_order),
        _timed("mc-se-scaling", lambda: mc_se_scaling(seed)),
        _timed("crn-self-gap", lambda: crn_self_gap(seed)),
        _timed("hjb-argmax-grid", lambda: hjb_argmax_grid(seed)),
        _timed("seed-determinism", lambda: seed_determinism(seed)),
        _timed("antithetic-symmetry", lambda: antithetic_symmetry(seed)),
        _timed("market-conservation", lambda: market_conservation(seed)),
    ]
    wall = sum(c.seconds for c in checks)
    return VerifyReport(passed=all(c.passed for c in checks), checks=checks, seed=seed, wall_clock_seconds=wall)

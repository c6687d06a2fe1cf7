"""The three benchmark workloads: inputs from a seed, one timed unit of work,
and the output checks against an independent reference.

Each workload builds its inputs in ``setup`` (the work ``setup_s`` times in a
fresh process), runs one unit of work in ``run`` and returns plain numbers,
and judges those numbers in ``check``.  ``run`` is deterministic for given
inputs, so repeated units and the traced pass must reproduce it bit for bit.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import LAYER_MODULES

# Standard-error targets for time_to_se_s = wall_s * (SE / target)^2.
SE_TARGET_GAP = 1e-6
SE_TARGET_LINEAR_CE = 1e-3

RESIDUAL_WINDOW = (3.3, 4.8)
GAP_LIMIT = 1e-3
Z_LIMIT = 4.0
RK4_TOL = 1e-8


class BenchmarkError(RuntimeError):
    """The checkout cannot be benchmarked (e.g. the library source is missing)."""


def import_library(root: Path):
    """Import crosshedge from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "crosshedge" / "__init__.py").is_file():
        raise BenchmarkError(f"no library source at {src / 'crosshedge'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("crosshedge")
    if Path(pkg.__file__).resolve().parent != src / "crosshedge":
        raise BenchmarkError(f"crosshedge imported from {pkg.__file__}, not from {src}")
    for name in LAYER_MODULES:
        importlib.import_module(f"crosshedge.{name}")
    return pkg


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class Sizes:
    """Derived work sizes of one unit, recorded in the provenance block."""

    paths: int = 0
    steps: int = 0
    rules: int = 0
    path_steps: int = 0
    simulated_path_steps: int = 0
    normals: int = 0
    rk4_steps: int = 0
    engine_chunks: int = 0
    extra: dict = field(default_factory=dict)


def _identity(strategy):
    return strategy


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# mc-option-gap
# ---------------------------------------------------------------------------


class McOptionGap:
    name = "mc-option-gap"
    why = "paper's headline CRN CE gap nu_hat vs nu_prime on FIG7 calls; rule evaluation dominates (SE target 1e-6)"
    theta = 0.2
    n_paths = 40_000
    n_steps = 500
    chunk_paths = 20_000

    def setup(self, ch, seed: int) -> dict:
        cfg = ch.config.resolve_config({"preset": "fig7"}, experiment="stats")
        curve = ch.bachelier.payoff_curve_for(cfg.model, cfg.exposure)
        scale = ch.expansion.ExpansionScale.from_params(cfg.model, self.theta)
        return dict(
            params=cfg.model,
            exposure=cfg.exposure,
            initial=cfg.initial,
            scale=scale,
            strategies=(
                ch.expansion.expansion_nu_hat_strategy(cfg.model, curve, scale),
                ch.expansion.delta_substitution_strategy(cfg.model, curve, scale),
            ),
            seed=seed,
        )

    def run(self, ch, inp: dict, wrap=_identity) -> dict:
        a, b = (wrap(s) for s in inp["strategies"])
        res = ch.oracles.mc_strategy_gap(
            inp["params"], inp["exposure"], a, b, inp["initial"], self.n_paths, self.n_steps, inp["seed"],
            gamma=inp["scale"].effective_gamma, chunk_paths=self.chunk_paths,
        )
        return {"ce_nu_hat": res.ce_a, "ce_nu_prime": res.ce_b, "gap": res.gap, "gap_se": res.gap_se}

    def check(self, out: dict) -> list[Check]:
        return [
            Check("finite-ce", _finite(out["ce_nu_hat"], out["ce_nu_prime"]),
                  f"CE = {out['ce_nu_hat']:.9g}, {out['ce_nu_prime']:.9g}"),
            Check("gap-se-positive", out["gap_se"] > 0, f"gap_se = {out['gap_se']:.3e}"),
            Check("gap-small", abs(out["gap"]) <= GAP_LIMIT, f"|gap| = {abs(out['gap']):.3e} (limit {GAP_LIMIT:g})"),
        ]

    def se_ratio(self, out: dict) -> float:
        return out["gap_se"] / SE_TARGET_GAP

    def sizes(self, inp: dict) -> Sizes:
        return Sizes(
            paths=self.n_paths, steps=self.n_steps, rules=2,
            path_steps=self.n_paths * self.n_steps * 2,
            simulated_path_steps=self.n_paths * self.n_steps * 2,
            normals=self.n_paths * self.n_steps,  # antithetic: n/2 pairs x 2 shocks
            engine_chunks=self.n_paths // self.chunk_paths,
        )


# ---------------------------------------------------------------------------
# mc-linear-value
# ---------------------------------------------------------------------------


class McLinearValue:
    name = "mc-linear-value"
    why = "FIG1 linear-optimal CE vs closed form; cheap rule, so Philox draws and engine self time dominate (SE target 1e-3)"
    n_paths = 100_000
    n_steps = 1000
    chunk_paths = 20_000

    def setup(self, ch, seed: int) -> dict:
        # the T = 0.5 panel: at T = 3 the utility is so heavy-tailed that the
        # SE estimate itself moves by +-10% between seeds
        cfg = ch.config.resolve_config({"preset": "fig1_left"}, experiment="stats")
        frak_n = cfg.exposure.frak_n
        init = cfg.initial
        closed = init.x + init.q * init.s + frak_n * init.u + ch.linear.h0(cfg.model, frak_n, init.t)
        return dict(
            params=cfg.model,
            exposure=cfg.exposure,
            initial=init,
            strategy=ch.linear.linear_optimal_strategy(cfg.model, frak_n),
            closed=closed,
            seed=seed,
        )

    def run(self, ch, inp: dict, wrap=_identity) -> dict:
        est = ch.oracles.mc_performance(
            inp["params"], inp["exposure"], wrap(inp["strategy"]), inp["initial"], self.n_paths, self.n_steps,
            inp["seed"], chunk_paths=self.chunk_paths,
        )
        return {"ce": est.ce, "ce_se": est.ce_std_error, "closed": inp["closed"]}

    def check(self, out: dict) -> list[Check]:
        z = (out["ce"] - out["closed"]) / out["ce_se"] if out["ce_se"] > 0 else math.inf
        return [
            Check("ce-vs-closed-form", abs(z) <= Z_LIMIT,
                  f"CE = {out['ce']:.6f}, closed = {out['closed']:.6f}, z = {z:+.2f} (limit {Z_LIMIT:g})"),
        ]

    def se_ratio(self, out: dict) -> float:
        return out["ce_se"] / SE_TARGET_LINEAR_CE

    def sizes(self, inp: dict) -> Sizes:
        return Sizes(
            paths=self.n_paths, steps=self.n_steps, rules=1,
            path_steps=self.n_paths * self.n_steps,
            simulated_path_steps=self.n_paths * self.n_steps,
            normals=self.n_paths * self.n_steps,
            engine_chunks=self.n_paths // self.chunk_paths,
        )


# ---------------------------------------------------------------------------
# drift-surfaces
# ---------------------------------------------------------------------------


class DriftSurfaces:
    name = "drift-surfaces"
    why = "FIG7 with mu, beta != 0: strategy surfaces, HJB residuals and RK4 drift oracles; coefficient quadrature only, no Monte Carlo"
    thetas = (0.2, 0.1, 0.05)
    # A unit of a few seconds, so that a run holds several and its median
    # wall time rides out the machine's second-scale speed swings.
    n_steps = 100  # the time grid the strategies are evaluated on
    n_q = 5
    n_u = 21
    # t = 0.2T, 0.4T of default_probe_grid: every one of the 625 (q, u)
    # choices at these times gives residual ratios inside RESIDUAL_WINDOW
    probe_time_indices = (1, 3)
    rk4_steps = 2_500
    rk4_points = 101

    def setup(self, ch, seed: int) -> dict:
        cfg = ch.config.resolve_config({"preset": "fig7", "model": {"mu": 0.1, "beta": 0.05}}, experiment="stats")
        params = cfg.model
        strike = cfg.exposure.strike
        spread = 2.0 * params.eta * math.sqrt(params.T)
        q, u = np.meshgrid(np.linspace(-2.0, 2.0, self.n_q), strike + np.linspace(-spread, spread, self.n_u),
                           indexing="ij")
        # The seed picks the (q, u) probe at each of two fixed probe times.
        # The times are fixed because the coefficient quadrature's cost
        # depends on t, so a seed-chosen time would change the unit's work.
        grid = ch.oracles.default_probe_grid(params, strike)
        probe_times = sorted({t for t, _, _ in grid})
        rng = np.random.default_rng(seed)
        probes = []
        for i in self.probe_time_indices:
            candidates = [p for p in grid if p[0] == probe_times[i]]
            probes.append(candidates[rng.integers(len(candidates))])
        return dict(
            params=params,
            curve=ch.bachelier.payoff_curve_for(params, cfg.exposure),
            scales=[ch.expansion.ExpansionScale.from_params(params, th) for th in self.thetas],
            times=params.T / self.n_steps * np.arange(self.n_steps),
            q=q.ravel(),
            u=u.ravel(),
            probes=probes,
            rk4_times=np.linspace(0.0, params.T, self.rk4_points),
        )

    def run(self, ch, inp: dict, wrap=_identity) -> dict:
        ex, orc = ch.expansion, ch.oracles
        params, curve = inp["params"], inp["curve"]
        sups = []
        for scale in inp["scales"]:
            sup = 0.0
            for t in inp["times"]:
                diff = ex.nu_hat(params, curve, scale, t, inp["q"], inp["u"]) - ex.nu_prime(
                    params, curve, scale, t, inp["q"], inp["u"])
                sup = max(sup, float(np.max(np.abs(diff))))
            sups.append(sup)
        rep = orc.pde_residual(params, curve, inp["scales"][0], inp["probes"], thetas=list(self.thetas))
        f1_sol = orc.rk4_backward(orc.f1_ode_system(params, self.rk4_steps))
        l2_sol = orc.rk4_backward(orc.Lambda2_ode_system(params, self.rk4_steps))
        ts = inp["rk4_times"]
        f1_err = max(abs(float(f1_sol(t)[0]) - ex.f_coefficients(params, float(t))[1]) for t in ts)
        l2_err = float(np.max(np.abs(l2_sol(ts)[:, 0] - ex.Lambda2(params, ts))))
        return {
            "sup_gap": sups,
            "sup_gap_ratios": [sups[i] / sups[i + 1] for i in range(len(sups) - 1)],
            "residual_norms": rep.residual_norms,
            "residual_ratios": rep.ratios,
            "rk4_f1_err": f1_err,
            "rk4_Lambda2_err": l2_err,
        }

    def check(self, out: dict) -> list[Check]:
        lo, hi = RESIDUAL_WINDOW

        def in_window(ratios):
            return all(lo <= r <= hi for r in ratios)

        fmt = lambda rs: "[" + ", ".join(f"{r:.3f}" for r in rs) + "]"  # noqa: E731
        return [
            Check("strategy-gap-order", in_window(out["sup_gap_ratios"]),
                  f"sup|nu_hat - nu_prime| ratios {fmt(out['sup_gap_ratios'])} (window [{lo}, {hi}])"),
            Check("pde-residual-order", in_window(out["residual_ratios"]),
                  f"HJB residual ratios {fmt(out['residual_ratios'])} (window [{lo}, {hi}])"),
            Check("rk4-f1", out["rk4_f1_err"] < RK4_TOL, f"sup|f1 - RK4| = {out['rk4_f1_err']:.2e} (tol {RK4_TOL:g})"),
            Check("rk4-Lambda2", out["rk4_Lambda2_err"] < RK4_TOL,
                  f"sup|Lambda2 - RK4| = {out['rk4_Lambda2_err']:.2e} (tol {RK4_TOL:g})"),
        ]

    def se_ratio(self, out: dict) -> None:
        return None

    def sizes(self, inp: dict) -> Sizes:
        states = self.n_q * self.n_u
        return Sizes(
            paths=states, steps=self.n_steps, rules=2,
            path_steps=states * self.n_steps * 2 * len(self.thetas),
            rk4_steps=2 * self.rk4_steps,
            extra={"probes": [list(p) for p in inp["probes"]], "thetas": list(self.thetas)},
        )


WORKLOADS = {w.name: w for w in (McOptionGap(), McLinearValue(), DriftSurfaces())}

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines with measured values and timings.
"""

import json
import time

import numpy as np
import pytest

from crosshedge import State, optimal_inventory_linear
from crosshedge.cli import main
from crosshedge.config import DEFAULT_SEED
from crosshedge.verify import (
    CALL_100,
    FIG1,
    cross_impact_target,
    delta_martingale,
    opposing_effects,
    pde_residual_order,
    riccati_vs_rk4,
    strategy_gap_order,
    value_function_mc,
)


def report(number: int, name: str, passed: bool, elapsed: float, limit: float, detail: str):
    status = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"[{status}] criterion {number}: {name} ({elapsed:.1f}s / limit {limit:.0f}s) -- {detail}")
    assert passed, f"criterion {number} failed: {detail}"
    assert elapsed < limit, f"criterion {number} exceeded runtime limit: {elapsed:.1f}s >= {limit:.0f}s"


def test_criterion_1_long_horizon_level():
    start = time.perf_counter()
    kappas = np.linspace(0.25, 0.75, 51)
    qs = np.array([optimal_inventory_linear(FIG1, 1.0, 0.0, k * FIG1.T) for k in kappas])
    worst = float(np.max(np.abs(qs + 0.5)))
    elapsed = time.perf_counter() - start
    report(1, "long-horizon level", worst < 0.02, elapsed, 1.0, f"max|Q - (-0.5)| = {worst:.4f} (tol 0.02)")


def test_criterion_2_riccati_oracle_equivalence():
    start = time.perf_counter()
    ok, measured, detail = riccati_vs_rk4(seed=0, n_random=20)
    elapsed = time.perf_counter() - start
    report(2, "Riccati oracle equivalence", ok, elapsed, 10.0, detail)


def test_criterion_3_value_function_mc():
    start = time.perf_counter()
    # dt = 1e-3 on the T = 3 horizon
    ok, measured, detail = value_function_mc(seed=11, n_paths=100_000, n_steps=3000)
    elapsed = time.perf_counter() - start
    report(3, "value-function Monte Carlo", ok, elapsed, 120.0, detail)


def test_criterion_4_delta_martingale():
    start = time.perf_counter()
    ok, measured, detail = delta_martingale(seed=17)
    elapsed = time.perf_counter() - start
    report(4, "future-delta martingale", ok, elapsed, 5.0, detail)


def test_criterion_5_expansion_residual_order():
    start = time.perf_counter()
    ok, measured, detail = pde_residual_order()
    elapsed = time.perf_counter() - start
    report(5, "expansion residual order", ok, elapsed, 30.0, detail)


def test_criterion_6_strategy_agreement_order():
    start = time.perf_counter()
    ok, measured, detail = strategy_gap_order(seed=23, n_paths=100_000, n_steps=500)
    elapsed = time.perf_counter() - start
    report(6, "strategy agreement order", ok, elapsed, 300.0, detail)


def test_criterion_7_cross_impact_target():
    start = time.perf_counter()
    ok, measured, detail = cross_impact_target(DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    report(7, "cross-impact target inventory", ok, elapsed, 10.0, detail)


def test_criterion_8_opposing_effects():
    start = time.perf_counter()
    ok, measured, detail = opposing_effects(seed=29)
    elapsed = time.perf_counter() - start
    report(8, "opposing effects and interior variance peak", ok, elapsed, 120.0, detail)


def test_criterion_9_full_verify_suite(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "fig3"}))
    start = time.perf_counter()
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")])
    elapsed = time.perf_counter() - start
    doc = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    report(
        9,
        "full verify suite",
        code == 0 and doc["passed"],
        elapsed,
        300.0,
        f"{sum(c['passed'] for c in doc['checks'])}/{len(doc['checks'])} checks passed, exit={code}",
    )

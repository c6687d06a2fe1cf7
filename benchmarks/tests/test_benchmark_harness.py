"""Self-tests of the benchmark harness: deterministic inputs, declared metric
names, output checks that reject corrupted results, and a traced pass that
only observes.

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from conftest import BENCH
from run import end_to_end_metrics, layer_metrics
from tracing import SpanStats, Tracer
from workloads import WORKLOADS, Sizes

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _fingerprint(value):
    """Comparable form of workload inputs: arrays and dataclasses by value,
    callables (strategy rules, payoff functions) by presence only."""
    if isinstance(value, dict):
        return {k: _fingerprint(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fingerprint(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value):
        return {f.name: _fingerprint(getattr(value, f.name)) for f in fields(value)}
    if callable(value):
        return "callable"
    return value


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_for_a_seed(ch, name):
    w = WORKLOADS[name]
    assert _fingerprint(w.setup(ch, 7)) == _fingerprint(w.setup(ch, 7))


def test_seed_changes_the_drift_probe_subset(ch):
    w = WORKLOADS["drift-surfaces"]
    subsets = {tuple(map(tuple, w.setup(ch, seed)["probes"])) for seed in range(5)}
    assert len(subsets) > 1


def test_workloads_match_benchmark_json():
    assert [wl["name"] for wl in DECLARED["workloads"]] == list(WORKLOADS)
    for wl in DECLARED["workloads"]:
        assert wl["why"] == WORKLOADS[wl["name"]].why


def _declared(section):
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def test_end_to_end_metric_names_and_units_are_declared():
    w = WORKLOADS["mc-option-gap"]
    out = {"ce_nu_hat": 1.0, "ce_nu_prime": 1.0, "gap": 0.0, "gap_se": 1e-5}
    metrics = end_to_end_metrics(w, {}, out, [1.0, 1.1], 0.9)
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("end_to_end")


def _gap_inputs(ch):
    cfg = ch.config.resolve_config({"preset": "fig7"}, experiment="stats")
    curve = ch.bachelier.payoff_curve_for(cfg.model, cfg.exposure)
    scale = ch.expansion.ExpansionScale.from_params(cfg.model, 0.2)
    a = ch.expansion.expansion_nu_hat_strategy(cfg.model, curve, scale)
    b = ch.expansion.delta_substitution_strategy(cfg.model, curve, scale)
    return cfg, scale, a, b


def _small_gap(ch, inputs, wrap=lambda s: s):
    cfg, scale, a, b = inputs
    res = ch.oracles.mc_strategy_gap(cfg.model, cfg.exposure, wrap(a), wrap(b), cfg.initial, 200, 20, 5,
                                     gamma=scale.effective_gamma, chunk_paths=100)
    bundle = ch.market.simulate_path(cfg.model, cfg.exposure, wrap(a), cfg.initial, 20, 5)
    return [res.ce_a, res.ce_b, res.gap, res.gap_se, bundle.x_path.tolist()]


def test_traced_pass_only_observes_and_names_are_declared(ch, monkeypatch):
    monkeypatch.setenv("HEDGE_THREADS", "1")
    inputs = _gap_inputs(ch)
    plain = _small_gap(ch, inputs)
    original = ch.oracles.make_rng
    tracer = Tracer(ch)
    with tracer:
        assert ch.oracles.make_rng is not original
        traced = _small_gap(ch, inputs, tracer.wrap_strategy)
    assert ch.oracles.make_rng is original
    assert traced == plain  # bit-identical

    counts = tracer.counts
    assert counts["oracles.engine.path_steps"] == 200 * 20 * 2
    assert counts["market.rng.normals"] == 100 * 2 * 20 + 2 * 20
    assert counts["rule.expansion-nu-hat.path_steps"] == 200 * 20 + 20

    stats = SpanStats(tracer)
    assert stats.calls("oracles.mc_strategy_gap") == 1
    assert 0.0 < stats.self_busy("oracles.mc_strategy_gap") < stats.busy("oracles.mc_strategy_gap")
    metrics = layer_metrics(stats, Sizes(engine_chunks=2), 2, 1.0, 1.5, 1.6)
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("per_layer")
    assert metrics["rule.engine_frac"][0] > 0.0


def test_mc_checks_reject_shifted_results():
    w = WORKLOADS["mc-linear-value"]
    good = {"ce": 5.0, "ce_se": 0.01, "closed": 5.0}
    assert all(c.passed for c in w.check(good))
    assert not all(c.passed for c in w.check({**good, "ce": 5.0 + 10 * 0.01}))

    w = WORKLOADS["mc-option-gap"]
    good = {"ce_nu_hat": 39.0, "ce_nu_prime": 39.0, "gap": -2e-5, "gap_se": 7e-6}
    assert all(c.passed for c in w.check(good))
    assert not all(c.passed for c in w.check({**good, "gap": 2e-3}))
    assert not all(c.passed for c in w.check({**good, "ce_nu_hat": float("nan")}))


def test_drift_check_rejects_a_residual_ratio_of_two():
    w = WORKLOADS["drift-surfaces"]
    good = {"sup_gap_ratios": [3.96, 3.98], "residual_ratios": [4.0, 4.0],
            "rk4_f1_err": 1e-16, "rk4_Lambda2_err": 4e-14}
    assert all(c.passed for c in w.check(good))
    assert not all(c.passed for c in w.check({**good, "residual_ratios": [4.0, 2.0]}))
    assert not all(c.passed for c in w.check({**good, "rk4_f1_err": 1e-6}))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "mc-option-gap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Run one crosshedge benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload mc-option-gap --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up time from fresh processes, then repeated units of work for
``--seconds``.  ``--trace 1`` measures the per-layer metrics: one untraced
unit at the pinned thread count, one at HEDGE_THREADS=1, and one traced unit
at HEDGE_THREADS=1 whose outputs must match both bit for bit.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import provenance  # noqa: E402
from tracing import ENGINE_FUNCS, RULE_TAGS, SpanStats, Tracer  # noqa: E402
from workloads import WORKLOADS, BenchmarkError, Check, import_library  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _canonical(out: dict) -> str:
    """Exact text form of a unit's outputs (floats by repr), for bit-identity checks."""
    return json.dumps(out, sort_keys=True)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_setup_s(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import the library and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
    return statistics.median(times)


def timed_unit(w, ch, inp, *wrap):
    t0 = time.perf_counter()
    out = w.run(ch, inp, *wrap)
    return out, time.perf_counter() - t0


def run_untraced(w, ch, inp, seconds: float):
    """Repeat the unit of work until ``seconds`` have passed; every repeat must
    reproduce the first unit's outputs exactly."""
    walls, checks, first = [], [], None
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        out, wall = timed_unit(w, ch, inp)
        walls.append(wall)
        if first is None:
            first = out
            checks += w.check(out)
        else:
            same = _canonical(out) == _canonical(first)
            checks.append(Check(f"repeat-{len(walls)}-identical", same, "outputs identical to unit 1"))
    return first, walls, checks


def end_to_end_metrics(w, inp, out, walls, setup_s) -> dict:
    wall = statistics.median(walls)
    se_ratio = w.se_ratio(out)
    sizes = w.sizes(inp)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "path_steps_per_s": (sizes.path_steps / wall, "1/s"),
        # a deterministic workload reaches its stated accuracy in one unit
        "time_to_se_s": (wall * se_ratio**2 if se_ratio is not None else wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(w, ch, inp, threads: int, seed: int):
    """Pinned-thread, serial and traced units; per-layer metrics and checks."""
    out_pinned, wall_pinned = timed_unit(w, ch, inp)
    checks = w.check(out_pinned)
    os.environ["HEDGE_THREADS"] = "1"
    try:
        out_serial, wall_serial = timed_unit(w, ch, inp)
        tracer = Tracer(ch)
        with tracer:
            out_traced, wall_traced = timed_unit(w, ch, inp, tracer.wrap_strategy)
    finally:
        os.environ["HEDGE_THREADS"] = str(threads)
    reference = _canonical(out_pinned)
    checks.append(Check("serial-identical", _canonical(out_serial) == reference,
                        "HEDGE_THREADS=1 outputs identical to the pinned-thread unit"))
    checks.append(Check("traced-identical", _canonical(out_traced) == reference,
                        "traced outputs identical to the untraced unit"))

    sizes = w.sizes(inp)
    counts = tracer.counts
    simulated = counts["oracles.engine.path_steps"] + counts["market.simulate_path.steps"]
    for name, got, want in (
        ("normals", counts["market.rng.normals"], sizes.normals),
        ("simulated-path-steps", simulated, sizes.simulated_path_steps),
        ("rk4-steps", counts["oracles.rk4.steps"], sizes.rk4_steps),
    ):
        checks.append(Check(f"count-{name}", got == want, f"traced {int(got)}, declared {want}"))

    meta = {"workload": w.name, "seed": seed, "hedge_threads": 1, "wall_s": wall_traced}
    tracer.save(OUT_DIR / f"trace-{w.name}-seed{seed}", meta)
    metrics = layer_metrics(SpanStats(tracer), sizes, threads, wall_pinned, wall_serial, wall_traced)
    return metrics, checks


def layer_metrics(st: SpanStats, sizes, threads, wall_pinned, wall_serial, wall_traced) -> dict:
    c = st.counts
    rng_busy = st.busy("market.rng")
    normals = c["market.rng.normals"]
    engine_busy = st.busy(ENGINE_FUNCS)
    engine_self = st.self_busy(ENGINE_FUNCS)
    rule_spans = [f"rule.{tag}" for tag in RULE_TAGS]
    m = {
        "market.rng.normals": (normals, "count"),
        "market.rng.busy_s": (rng_busy, "s"),
        "market.rng.ns_per_normal": (_ratio(rng_busy * 1e9, normals), "ns"),
        "market.rng.engine_frac": (_ratio(st.busy_in("market.rng", ENGINE_FUNCS), engine_busy), "ratio"),
    }
    for tag, span in zip(RULE_TAGS, rule_spans):
        busy = st.busy(span)
        m[f"{span}.calls"] = (st.calls(span), "count")
        m[f"{span}.busy_s"] = (busy, "s")
        m[f"{span}.ns_per_path_step"] = (_ratio(busy * 1e9, c[f"{span}.path_steps"]), "ns")
    m["rule.clamped"] = (c["rule.clamped"], "count")
    m["rule.engine_frac"] = (_ratio(st.busy_in(rule_spans, ENGINE_FUNCS), engine_busy), "ratio")

    m["bachelier.call_delta.calls"] = (st.calls("bachelier.call_delta"), "count")
    m["bachelier.call_delta.busy_s"] = (st.busy("bachelier.call_delta"), "s")

    ev = "expansion.expansion_value"
    m[f"{ev}.calls"] = (st.calls(ev), "count")
    m[f"{ev}.ms_per_call"] = (_ratio(st.busy(ev) * 1e3, st.calls(ev)), "ms")
    for name in ("Lambda0", "Lambda1", "lambda0", "f_coefficients"):
        m[f"expansion.{name}.busy_s"] = (st.busy(f"expansion.{name}"), "s")
    for name in ("nu_hat", "nu_prime"):
        span = f"expansion.{name}"
        m[f"{span}.us_per_call"] = (_ratio(st.busy(span) * 1e6, st.calls(span)), "us")
    expansion_busy = st.busy([ev, "expansion.nu_hat", "expansion.nu_prime"])
    m["expansion.wall_frac"] = (_ratio(expansion_busy, wall_traced), "ratio")

    engine_steps = c["oracles.engine.path_steps"]
    m["oracles.engine.self_s"] = (engine_self, "s")
    m["oracles.engine.ns_per_path_step"] = (_ratio(engine_self * 1e9, engine_steps), "ns")
    m["oracles.engine.path_steps"] = (engine_steps, "count")
    # the engine runs one worker per chunk, up to HEDGE_THREADS
    m["oracles.engine.workers"] = (min(threads, sizes.engine_chunks), "count")
    m["oracles.engine.serial_wall_s"] = (wall_serial, "s")
    m["oracles.engine.thread_speedup"] = (wall_serial / wall_pinned, "ratio")

    rk4_steps = c["oracles.rk4.steps"]
    m["oracles.rk4.steps"] = (rk4_steps, "count")
    m["oracles.rk4.ns_per_step"] = (_ratio(st.busy("oracles.rk4_backward") * 1e9, rk4_steps), "ns")
    m["oracles.pde_residual.busy_s"] = (st.busy("oracles.pde_residual"), "s")
    m["trace.overhead_frac"] = ((wall_traced - wall_serial) / wall_serial, "ratio")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    threads = provenance.affinity_cores()
    os.environ["HEDGE_THREADS"] = str(threads)
    w = WORKLOADS[args.workload]
    try:
        ch = import_library(ROOT)
        setup_s = None if args.trace else measure_setup_s(w.name, args.seed)
    except BenchmarkError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    inp = w.setup(ch, args.seed)
    if args.trace:
        metrics, checks = run_traced(w, ch, inp, threads, args.seed)
    else:
        out, walls, checks = run_untraced(w, ch, inp, args.seconds)
        metrics = end_to_end_metrics(w, inp, out, walls, setup_s)
        print(f"units: {len(walls)}; wall_s per unit: " + ", ".join(f"{x:.4f}" for x in walls))

    for chk in checks:
        print(f"[{'PASS' if chk.passed else 'FAIL'}] {chk.name}: {chk.detail}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    failed = sum(not chk.passed for chk in checks)
    print(f"fail_frac = {failed / len(checks):.6g} ratio ({failed} of {len(checks)} checks failed)")
    print("provenance " + json.dumps(provenance.collect(ROOT, args, threads, w.sizes(inp)), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Outside-in tracing of the crosshedge layers.

A ``Tracer`` replaces each public function of the library modules with a
timed wrapper, in every crosshedge module that imported the function, and
restores the originals when the context ends.  Each call records a span
(name, start, end, parent) in flat in-memory arrays; per-layer metrics are
derived from the spans after the traced pass.  Nothing under ``src/`` is
modified: the wrappers only observe.

Spans nest correctly only when the library runs single-threaded, so the
traced pass sets ``HEDGE_THREADS=1``.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYER_MODULES = ("market", "linear", "bachelier", "expansion", "oracles", "config")

# Strategy factories: their returned rules are wrapped as ``rule.<tag>`` spans.
STRATEGY_FACTORIES = (
    "constant_strategy",
    "linear_optimal_strategy",
    "expansion_nu_hat_strategy",
    "delta_substitution_strategy",
    "risk_neutral_cross_impact_strategy",
)

ENGINE_FUNCS = ("oracles.mc_performance", "oracles.mc_strategy_gap", "oracles.simulate_ensemble")
RULE_TAGS = ("expansion-nu-hat", "delta-substitution", "linear-optimal")


class _RngProxy:
    """Delegates to a numpy Generator; times every method call as ``market.rng``
    and counts the normals drawn."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, attr):
        target = getattr(self._gen, attr)
        if not callable(target):
            return target
        tracer = self._tracer
        counts_normals = attr in ("standard_normal", "normal")

        def call(*args, **kwargs):
            idx = tracer.open("market.rng")
            try:
                out = target(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counts_normals:
                tracer.counts["market.rng.normals"] += np.size(out)
            return out

        return call


def _path_steps(bound: inspect.BoundArguments) -> int:
    n = bound.arguments["n_paths"]
    if bound.arguments["antithetic"] and n % 2:
        n += 1  # the engine rounds an odd antithetic count up
    return n * bound.arguments["n_steps"]


# qualname -> (counter, work read from the call's bound arguments)
_WORK_COUNTERS = {
    "oracles.mc_performance": ("oracles.engine.path_steps", _path_steps),
    "oracles.simulate_ensemble": ("oracles.engine.path_steps", _path_steps),
    "oracles.mc_strategy_gap": ("oracles.engine.path_steps", lambda b: 2 * _path_steps(b)),
    "market.simulate_path": ("market.simulate_path.steps", lambda b: b.arguments["n_steps"]),
    "oracles.rk4_backward": ("oracles.rk4.steps", lambda b: b.arguments["spec"].step_count),
}


class Tracer:
    """Span recorder and function patcher for one traced pass."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(self.intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- wrappers -------------------------------------------------------
    def _wrap(self, fn, span: str, on_call=None, on_result=None):
        sig = inspect.signature(fn) if on_call else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_call(bound)
            idx = self.open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            return on_result(out) if on_result else out

        return wrapper

    def wrap_strategy(self, strategy):
        """Copy of a strategy whose rule records ``rule.<tag>`` spans, the
        path-steps it evaluated and the speeds beyond the engine's clamp."""
        rule, tag, counts = strategy.rule, strategy.tag, self.counts
        clamp = self.package.market.DEFAULT_SPEED_CLAMP
        span = f"rule.{tag}"
        steps_key = f"{span}.path_steps"

        def traced_rule(t, q, u):
            idx = self.open(span)
            try:
                out = rule(t, q, u)
            finally:
                self.close(idx)
            counts[steps_key] += np.size(q)
            counts["rule.clamped"] += int(np.count_nonzero(np.abs(out) > clamp))
            return out

        return type(strategy)(tag=tag, rule=traced_rule)

    def _hooks(self, qualname: str):
        """(on_call, on_result) for one wrapped function: work counters read
        from the bound arguments, and proxies wrapped around results."""
        sizer = _WORK_COUNTERS.get(qualname)
        on_call = None
        if sizer:
            counter, size = sizer

            def on_call(bound):
                self.counts[counter] += size(bound)

        if qualname == "market.make_rng":
            return on_call, lambda gen: _RngProxy(gen, self)
        if qualname.split(".")[1] in STRATEGY_FACTORIES:
            return on_call, self.wrap_strategy
        return on_call, None

    def install(self) -> None:
        pkg = self.package
        modules = [pkg] + [getattr(pkg, m) for m in LAYER_MODULES]
        for mod_name in LAYER_MODULES:
            mod = getattr(pkg, mod_name)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qualname = f"{mod_name}.{attr}"
                on_call, on_result = self._hooks(qualname)
                wrapped = self._wrap(fn, qualname, on_call, on_result)
                for target in modules:
                    if getattr(target, attr, None) is fn:
                        self._patched.append((target, attr, fn))
                        setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._patched):
            setattr(target, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis -------------------------------------------------------
    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        return start, end, name, parent

    def save(self, path: Path, meta: dict) -> None:
        """Spans as columns (npz) plus names, counts and run metadata (json)."""
        start, end, name, parent = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path.with_suffix(".npz"), start=start, end=end, name=name, parent=parent)
        doc = {"meta": meta, "names": self.names, "counts": dict(self.counts)}
        path.with_suffix(".json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


class SpanStats:
    """Busy and self times per span name, from a tracer's recorded spans."""

    def __init__(self, tracer: Tracer):
        start, end, name, parent = tracer.arrays()
        self.counts = tracer.counts
        self.dur = end - start
        self.name = name
        self.parent = parent
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur))
        self.self_time = self.dur - child
        self._ids = {n: i for i, n in enumerate(tracer.names)}

    def _mask(self, names) -> np.ndarray:
        wanted = [self._ids[n] for n in ([names] if isinstance(names, str) else names) if n in self._ids]
        return np.isin(self.name, wanted)

    def calls(self, names) -> int:
        return int(np.count_nonzero(self._mask(names)))

    def busy(self, names) -> float:
        """Summed span time; the wrapped functions never nest under themselves."""
        return float(self.dur[self._mask(names)].sum())

    def self_busy(self, names) -> float:
        return float(self.self_time[self._mask(names)].sum())

    def busy_in(self, names, parents) -> float:
        """Time of ``names`` spans that are direct children of ``parents`` spans."""
        has_parent = self.parent >= 0
        in_parent = np.zeros(len(self.dur), dtype=bool)
        in_parent[has_parent] = self._mask(parents)[self.parent[has_parent]]
        return float(self.dur[self._mask(names) & in_parent].sum())

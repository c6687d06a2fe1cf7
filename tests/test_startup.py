"""Import footprint: ``import crosshedge`` and the CLI leave scipy.integrate
(and the scipy.optimize it pulls in) unloaded, and so does h0's fixed rule;
the one adaptive-quadrature path, ``expected_delta``, imports ``quad`` at the
call and keeps its values bit for bit."""

import json
import os
import subprocess
import sys
from pathlib import Path

import crosshedge

SRC = str(Path(crosshedge.__file__).resolve().parent.parent)

PROBE = """
import json, sys
import crosshedge, crosshedge.cli
from crosshedge import AuxiliaryProcessLaw, ModelParams, call_payoff_curve, h0
from crosshedge.bachelier import expected_delta
from crosshedge.config import PRESETS, _build_exposure

heavy = ("scipy.integrate", "scipy.optimize")
loaded_at_import = [m for m in heavy if m in sys.modules]


def model(name, **kw):
    return ModelParams(**{**PRESETS[name]["model"], **kw})


h0(model("fig1_right"), 1.0, 0.0)
h0(model("fig1_left", mu=0.1, beta=0.05), 1.0, 0.2)
h0(model("fig3"), 100.0, 0.0)
integrate_after_h0 = "scipy.integrate" in sys.modules
call = _build_exposure(PRESETS["fig7"]["exposure"])
fig7, fig7_drift = model("fig7"), model("fig7", mu=0.1, beta=0.05)
values = [
    expected_delta(AuxiliaryProcessLaw.from_params(fig7), call_payoff_curve(fig7, call), 0.2, 0.6, 1.1),
    expected_delta(AuxiliaryProcessLaw.from_params(fig7_drift), call_payoff_curve(fig7_drift, call),
                   0.0, 0.9, 0.95),
]
print(json.dumps({"loaded_at_import": loaded_at_import, "integrate_after_h0": integrate_after_h0,
                  "values": [repr(v) for v in values],
                  "integrate_after_calls": "scipy.integrate" in sys.modules}))
"""

# expected_delta (fig7 call, without and with drift), as computed when quad
# was still imported with the package.
PINNED = [
    "54.45100767147515",
    "50.000019947014295",
]


def run_probe() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_leaves_quadrature_unloaded_and_values_unchanged():
    out = run_probe()
    assert out["loaded_at_import"] == []
    assert not out["integrate_after_h0"]
    # the adaptive oracle loads scipy.integrate on first use
    assert out["integrate_after_calls"]
    assert out["values"] == PINNED


# scipy.special is needed only to price calls: importing the package, the CLI
# and the config, and linear-exposure work load no scipy at all; building a
# call curve loads scipy.special and binds its ufuncs in place of the stubs.
LAZY_PROBE = """
import json, sys
import crosshedge, crosshedge.cli, crosshedge.config

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_import = scipy_loaded()

import contextlib, io, tempfile
from dataclasses import replace
import numpy as np
from crosshedge import (LinearExposure, ModelParams, call_payoff_curve, h0, h1, h2, linear_optimal_strategy,
                        mc_performance)
from crosshedge.bachelier import _call_delta_sq_expectation, call_delta, call_value
from crosshedge.cli import main
from crosshedge.config import PRESETS, _build_exposure, resolve_config

cfg = resolve_config({"preset": "fig1_left"}, experiment="linear-path")
h0(cfg.model, 1.0, 0.0), h1(cfg.model, 1.0, 0.2), h2(cfg.model, 0.2)
mc_performance(cfg.model, LinearExposure(1.0), linear_optimal_strategy(cfg.model, 1.0), cfg.initial, 200, 10, seed=1)
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    assert main(["linear-path", "--set", "preset=fig1_left", "--out", out]) == 0
after_linear = scipy_loaded()

fig7 = ModelParams(**PRESETS["fig7"]["model"])
call = _build_exposure(PRESETS["fig7"]["exposure"])
call_payoff_curve(fig7, call)
special_after_curve = "scipy.special" in sys.modules
import scipy.special
from crosshedge import bachelier
bound = bachelier.ndtr is scipy.special.ndtr and bachelier.owens_t is scipy.special.owens_t
values = []
for p in (fig7, replace(fig7, mu=0.1, beta=0.05)):
    values += [repr(call_value(p, call, 0.3, 1.1)), repr(call_delta(p, call, 0.3, 1.1)),
               repr(call_delta(p, call, np.array([0.0, 0.5, 0.9]), 0.95).tolist()),
               repr(_call_delta_sq_expectation(p, call, 0.2, np.array([0.4, 0.8]), 1.05).tolist())]
print(json.dumps({"after_import": after_import, "after_linear": after_linear,
                  "special_after_curve": special_after_curve, "bound": bound, "values": values}))
"""

# call_value, call_delta (float and array t) and the closed-form E[delta^2] on
# fig7 without and with drift, as computed when scipy.special was still
# imported with the package.
CALL_PINNED = [
    "38.616272799238864",
    "54.75690971116295",
    "[48.00612937718596, 47.18142924877135, 43.71866450868895]",
    "[3128.8948861095027, 4074.486505066276]",
    "40.56173795499478",
    "56.40932175354856",
    "[50.00001994701429, 48.58986212207168, 44.34239721624313]",
    "[3315.343624279271, 4256.536112444835]",
]

# The first call priced happens inside the Monte Carlo workers: an affine
# strategy whose delta is call_delta itself, with no call curve built first.
THREADED_PROBE = """
import json, sys, threading
from crosshedge import ModelParams, State, Strategy, mc_performance
from crosshedge.bachelier import call_delta
from crosshedge.config import PRESETS, _build_exposure

fig7 = ModelParams(**PRESETS["fig7"]["model"])
call = _build_exposure(PRESETS["fig7"]["exposure"])
threads = set()

def delta(t, u):
    threads.add(threading.current_thread() is threading.main_thread())
    return call_delta(fig7, call, t, u)

strat = Strategy(tag="call-delta", coeffs=lambda t: (0.0, 0.5, -1.0), delta=delta)
before = "scipy.special" in sys.modules
est = mc_performance(fig7, call, strat, State(0.0, 0.0, 0.0, 10.0, 1.0), 4000, 20, seed=3, chunk_paths=500)
print(json.dumps({"before": before, "after": "scipy.special" in sys.modules,
                  "on_main": sorted(threads), "estimate": repr(est)}))
"""


def run_script(script: str, **env_vars: str) -> dict:
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_scipy_loads_only_for_call_pricing_and_values_unchanged():
    out = run_script(LAZY_PROBE)
    assert out["after_import"] == []
    assert out["after_linear"] == []
    assert out["special_after_curve"]
    # the stubs are gone once loaded: pricing pays no per-call import
    assert out["bound"]
    assert out["values"] == CALL_PINNED


def test_first_call_priced_in_workers_is_thread_safe():
    serial = run_script(THREADED_PROBE, HEDGE_THREADS="1")
    threaded = run_script(THREADED_PROBE, HEDGE_THREADS="2")
    assert not serial["before"] and not threaded["before"]
    assert serial["after"] and threaded["after"]
    assert serial["on_main"] == [True] and threaded["on_main"] == [False]
    assert threaded["estimate"] == serial["estimate"]


# numpy.random is loaded by make_rng at its first call, not at import: a
# process that imports the CLI and builds the mc-linear-value benchmark's
# inputs (fig1_left config, h0 closed form, linear optimum) never loads it.
RANDOM_PROBE = """
import json, sys
import crosshedge, crosshedge.cli
from crosshedge.config import resolve_config
from crosshedge.linear import h0, linear_optimal_strategy

cfg = resolve_config({"preset": "fig1_left"}, experiment="stats")
h0(cfg.model, cfg.exposure.frak_n, cfg.initial.t)
linear_optimal_strategy(cfg.model, cfg.exposure.frak_n)
before = "numpy.random" in sys.modules
crosshedge.make_rng(1, 0)
print(json.dumps({"before": before, "after": "numpy.random" in sys.modules}))
"""


def test_linear_setup_leaves_numpy_random_unloaded():
    out = run_script(RANDOM_PROBE)
    assert out == {"before": False, "after": True}

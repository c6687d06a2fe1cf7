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

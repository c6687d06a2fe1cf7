"""Experiment configuration: JSON ingestion, named presets, validation, manifests."""

from __future__ import annotations

import copy
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Any

import jsonschema

from . import __version__ as ARTIFACT_VERSION
from .market import (
    BachelierCallExposure,
    Exposure,
    LinearExposure,
    ModelParams,
    State,
)

__all__ = [
    "PRESETS",
    "EXPERIMENTS",
    "ExperimentConfig",
    "RunManifest",
    "ConfigError",
    "load_config",
    "resolve_config",
    "apply_overrides",
    "config_hash",
    "load_schema",
]

EXPERIMENTS = ("linear-path", "paths", "distribution", "stats", "verify", "sweep-theta")
# Seed of every run and of the verification suite unless one is given
DEFAULT_SEED = 20260810

# Figure-caption parameter sets.  The captions omit T, S0, U0, x0, q0; the
# horizon for the option studies is set to 1.0 and initial values default to
# S0=10, U0=K=1, x0=q0=0 (results of interest are translation invariant in
# S0 and x0).  Everything lands in the run manifest.
_SIM_BASE = dict(mu=0.0, sigma=1.0, beta=0.0, eta=1.0, rho=0.5, b=1e-2, alpha=0.05)
_CALL = {"type": "bachelier_call", "n_options": 100.0, "strike": 1.0, "dt_offset": 1e-5}

PRESETS: dict[str, dict] = {
    "fig1_left": {
        "model": {**_SIM_BASE, "c": 1e-3, "k": 1e-2, "gamma": 1.0, "T": 0.5},
        "exposure": {"type": "linear", "frak_n": 1.0},
        "strategy": "linear-optimal",
        "initial": {"x": 0.0, "q": 0.0, "s": 10.0, "u": 1.0},
    },
    "fig1_right": {
        "model": {**_SIM_BASE, "c": 1e-3, "k": 1e-2, "gamma": 1.0, "T": 3.0},
        "exposure": {"type": "linear", "frak_n": 1.0},
        "strategy": "linear-optimal",
        "initial": {"x": 0.0, "q": 0.0, "s": 10.0, "u": 1.0},
    },
    "fig3": {
        "model": {**_SIM_BASE, "c": 1e-3, "k": 1e-3, "gamma": 0.0, "T": 1.0},
        "exposure": dict(_CALL),
        "strategy": "risk-neutral-cross-impact",
        "initial": {"x": 0.0, "q": 0.0, "s": 10.0, "u": 1.0},
    },
    "fig5": {
        "model": {**_SIM_BASE, "c": 0.0, "k": 1e-3, "gamma": 1e-3, "T": 1.0},
        "exposure": dict(_CALL),
        "strategy": "delta-substitution",
        "initial": {"x": 0.0, "q": 0.0, "s": 10.0, "u": 1.0},
    },
    "fig7": {
        "model": {**_SIM_BASE, "c": 1e-3, "k": 1e-3, "gamma": 2e-3, "T": 1.0},
        "exposure": dict(_CALL),
        "strategy": "expansion-nu-hat",
        "initial": {"x": 0.0, "q": 0.0, "s": 10.0, "u": 1.0},
    },
}

_GLOBAL_DEFAULTS = {
    "theta": 1.0,
    "n_steps": 1000,
    "seed": DEFAULT_SEED,
    "thetas": [0.2, 0.1, 0.05],
    "output_dir": "hedge-out",
    "constant_speed": 0.0,
}

# paths runs mirror the five-path figures; distribution runs the documented
# M = 10,000 samples
_N_PATHS_DEFAULT = {
    "paths": 5,
    "distribution": 10_000,
    "stats": 10_000,
    "sweep-theta": 100_000,
    "linear-path": 0,
    "verify": 0,
}


class ConfigError(ValueError):
    """Configuration rejected, with a field-path message."""


def load_schema(name: str) -> dict:
    with resources.files("crosshedge.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def _validator(name: str):
    schema = load_schema(name)
    return jsonschema.validators.validator_for(schema)(schema)


def _validate_document(doc: dict, name: str) -> None:
    """Raise the error ``jsonschema.validate`` would raise for ``doc`` against
    the shipped schema ``name``, from a validator built once per schema and
    without re-checking the schema itself (the test suite checks it)."""
    error = jsonschema.exceptions.best_match(_validator(name).iter_errors(doc))
    if error is not None:
        raise error


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-resolved run configuration."""

    experiment: str
    model: ModelParams
    exposure: Exposure
    strategy_tag: str
    theta: float
    n_paths: int
    n_steps: int
    seed: int
    initial: State
    thetas: list[float]
    output_dir: str
    constant_speed: float
    raw: dict = field(repr=False)


@dataclass(frozen=True)
class RunManifest:
    """Provenance record emitted alongside every run's outputs."""

    experiment: str
    config_hash: str
    seed: int
    artifact_version: str
    wall_clock_seconds: float
    outputs: list[str]
    created_unix: float
    resolved_config: dict

    def to_json(self) -> dict:
        return asdict(self)

    def write(self, path: Path) -> None:
        doc = self.to_json()
        _validate_document(doc, "manifest.schema.json")
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _parse_value(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply dot-path overrides like ``model.gamma=0.001`` to a config dict."""
    doc = copy.deepcopy(doc)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form path=value")
        path, _, raw = item.partition("=")
        keys = path.strip().split(".")
        target = doc
        for key in keys[:-1]:
            target = target.setdefault(key, {})
            if not isinstance(target, dict):
                raise ConfigError(f"override path '{path}' crosses a non-object field")
        target[keys[-1]] = _parse_value(raw.strip())
    return doc


def _deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _build_exposure(doc: dict) -> Exposure:
    kind = doc["type"]
    if kind == "linear":
        return LinearExposure(frak_n=float(doc["frak_n"]))
    if kind == "bachelier_call":
        return BachelierCallExposure(
            n_options=float(doc["n_options"]),
            strike=float(doc["strike"]),
            dt_offset=float(doc.get("dt_offset", 1e-5)),
        )
    raise ConfigError(f"exposure.type '{kind}' is not supported")


def resolve_config(doc: dict, experiment: str | None = None) -> ExperimentConfig:
    """Expand preset, fill defaults, validate, and build typed objects.

    Unknown fields are rejected by the JSON schema; semantic constraints
    (2*alpha - b > 0 and friends) are enforced by the parameter constructors
    and reported with their field path.
    """
    doc = copy.deepcopy(doc)
    preset_name = doc.pop("preset", None)
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(f"preset: unknown preset '{preset_name}' (have {sorted(PRESETS)})")
        doc = _deep_merge(PRESETS[preset_name], doc)
    merged = _deep_merge(_GLOBAL_DEFAULTS, doc)

    if experiment is not None:
        conf_exp = merged.get("experiment")
        if conf_exp is not None and conf_exp != experiment:
            raise ConfigError(
                f"experiment: config says '{conf_exp}' but the subcommand is '{experiment}'"
            )
        merged["experiment"] = experiment
    if "experiment" not in merged:
        raise ConfigError("experiment: missing (give a subcommand or set the field)")
    if "n_paths" not in merged:
        merged["n_paths"] = _N_PATHS_DEFAULT[merged["experiment"]]

    try:
        _validate_document(merged, "config.schema.json")
    except jsonschema.ValidationError as err:
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"{path}: {err.message}") from err

    try:
        model = ModelParams(**merged["model"])
    except (TypeError, ValueError) as err:
        raise ConfigError(f"model: {err}") from err
    try:
        exposure = _build_exposure(merged["exposure"])
    except (KeyError, ValueError) as err:
        raise ConfigError(f"exposure: {err}") from err
    init = merged.get("initial", {})
    initial = State(
        t=float(init.get("t", 0.0)),
        x=float(init.get("x", 0.0)),
        q=float(init.get("q", 0.0)),
        s=float(init.get("s", 10.0)),
        u=float(init.get("u", 1.0)),
    )
    if initial.t >= model.T:
        raise ConfigError(f"initial.t: {initial.t} must lie before the horizon model.T = {model.T}")
    return ExperimentConfig(
        experiment=merged["experiment"],
        model=model,
        exposure=exposure,
        strategy_tag=merged["strategy"],
        theta=float(merged["theta"]),
        n_paths=int(merged["n_paths"]),
        n_steps=int(merged["n_steps"]),
        seed=int(merged["seed"]),
        initial=initial,
        thetas=[float(x) for x in merged["thetas"]],
        output_dir=str(merged["output_dir"]),
        constant_speed=float(merged["constant_speed"]),
        raw=merged,
    )


def load_config(
    path: str | Path | None,
    overrides: list[str] | None = None,
    experiment: str | None = None,
    seed: int | None = None,
    output_dir: str | None = None,
) -> ExperimentConfig:
    """Read a JSON config file (or start empty), apply CLI overrides, resolve."""
    if path is None:
        doc: dict = {}
    else:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"config file {path} cannot be read: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    if overrides:
        doc = apply_overrides(doc, overrides)
    if seed is not None:
        doc["seed"] = seed
    if output_dir is not None:
        doc["output_dir"] = output_dir
    return resolve_config(doc, experiment=experiment)


def config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def make_manifest(cfg: ExperimentConfig, outputs: list[str], wall_clock: float) -> RunManifest:
    return RunManifest(
        experiment=cfg.experiment,
        config_hash=config_hash(cfg.raw),
        seed=cfg.seed,
        artifact_version=ARTIFACT_VERSION,
        wall_clock_seconds=wall_clock,
        outputs=outputs,
        created_unix=time.time(),
        resolved_config=cfg.raw,
    )

"""Command-line harness: `hedge <subcommand> --config FILE [--set path=value]...`.

Subcommands reproduce the simulation studies at desk scale (linear-path,
paths, distribution, stats, sweep-theta) and run the verification suite
(verify).  Every run emits CSV/JSON outputs plus a manifest; re-running with
the same config and seed reproduces the CSVs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .bachelier import payoff_curve_for
from .config import (
    ConfigError,
    EXPERIMENTS,
    ExperimentConfig,
    load_config,
    make_manifest,
)
from .expansion import (
    ExpansionScale,
    delta_substitution_strategy,
    expansion_nu_hat_strategy,
    risk_neutral_cross_impact_strategy,
)
from .linear import (
    linear_optimal_strategy,
    long_horizon_position,
    optimal_inventory_linear,
)
from .market import LinearExposure, Strategy, constant_strategy, simulate_path
from .oracles import simulate_ensemble, theta_sweep
from .verify import run_verification

__all__ = ["main", "build_strategy", "run_linear_path", "run_paths", "run_distribution", "run_stats", "run_sweep_theta", "run_verify"]


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_strategy(cfg: ExperimentConfig) -> Strategy:
    """Instantiate the configured feedback rule."""
    params, exposure = cfg.model, cfg.exposure
    tag = cfg.strategy_tag
    if tag == "linear-optimal":
        if not isinstance(exposure, LinearExposure):
            raise ConfigError("strategy: linear-optimal requires a linear exposure")
        return linear_optimal_strategy(params, exposure.frak_n)
    if tag == "constant":
        return constant_strategy(cfg.constant_speed)
    curve = payoff_curve_for(params, exposure)
    scale = ExpansionScale.from_params(params, cfg.theta)
    if tag == "expansion-nu-hat":
        return expansion_nu_hat_strategy(params, curve, scale)
    if tag == "delta-substitution":
        return delta_substitution_strategy(params, curve, scale)
    if tag == "risk-neutral-cross-impact":
        return risk_neutral_cross_impact_strategy(params, curve)
    raise ConfigError(f"strategy: unknown tag '{tag}'")


def run_linear_path(cfg: ExperimentConfig, outdir: Path) -> list[str]:
    """Closed-form optimal inventory vs the no-exposure baseline and the
    long-horizon level, on the time grid."""
    if not isinstance(cfg.exposure, LinearExposure):
        raise ConfigError("exposure: linear-path needs a linear exposure")
    if cfg.initial.t != 0.0:
        raise ConfigError("initial.t: linear-path starts its closed-form inventory at t = 0")
    params = cfg.model
    frak_n = cfg.exposure.frak_n
    q0 = cfg.initial.q
    times = np.linspace(0.0, params.T, cfg.n_steps + 1)
    q_opt = np.asarray(optimal_inventory_linear(params, frak_n, q0, times))
    q_ac = np.asarray(optimal_inventory_linear(params, 0.0, q0, times))
    if params.gamma > 0 and params.sigma > 0:
        q_lh = np.full_like(times, long_horizon_position(params, frak_n))
    else:
        q_lh = np.full_like(times, np.nan)
    rows = zip(times, q_opt, q_ac, q_lh)
    out = outdir / "linear_path.csv"
    _write_csv(out, ["t", "Q_closed_form", "Q_almgren_chriss", "Q_long_horizon"], rows)
    return [out.name]


def run_paths(cfg: ExperimentConfig, outdir: Path) -> list[str]:
    """A handful of simulated paths (t, Q, nu, U per path) plus a summary
    with each path's terminal-factor rank."""
    if cfg.n_paths < 1:
        raise ConfigError("n_paths: paths runs need at least 1 path")
    strategy = build_strategy(cfg)
    n_paths = cfg.n_paths
    bundles = [
        simulate_path(cfg.model, cfg.exposure, strategy, cfg.initial, cfg.n_steps, cfg.seed, stream=i)
        for i in range(n_paths)
    ]
    outputs = []
    for i, b in enumerate(bundles):
        rows = []
        for j in range(b.n_steps + 1):
            nu_cell = _fmt(b.nu_path[j]) if j < b.n_steps else ""
            rows.append((b.times[j], b.q_path[j], nu_cell, b.u_path[j]))
        name = f"path_{i:02d}.csv"
        _write_csv(outdir / name, ["t", "Q", "nu", "U"], rows)
        outputs.append(name)
    u_terminal = np.array([b.u_path[-1] for b in bundles])
    ranks = np.argsort(np.argsort(u_terminal))
    summary_rows = [
        (str(i), str(i), str(int(ranks[i])), bundles[i].u_path[-1], bundles[i].q_path[-1], bundles[i].x_path[-1])
        for i in range(n_paths)
    ]
    _write_csv(
        outdir / "paths_summary.csv",
        ["path_index", "stream", "u_rank", "U_T", "Q_T", "X_T"],
        summary_rows,
    )
    outputs.append("paths_summary.csv")
    return outputs


def run_distribution(cfg: ExperimentConfig, outdir: Path) -> list[str]:
    """Terminal (Q_T, U_T) per path for distributional studies."""
    if cfg.n_paths < 1000:
        raise ConfigError("n_paths: distribution runs need at least 1000 paths")
    strategy = build_strategy(cfg)
    ens = simulate_ensemble(cfg.model, cfg.exposure, strategy, cfg.initial, cfg.n_paths, cfg.n_steps, cfg.seed)
    rows = ((str(i), ens["q_T"][i], ens["u_T"][i]) for i in range(cfg.n_paths))
    out = outdir / "distribution.csv"
    _write_csv(out, ["path_index", "Q_T", "U_T"], rows)
    return [out.name]


def run_stats(cfg: ExperimentConfig, outdir: Path) -> list[str]:
    """Cross-path mean and standard deviation of inventory over time."""
    if cfg.n_paths < 1000:
        raise ConfigError("n_paths: stats runs need at least 1000 paths")
    strategy = build_strategy(cfg)
    ens = simulate_ensemble(
        cfg.model, cfg.exposure, strategy, cfg.initial, cfg.n_paths, cfg.n_steps, cfg.seed, record=("q",)
    )
    means = ens["q"].mean(axis=1)
    stds = ens["q"].std(axis=1)
    out = outdir / "stats.csv"
    _write_csv(out, ["t", "mean_Q", "std_Q"], zip(ens["times"], means, stds))
    return [out.name]


def run_sweep_theta(cfg: ExperimentConfig, outdir: Path) -> list[str]:
    """Certainty-equivalent gap between the two approximate strategies per theta."""
    if cfg.n_paths < 1:
        raise ConfigError("n_paths: sweep-theta runs need at least 1 path")
    rows = theta_sweep(
        cfg.model, cfg.exposure, cfg.thetas, cfg.n_paths, cfg.seed,
        n_steps=cfg.n_steps, initial=cfg.initial,
    )
    table = [
        (
            r["theta"],
            r["ce_nu_hat"],
            r["ce_nu_prime"],
            r["gap"],
            r["gap_se"],
            "" if r["gap_over_theta2"] is None else _fmt(r["gap_over_theta2"]),
            str(bool(r["noise_bounded"])).lower(),
            r["kind"],
        )
        for r in rows
    ]
    out = outdir / "sweep_theta.csv"
    _write_csv(
        out,
        ["theta", "ce_nu_hat", "ce_nu_prime", "gap", "gap_se", "gap_over_theta2", "noise_bounded", "kind"],
        table,
    )
    return [out.name]


def run_verify(cfg: ExperimentConfig, outdir: Path, scale: str = "fast") -> tuple[list[str], bool]:
    """Run the oracle suite, print one line per check, emit the JSON report."""
    report = run_verification(seed=cfg.seed, scale=scale)
    for check in report.checks:
        print(check.line())
    doc = report.validated_json()
    out = outdir / "verify_report.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    status = "all checks passed" if report.passed else "FAILURES present"
    print(f"verify: {status} in {report.wall_clock_seconds:.1f}s -> {out}")
    return [out.name], report.passed


_GNUPLOT_SNIPPETS = {
    "linear-path": (
        'set datafile separator ","\nset key autotitle columnhead\n'
        'plot "linear_path.csv" using 1:2 with lines, "" using 1:3 with lines, "" using 1:4 with lines\n'
    ),
    "stats": (
        'set datafile separator ","\nset key autotitle columnhead\n'
        'plot "stats.csv" using 1:2 with lines, "" using 1:3 with lines\n'
    ),
    "distribution": (
        'set datafile separator ","\nset key autotitle columnhead\n'
        'plot "distribution.csv" using 3:2 with points pointtype 7 pointsize 0.2\n'
    ),
    "paths": (
        'set datafile separator ","\nset key autotitle columnhead\n'
        'plot for [i=0:{last_path}] sprintf("path_%02d.csv", i) using 1:2 with lines\n'
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hedge",
        description="Hedging a non-tradable risk factor under price impact: "
        "closed forms, approximations, simulations, verification.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file (may name a preset)")
        p.add_argument("--set", dest="overrides", action="append", default=[], metavar="PATH=VALUE",
                       help="dot-path config override, e.g. --set model.gamma=0.001")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--gnuplot", action="store_true", help="also emit a gnuplot script")
        if name == "verify":
            p.add_argument("--full", action="store_true", help="acceptance-scale path counts")

    args = parser.parse_args(argv)
    overrides = args.overrides
    if args.config is None:
        # out-of-the-box defaults: the linear study for linear-path,
        # the option study otherwise
        overrides = [f"preset={'fig1_right' if args.experiment == 'linear-path' else 'fig3'}", *overrides]
    try:
        cfg = load_config(
            args.config,
            overrides=overrides,
            experiment=args.experiment,
            seed=args.seed,
            output_dir=args.out,
        )
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    ok = True
    try:
        if cfg.experiment == "linear-path":
            outputs = run_linear_path(cfg, outdir)
        elif cfg.experiment == "paths":
            outputs = run_paths(cfg, outdir)
        elif cfg.experiment == "distribution":
            outputs = run_distribution(cfg, outdir)
        elif cfg.experiment == "stats":
            outputs = run_stats(cfg, outdir)
        elif cfg.experiment == "sweep-theta":
            outputs = run_sweep_theta(cfg, outdir)
        else:
            outputs, ok = run_verify(cfg, outdir, scale="full" if getattr(args, "full", False) else "fast")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    if args.gnuplot and cfg.experiment in _GNUPLOT_SNIPPETS:
        gp = outdir / "plot.gp"
        gp.write_text(_GNUPLOT_SNIPPETS[cfg.experiment].format(last_path=cfg.n_paths - 1))
        outputs.append(gp.name)

    manifest = make_manifest(cfg, outputs, time.perf_counter() - start)
    manifest.write(outdir / "manifest.json")
    print(f"{cfg.experiment}: wrote {', '.join(outputs)} + manifest.json in {outdir}/")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

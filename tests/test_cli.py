import json
import math

import jsonschema
import numpy as np
import pytest
from scipy.stats import spearmanr

import crosshedge.cli as cli_mod
from crosshedge.cli import build_strategy, main
import crosshedge.config as config_mod
from crosshedge.config import (
    DEFAULT_SEED,
    EXPERIMENTS,
    PRESETS,
    ConfigError,
    _validate_document,
    apply_overrides,
    config_hash,
    load_config,
    load_schema,
    resolve_config,
)
from crosshedge.market import State
from crosshedge.verify import riccati_vs_rk4


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfig:
    def test_preset_fidelity(self):
        # figure presets carry exactly the caption parameters
        f1 = PRESETS["fig1_right"]["model"]
        assert (f1["mu"], f1["beta"], f1["sigma"], f1["eta"], f1["rho"]) == (0.0, 0.0, 1.0, 1.0, 0.5)
        assert (f1["b"], f1["c"], f1["k"], f1["gamma"], f1["alpha"]) == (1e-2, 1e-3, 1e-2, 1.0, 0.05)
        f3 = PRESETS["fig3"]
        assert f3["model"]["k"] == 1e-3 and f3["model"]["gamma"] == 0.0
        assert f3["exposure"]["n_options"] == 100.0 and f3["exposure"]["dt_offset"] == 1e-5
        f5 = PRESETS["fig5"]["model"]
        assert f5["c"] == 0.0 and f5["gamma"] == 1e-3
        f7 = PRESETS["fig7"]["model"]
        assert f7["c"] == 1e-3 and f7["gamma"] == 2e-3

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="posterior"):
            resolve_config({"preset": "fig3", "posterior": 1}, experiment="paths")

    def test_unknown_nested_field_rejected(self):
        with pytest.raises(ConfigError, match="model"):
            resolve_config({"preset": "fig3", "model": {"vol_of_vol": 0.1}}, experiment="paths")

    def test_ill_posed_model_named(self):
        with pytest.raises(ConfigError, match="2\\*alpha - b"):
            resolve_config({"preset": "fig3", "model": {"b": 0.2}}, experiment="paths")

    def test_dot_path_overrides(self):
        doc = apply_overrides({"preset": "fig3"}, ["model.gamma=0.001", "n_paths=77"])
        cfg = resolve_config(doc, experiment="distribution")
        assert cfg.model.gamma == 0.001
        assert cfg.n_paths == 77

    def test_experiment_conflict(self):
        with pytest.raises(ConfigError, match="subcommand"):
            resolve_config({"preset": "fig3", "experiment": "stats"}, experiment="paths")

    def test_config_hash_stable(self):
        a = resolve_config({"preset": "fig3"}, experiment="paths")
        b = resolve_config({"preset": "fig3"}, experiment="paths")
        assert config_hash(a.raw) == config_hash(b.raw)

    def test_schemas_are_valid_json_schema(self):
        for name in ("config.schema.json", "manifest.schema.json", "verify_report.schema.json"):
            jsonschema.Draft202012Validator.check_schema(load_schema(name))

    def test_preset_unknown(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            resolve_config({"preset": "fig99"}, experiment="paths")


# Configs the schema rejects (one error, one nested error, four at once)
# and configs rejected by the other checks of resolve_config.
MULTI_ERROR_CONFIG = {"preset": "fig3", "n_steps": 0, "seed": -3, "model": {"k": -1.0, "rho": 2.0}}
BAD_CONFIGS = [
    {"preset": "fig3", "posterior": 1},
    {"preset": "fig3", "model": {"vol_of_vol": 0.1}},
    MULTI_ERROR_CONFIG,
    {"preset": "fig3", "model": {"b": 0.2}},
    {"preset": "fig99"},
]


def _reference_validate(doc, name):
    jsonschema.validate(doc, load_schema(name))


class TestValidationParity:
    """The cached validator raises what jsonschema.validate raises."""

    @pytest.mark.parametrize("doc", BAD_CONFIGS)
    def test_config_error_text_matches_reference(self, doc, monkeypatch):
        with pytest.raises(ConfigError) as cached:
            resolve_config(doc, experiment="paths")
        monkeypatch.setattr(config_mod, "_validate_document", _reference_validate)
        with pytest.raises(ConfigError) as reference:
            resolve_config(doc, experiment="paths")
        assert str(cached.value) == str(reference.value)

    def test_best_match_pinned_among_several_errors(self, monkeypatch):
        seen = []

        def record(doc, name):
            seen.append(doc)
            _validate_document(doc, name)

        monkeypatch.setattr(config_mod, "_validate_document", record)
        with pytest.raises(ConfigError) as err:
            resolve_config(MULTI_ERROR_CONFIG, experiment="paths")
        errors = list(jsonschema.Draft202012Validator(load_schema("config.schema.json")).iter_errors(seen[0]))
        # the first error found is model.rho; best_match prefers the shallower seed error
        assert [list(e.absolute_path) for e in errors] == [["model", "rho"], ["model", "k"], ["n_steps"], ["seed"]]
        assert str(err.value) == "seed: -3 is less than the minimum of 0"

    @pytest.mark.parametrize("name, doc", [
        ("manifest.schema.json", {"experiment": "paths", "seed": -1}),
        ("verify_report.schema.json", {"passed": "yes", "checks": [{"name": 3}]}),
    ])
    def test_artifact_schemas_match_reference(self, name, doc):
        with pytest.raises(jsonschema.ValidationError) as cached:
            _validate_document(doc, name)
        with pytest.raises(jsonschema.ValidationError) as reference:
            _reference_validate(doc, name)
        assert (cached.value.message, list(cached.value.absolute_path)) == (
            reference.value.message, list(reference.value.absolute_path))


class TestRngLayoutInArtifacts:
    """Manifests and verify reports name the RNG layout and validate against their schemas."""

    def test_manifest_carries_layout(self, tmp_path):
        from crosshedge.market import RNG_LAYOUT

        cfg = write_config(tmp_path, {"preset": "fig1_left", "n_steps": 20})
        assert main(["linear-path", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert doc["rng_layout"] == RNG_LAYOUT
        jsonschema.validate(doc, load_schema("manifest.schema.json"))
        del doc["rng_layout"]
        with pytest.raises(jsonschema.ValidationError, match="rng_layout"):
            jsonschema.validate(doc, load_schema("manifest.schema.json"))

    def test_verify_report_carries_layout(self, tmp_path, monkeypatch):
        from crosshedge.market import RNG_LAYOUT
        from crosshedge.verify import CheckResult, VerifyReport

        fake = VerifyReport(passed=True, checks=[CheckResult("x", True, 0.01, {"v": 1.0}, "ok")], seed=3,
                            wall_clock_seconds=0.01)
        monkeypatch.setattr(cli_mod, "run_verification", lambda **kw: fake)
        assert main(["verify", "--config", write_config(tmp_path, {"preset": "fig3"}),
                     "--out", str(tmp_path / "v")]) == 0
        doc = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert doc["rng_layout"] == RNG_LAYOUT
        jsonschema.validate(doc, load_schema("verify_report.schema.json"))
        del doc["rng_layout"]
        with pytest.raises(jsonschema.ValidationError, match="rng_layout"):
            jsonschema.validate(doc, load_schema("verify_report.schema.json"))


class TestLinearPathRun:
    def test_fig1_right_long_horizon_column(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "fig1_right", "n_steps": 300})
        out = tmp_path / "out"
        assert main(["linear-path", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "linear_path.csv").read_text().strip().split("\n")
        assert rows[0] == "t,Q_closed_form,Q_almgren_chriss,Q_long_horizon"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert np.all(data[:, 3] == -0.5)
        mid = data[(data[:, 0] >= 0.75) & (data[:, 0] <= 2.25)]
        assert np.max(np.abs(mid[:, 1] + 0.5)) < 0.02
        # no exposure, no drift: the baseline column is identically zero
        assert np.all(data[:, 2] == 0.0)

    def test_fig1_left_never_reaches_level(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "fig1_left", "n_steps": 200})
        out = tmp_path / "out"
        main(["linear-path", "--config", cfg, "--out", str(out)])
        rows = (out / "linear_path.csv").read_text().strip().split("\n")[1:]
        q = np.array([float(r.split(",")[1]) for r in rows])
        assert q.min() > -0.5

    def test_zero_exposure_flat(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "fig1_right", "exposure": {"type": "linear", "frak_n": 0.0}})
        out = tmp_path / "out"
        main(["linear-path", "--config", cfg, "--out", str(out)])
        rows = (out / "linear_path.csv").read_text().strip().split("\n")[1:]
        q = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(q == 0.0)

    def test_bit_reproducibility(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "fig1_right", "n_steps": 100})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["linear-path", "--config", cfg, "--out", str(out_a)])
        main(["linear-path", "--config", cfg, "--out", str(out_b)])
        assert (out_a / "linear_path.csv").read_bytes() == (out_b / "linear_path.csv").read_bytes()


class TestPathsRun:
    def test_five_paths_with_rank_column(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "fig3", "n_steps": 300})
        out = tmp_path / "out"
        assert main(["paths", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("path_*.csv"))
        assert names == [f"path_{i:02d}.csv" for i in range(5)]
        summary = (out / "paths_summary.csv").read_text().strip().split("\n")
        assert summary[0] == "path_index,stream,u_rank,U_T,Q_T,X_T"
        ranks = sorted(int(r.split(",")[2]) for r in summary[1:])
        assert ranks == [0, 1, 2, 3, 4]

    def test_same_increments_across_presets(self, tmp_path):
        # figs 3/5/7 share the master seed, so the Brownian draws coincide;
        # factor paths differ only through impact feedback
        out3, out5 = tmp_path / "f3", tmp_path / "f5"
        main(["paths", "--config", write_config(tmp_path, {"preset": "fig3", "n_steps": 100}, "c3.json"), "--out", str(out3)])
        main(["paths", "--config", write_config(tmp_path, {"preset": "fig5", "n_steps": 100}, "c5.json"), "--out", str(out5)])
        u3 = [float(r.split(",")[3]) for r in (out3 / "path_00.csv").read_text().strip().split("\n")[1:]]
        u5 = [float(r.split(",")[3]) for r in (out5 / "path_00.csv").read_text().strip().split("\n")[1:]]
        # identical shocks, tiny divergence from the c*nu feedback only
        assert u3[1] != u5[1] or math.isclose(u3[1], u5[1])
        assert max(abs(a - b) for a, b in zip(u3, u5)) < 0.05

    def test_fig5_short_hedge_phase(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "fig5", "n_steps": 500, "seed": 12345})
        out = tmp_path / "out"
        main(["paths", "--config", cfg, "--out", str(out)])
        for i in range(5):
            q = np.array([float(r.split(",")[1]) for r in (out / f"path_{i:02d}.csv").read_text().strip().split("\n")[1:]])
            assert q.min() < 0.0


class TestDistributionRun:
    def test_requires_enough_paths(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "fig3", "n_paths": 10})
        assert main(["distribution", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_fig3_monotone_scatter(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "fig3", "n_paths": 4000, "n_steps": 300})
        out = tmp_path / "out"
        main(["distribution", "--config", cfg, "--out", str(out)])
        rows = (out / "distribution.csv").read_text().strip().split("\n")[1:]
        data = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
        rho = spearmanr(data[:, 0], data[:, 1]).statistic
        assert rho > 0.95

    def test_fig5_concentrated_near_zero(self, tmp_path):
        # risk-aversion case: terminal inventory is mostly unwound (small
        # relative to the mid-horizon short of order -2) and the association
        # with U_T is negative, unlike the cross-impact sigmoid
        cfg = write_config(tmp_path, {"preset": "fig5", "n_paths": 4000, "n_steps": 300})
        out = tmp_path / "out"
        main(["distribution", "--config", cfg, "--out", str(out)])
        rows = (out / "distribution.csv").read_text().strip().split("\n")[1:]
        data = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
        assert abs(np.median(data[:, 0])) < 0.3
        assert spearmanr(data[:, 0], data[:, 1]).statistic < 0.0

    def test_degenerate_without_feedback(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"preset": "fig3", "model": {"c": 0.0}, "n_paths": 1500, "n_steps": 150},
        )
        out = tmp_path / "out"
        main(["distribution", "--config", cfg, "--out", str(out)])
        rows = (out / "distribution.csv").read_text().strip().split("\n")[1:]
        q = np.array([float(r.split(",")[1]) for r in rows])
        assert q.std() < 1e-10


class TestStatsRun:
    def test_degenerate_zero_std(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "fig3", "model": {"c": 0.0}, "n_paths": 1000, "n_steps": 100})
        out = tmp_path / "out"
        main(["stats", "--config", cfg, "--out", str(out)])
        rows = (out / "stats.csv").read_text().strip().split("\n")
        assert rows[0] == "t,mean_Q,std_Q"
        stds = np.array([float(r.split(",")[2]) for r in rows[1:]])
        assert np.all(stds < 1e-10)

    def test_fig7_interior_peak_and_initial_moments(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "fig7", "n_paths": 4000, "n_steps": 250, "initial": {"q": 0.25}})
        out = tmp_path / "out"
        main(["stats", "--config", cfg, "--out", str(out)])
        data = np.array(
            [[float(v) for v in r.split(",")] for r in (out / "stats.csv").read_text().strip().split("\n")[1:]]
        )
        assert data[0, 1] == 0.25  # mean Q at t=0 is exactly q0
        assert data[0, 2] == 0.0
        peak = data[np.argmax(data[:, 2]), 0]
        assert 0.2 < peak < 0.8


class TestManifest:
    def test_manifest_written_and_valid(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "fig1_right", "n_steps": 60})
        out = tmp_path / "out"
        main(["linear-path", "--config", cfg, "--out", str(out), "--gnuplot"])
        doc = json.loads((out / "manifest.json").read_text())
        jsonschema.validate(doc, load_schema("manifest.schema.json"))
        assert doc["outputs"] == ["linear_path.csv", "plot.gp"]
        assert doc["experiment"] == "linear-path"
        assert (out / "plot.gp").exists()

    def test_paths_gnuplot_names_only_written_paths(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "fig3", "n_steps": 20, "n_paths": 3})
        out = tmp_path / "out"
        main(["paths", "--config", cfg, "--out", str(out), "--gnuplot"])
        assert "for [i=0:2]" in (out / "plot.gp").read_text()
        assert sorted(p.name for p in out.glob("path_*.csv")) == ["path_00.csv", "path_01.csv", "path_02.csv"]

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "fig3", "n_steps": 50})
        out = tmp_path / "out"
        main(["paths", "--config", cfg, "--seed", "777", "--out", str(out)])
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["seed"] == 777


class TestVerifyPlumbing:
    def test_fault_injection_breaks_riccati_check(self, monkeypatch):
        import crosshedge.verify as verify_mod

        ok, measured, _ = riccati_vs_rk4(seed=0, n_random=2)
        assert ok
        monkeypatch.setattr(verify_mod, "h2", lambda p, t, _h2=verify_mod.h2: _h2(p, t) + 1e-3)
        corrupted, measured, _ = riccati_vs_rk4(seed=0, n_random=2)
        assert not corrupted
        assert measured["sup_error"] >= 1e-3

    def test_fault_injection_in_h0_breaks_riccati_check(self, monkeypatch):
        # RK4 integrates h0' from the coupled system, so a shift of the
        # closed-form h0 alone must fail the check
        import crosshedge.verify as verify_mod

        monkeypatch.setattr(verify_mod, "h0", lambda p, n, t, _h0=verify_mod.h0: _h0(p, n, t) + 1e-6)
        corrupted, measured, _ = riccati_vs_rk4(seed=0, n_random=2)
        assert not corrupted
        assert measured["sup_error"] > 0.99e-6

    def test_cli_verify_nonzero_exit_on_failure(self, tmp_path, monkeypatch):
        from crosshedge.verify import CheckResult, VerifyReport

        fake = VerifyReport(
            passed=False,
            checks=[CheckResult("riccati-closed-form-vs-rk4", False, 0.01, {}, "injected failure")],
            seed=1,
            wall_clock_seconds=0.01,
        )
        monkeypatch.setattr(cli_mod, "run_verification", lambda **kw: fake)
        cfg = write_config(tmp_path, {"preset": "fig3"})
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
        assert code == 1
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert report["passed"] is False
        assert report["checks"][0]["name"] == "riccati-closed-form-vs-rk4"

    @pytest.mark.parametrize("flags, scale", [([], "fast"), (["--full"], "full")])
    def test_verify_scale_reaches_suite(self, tmp_path, monkeypatch, flags, scale):
        from crosshedge.verify import CheckResult, VerifyReport

        calls = []

        def fake(**kw):
            calls.append(kw)
            return VerifyReport(True, [CheckResult("stub", True, 0.0, {}, "")], kw["seed"], 0.0)

        monkeypatch.setattr(cli_mod, "run_verification", fake)
        assert main(["verify", *flags, "--out", str(tmp_path / "v")]) == 0
        assert calls == [{"seed": DEFAULT_SEED, "scale": scale}]

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "fig3", "model": {"b": 0.2}})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2

    def test_unknown_scale_raises(self):
        from crosshedge.verify import run_verification

        with pytest.raises(ValueError, match="scale must be 'fast' or 'full', got 'medium'"):
            run_verification(scale="medium")


def test_sweep_theta_of_one_pair_reports_undefined_se(tmp_path):
    # one antithetic pair gives no standard error, so no theta reads as resolved
    assert main(["sweep-theta", "--set", "n_paths=2", "--set", "n_steps=10", "--out", str(tmp_path)]) == 0
    header, *rows = (tmp_path / "sweep_theta.csv").read_text().strip().split("\n")
    cols = header.split(",")
    assert rows and all(
        r.split(",")[cols.index("gap_se")] == "nan" and r.split(",")[cols.index("noise_bounded")] == "true"
        for r in rows
    )


def test_sweep_theta_columns_carry_clamp_counts(tmp_path):
    # the clamp counts of the theta_sweep rows follow the existing columns
    assert main(["sweep-theta", "--set", "n_paths=4", "--set", "n_steps=10", "--out", str(tmp_path)]) == 0
    header, *rows = (tmp_path / "sweep_theta.csv").read_text().strip().split("\n")
    assert header == (
        "theta,ce_nu_hat,ce_nu_prime,gap,gap_se,gap_over_theta2,noise_bounded,kind,"
        "clamp_events_nu_hat,clamp_events_nu_prime"
    )
    assert rows and all(r.split(",")[-2:] == ["0", "0"] for r in rows)


@pytest.mark.parametrize("experiment", ["verify", "sweep-theta"])
def test_gnuplot_flag_only_where_a_script_exists(tmp_path, experiment):
    # no gnuplot snippet for these outputs, so argparse rejects the flag
    with pytest.raises(SystemExit) as exc:
        main([experiment, "--gnuplot", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "experiment, sets",
    [
        ("paths", ["n_paths=3", "n_steps=30"]),
        ("stats", ["n_paths=1000", "n_steps=20"]),
        ("distribution", ["n_paths=1000", "n_steps=20"]),
        ("sweep-theta", ["n_paths=200", "n_steps=20"]),
    ],
)
def test_monte_carlo_outputs_byte_identical_on_rerun(tmp_path, experiment, sets):
    # the same config and seed run twice write every CSV byte for byte alike
    argv = [experiment, "--seed", "11", *(arg for s in sets for arg in ("--set", s))]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([*argv, "--out", str(out_a)]) == 0
    assert main([*argv, "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.glob("*.csv"))
    assert names and names == sorted(p.name for p in out_b.glob("*.csv"))
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


@pytest.mark.parametrize("tag", load_schema("config.schema.json")["properties"]["strategy"]["enum"])
def test_every_schema_strategy_tag_builds(tag):
    preset = "fig1_right" if tag == "linear-optimal" else "fig7"
    cfg = resolve_config({"preset": preset, "strategy": tag}, experiment="paths")
    strategy = build_strategy(cfg)
    assert strategy.tag == tag
    assert strategy.coeffs is not None


def test_experiment_names_agree():
    # the schema enum, the subcommands, the path-count defaults and the runner table name the same experiments
    names = sorted(set(cli_mod._RUNNERS) | {"verify"})
    assert sorted(load_schema("config.schema.json")["properties"]["experiment"]["enum"]) == names
    assert sorted(EXPERIMENTS) == names
    assert sorted(config_mod._N_PATHS_DEFAULT) == names


def test_manifest_records_default_initial_state_without_preset(tmp_path):
    # a config with neither preset nor initial starts at the documented state, and the manifest says so
    doc = {key: value for key, value in PRESETS["fig3"].items() if key != "initial"}
    cfg = write_config(tmp_path, {**doc, "n_steps": 20, "n_paths": 1})
    assert main(["paths", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["resolved_config"]["initial"] == {"x": 0.0, "q": 0.0, "s": 10.0, "u": 1.0}
    assert resolve_config(doc, experiment="paths").initial == State(0.0, 0.0, 0.0, 10.0, 1.0)


class TestDefaultPresets:
    """Without --config a run starts from a preset: fig1_right for linear-path, fig3 otherwise."""

    def test_linear_path_uses_fig1_right(self, tmp_path):
        assert main(["linear-path", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        resolved = manifest["resolved_config"]
        assert resolved["model"] == PRESETS["fig1_right"]["model"]
        assert resolved["strategy"] == "linear-optimal"
        assert resolved == load_config(None, overrides=["preset=fig1_right"], experiment="linear-path",
                                       output_dir=str(tmp_path)).raw

    def test_paths_applies_override_and_seed(self, tmp_path):
        assert main(["paths", "--set", "n_steps=20", "--seed", "5", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        resolved = manifest["resolved_config"]
        assert resolved["model"] == PRESETS["fig3"]["model"]
        assert resolved["exposure"] == PRESETS["fig3"]["exposure"]
        assert resolved["n_steps"] == 20 and resolved["seed"] == 5 and manifest["seed"] == 5
        rows = (tmp_path / "path_00.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 21


@pytest.mark.parametrize(
    "argv, field",
    [
        (["verify", "--config", "{tmp}/missing.json"], "missing.json"),
        (["verify", "--config", "{tmp}"], "config file"),
        (["verify", "--config", "{tmp}/latin1.json"], "latin1.json"),
        (["paths", "--config", "{tmp}/list.json"], "must hold a JSON object, got list"),
        (["paths", "--config", "{tmp}/string.json"], "must hold a JSON object, got str"),
        (["paths", "--set", "initial.t=1.0"], "initial.t"),
        (["paths", "--set", "n_paths=0", "--gnuplot"], "n_paths"),
        (["sweep-theta", "--set", "n_paths=0"], "n_paths"),
        (["linear-path", "--set", "initial.t=0.5"], "initial.t"),
        (["linear-path", "--set", "model.mu=NaN"], "model: mu must be finite"),
        (["linear-path", "--set", "model.T=Infinity"], "model: T must be finite"),
        (["paths", "--set", "initial.u=Infinity"], "initial: u must be finite"),
        (["paths", "--set", "preset=fig7", "--set", "theta=Infinity"], "theta: must be finite"),
        (["paths", "--set", "preset=fig7", "--set", "exposure.strike=NaN"], "exposure: strike must be finite"),
        (["paths", "--set", "preset=fig7", "--set", "exposure.n_options=Infinity"], "exposure: n_options must be finite"),
        (["paths", "--set", "preset=fig7", "--set", "strategy=constant", "--set", "constant_speed=NaN"],
         "constant_speed: must be finite"),
        (["sweep-theta", "--set", "preset=fig7", "--set", "n_paths=4", "--set", "n_steps=4",
          "--set", "thetas=[0.2, NaN]"], "thetas.1: must be finite"),
        (["paths", "--out", "{tmp}/taken"], "output_dir: "),
    ],
    ids=["missing-config", "directory-config", "undecodable-config", "list-config", "string-config",
         "start-at-horizon", "paths-no-paths", "sweep-no-paths", "linear-path-late-start", "nan-model-field",
         "infinite-horizon", "infinite-initial-state", "infinite-theta", "nan-strike", "infinite-option-count",
         "nan-constant-speed", "nan-sweep-theta", "file-as-out"],
)
def test_bad_input_is_config_error(tmp_path, capsys, argv, field):
    # a config written in Latin-1, which is not valid UTF-8
    (tmp_path / "latin1.json").write_bytes('{"preset": "fig3", "output_dir": "d\xe9j\xe0"}'.encode("latin-1"))
    # valid JSON that is not an object
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "string.json").write_text('"fig3"')
    # a regular file where the output directory should go
    (tmp_path / "taken").write_text("")
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path) for a in argv]
    # a case's own --out comes later on the line, so it wins
    assert main([argv[0], "--out", str(out), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert not (out / "manifest.json").exists() and not (out / "paths_summary.csv").exists()

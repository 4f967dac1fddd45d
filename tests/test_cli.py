import hashlib
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import temperedwalk
from temperedwalk import analytics, cli, numerics

BASE = {
    "sigma": [
        {"direction": [1.0], "weight": 0.7},
        {"direction": [-1.0], "weight": 0.3},
    ],
    "model": {"alpha": 0.7, "x_m": 1.0, "radial": "exact_pareto"},
    "tempering": {"family": "conditionally_exponential", "rates": 1.0},
    "plan": {"n": 400, "replicates": 200, "seed": 42, "centering": "none"},
}


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _cfg(**overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        cfg[key] = val
    return cfg


def _stderr_code(capsys):
    err = capsys.readouterr().err
    return json.loads(err.strip().splitlines()[-1])["error"]["code"]


# ----------------------------------------------------------------- simulate


def test_simulate_writes_samples_and_meta(tmp_path):
    rc = cli.run(["simulate", "--config", _write(tmp_path, BASE),
                  "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "samples.csv").read_text().splitlines()
    assert lines[0] == "replicate,x_1"
    assert len(lines) == 201
    assert lines[1].split(",")[0] == "0"
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["n"] == 400 and meta["replicates"] == 200
    assert meta["seed"] == 42 and meta["centering"] == "none"
    assert meta["v_n"] > 0 and meta["elapsed_seconds"] >= 0


@pytest.mark.parametrize("command", ["simulate", "paths"])
def test_meta_reports_jump_throughput(tmp_path, command):
    cfg = _cfg(plan={"n": 301, "replicates": 40, "seed": 3, "time_grid": [0.25, 0.5]})
    assert cli.run([command, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0
    meta = json.loads((tmp_path / "o" / "meta.json").read_text())
    jumps = 40 * (301 if command == "simulate" else 150)
    assert meta["jumps_per_second"] == pytest.approx(jumps / meta["elapsed_seconds"], rel=1e-12)
    assert 0.0 < meta["jumps_per_second"] < math.inf


@pytest.mark.parametrize("command", ["simulate", "paths"])
def test_meta_reports_stage_seconds(tmp_path, command):
    """meta.json gives the seconds of the Philox fill, the jump transform, the
    bincount reduction and the centering, the first three summed over threads."""
    cfg = _cfg(plan={"n": 301, "replicates": 40, "seed": 3, "centering": "truncated_mean",
                     "time_grid": [0.25, 0.5]})
    out = tmp_path / "o"
    assert cli.run([command, "--config", _write(tmp_path, cfg), "--out", str(out),
                    "--threads", "2"]) == 0
    stages = json.loads((out / "meta.json").read_text())["stages"]
    assert set(stages) == {"fill", "transform", "reduction", "centering"}
    assert all(seconds >= 0.0 for seconds in stages.values())


def test_meta_and_report_carry_provenance(tmp_path):
    """meta.json and report.json name the RNG layout, the package version
    and the sha256 of the config file's bytes."""
    config = _write(tmp_path, _cfg(cf_check={"self_test": True, "grid": {"points": 11}}))
    want = {"rng_layout": 4, "version": temperedwalk.__version__,
            "config_sha256": hashlib.sha256(Path(config).read_bytes()).hexdigest()}
    for command, name in (("simulate", "meta.json"), ("cf-check", "report.json")):
        assert cli.run([command, "--config", config, "--out", str(tmp_path / command)]) == 0
        payload = json.loads((tmp_path / command / name).read_text())
        assert {key: payload[key] for key in want} == want


def test_simulate_deterministic_and_thread_invariant(tmp_path):
    cfg = _write(tmp_path, BASE)
    for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
        rc = cli.run(["simulate", "--config", cfg,
                      "--out", str(tmp_path / name), "--threads", threads])
        assert rc == 0
    a = (tmp_path / "a" / "samples.csv").read_bytes()
    assert a == (tmp_path / "b" / "samples.csv").read_bytes()
    assert a == (tmp_path / "c" / "samples.csv").read_bytes()


def test_seed_override_changes_output(tmp_path):
    cfg = _write(tmp_path, BASE)
    cli.run(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
    cli.run(["simulate", "--config", cfg, "--out", str(tmp_path / "b"),
             "--seed", "43"])
    a = (tmp_path / "a" / "samples.csv").read_bytes()
    b = (tmp_path / "b" / "samples.csv").read_bytes()
    assert a != b
    meta = json.loads((tmp_path / "b" / "meta.json").read_text())
    assert meta["seed"] == 43


def test_simulate_2d_headers(tmp_path):
    cfg = _cfg(sigma=[{"direction": [1.0, 0.0], "weight": 1.0},
                      {"direction": [0.0, 1.0], "weight": 1.0}])
    rc = cli.run(["simulate", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 0
    head = (tmp_path / "out" / "samples.csv").read_text().splitlines()[0]
    assert head == "replicate,x_1,x_2"


# -------------------------------------------------------------------- paths


def test_paths_layout(tmp_path):
    cfg = _cfg(plan={"n": 300, "replicates": 50, "seed": 7,
                     "time_grid": [0.5, 1.0]})
    rc = cli.run(["paths", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "paths.csv").read_text().splitlines()
    assert lines[0] == "replicate,t,x_1"
    assert len(lines) == 1 + 50 * 2
    # replicate-major, time increasing inside each block
    assert lines[1].startswith("0,0.5,")
    assert lines[2].startswith("0,1,")
    assert lines[3].startswith("1,0.5,")


def test_paths_requires_time_grid(tmp_path, capsys):
    rc = cli.run(["paths", "--config", _write(tmp_path, BASE),
                  "--out", str(tmp_path / "out")])
    assert rc == 2
    assert _stderr_code(capsys) == "missing_time_grid"


# ----------------------------------------------------------------- cf-check


def test_cf_check_self_test_is_exact(tmp_path, monkeypatch):
    calls = []
    eval_grid = analytics.LevyExponent.eval_grid

    def counting(self, grid):
        calls.append(len(grid))
        return eval_grid(self, grid)

    monkeypatch.setattr(analytics.LevyExponent, "eval_grid", counting)
    cfg = _cfg(cf_check={"convention": "drift_free", "self_test": True,
                         "grid": {"points": 41}})
    rc = cli.run(["cf-check", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 0
    assert calls == [41]  # one evaluation serves both sides
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is True
    check = report["checks"][0]
    assert set(check) >= {"test", "parameters", "statistic", "threshold", "pass"}
    assert check["statistic"] == 0.0
    assert check["parameters"]["exponent"] == "closed_form"
    table = (tmp_path / "out" / "cf_table.csv").read_text().splitlines()
    assert table[0] == "lambda_1,re_emp,im_emp,re_theory,im_theory,abs_err"
    assert len(table) == 42


def test_cf_check_reports_untempered_closed_form_exponent(tmp_path):
    cfg = _cfg(tempering={"family": "no_tempering"},
               cf_check={"convention": "drift_free", "self_test": True,
                         "drift": [0.5], "grid": {"points": 5}})
    rc = cli.run(["cf-check", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 0
    check = json.loads((tmp_path / "out" / "report.json").read_text())["checks"][0]
    assert check["parameters"]["exponent"] == "closed_form"
    assert check["statistic"] == 0.0


def test_cf_check_simulated_passes_loose_threshold(tmp_path):
    cfg = _cfg(plan={"n": 400, "replicates": 2000, "seed": 1},
               cf_check={"convention": "drift_free", "threshold": 0.2,
                         "grid": {"points": 41}})
    rc = cli.run(["cf-check", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 0


def test_cf_check_fails_absurd_threshold(tmp_path):
    cfg = _cfg(plan={"n": 400, "replicates": 500, "seed": 1},
               cf_check={"convention": "drift_free", "threshold": 1e-9,
                         "grid": {"points": 21}})
    rc = cli.run(["cf-check", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 1  # ran fine, check failed
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is False


def test_cf_check_reads_samples_file(tmp_path):
    out1 = tmp_path / "sim"
    cli.run(["simulate", "--config", _write(tmp_path, BASE), "--out", str(out1)])
    cfg = _cfg(cf_check={"convention": "drift_free", "threshold": 0.9,
                         "samples": str(out1 / "samples.csv"),
                         "grid": {"points": 21}})
    rc = cli.run(["cf-check", "--config", _write(tmp_path, cfg, "cfg2.json"),
                  "--out", str(tmp_path / "out")])
    assert rc == 0


# ----------------------------------------------------------------- diagnose


def test_diagnose_report(tmp_path):
    cfg = _cfg(diagnostics=[
        {"type": "vague_convergence", "n": 200, "draws": 300000, "rel_tol": 0.2,
         "sectors": [{"r_lo": 1.0}]},
        {"type": "uan", "n": 100000, "band": 0.3},
    ])
    rc = cli.run(["diagnose", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is True
    kinds = [c["test"] for c in report["checks"]]
    assert kinds == ["vague_convergence", "uan_profile"]
    for c in report["checks"]:
        assert set(c) >= {"test", "parameters", "statistic", "threshold", "pass"}


def test_diagnose_regularity_alpha_guard(tmp_path, capsys):
    cfg = _cfg(diagnostics=[{"type": "regularity", "beta": 0.9}])
    rc = cli.run(["diagnose", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 2
    assert _stderr_code(capsys) == "invalid_config"


def test_diagnose_regularity_passes_for_heavy_alpha(tmp_path):
    cfg = _cfg(model={"alpha": 1.5},
               tempering={"family": "conditionally_exponential", "rates": 1.0},
               diagnostics=[{"type": "regularity", "beta": 1.9}])
    rc = cli.run(["diagnose", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 0


# ------------------------------------------------------------------ density


def test_density_csv_and_report(tmp_path):
    cfg = _cfg(density={"convention": "drift_free",
                        "x": {"lo": -14.0, "hi": 14.0, "points": 141}})
    rc = cli.run(["density", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "density.csv").read_text().splitlines()
    assert lines[0] == "x,density"
    assert len(lines) == 142
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"][0]["test"] == "density_mass"
    assert report["checks"][0]["parameters"]["exponent"] == "closed_form"
    assert report["pass"] is True


def test_density_rejects_2d(tmp_path, capsys):
    cfg = _cfg(sigma=[{"direction": [1.0, 0.0], "weight": 1.0},
                      {"direction": [0.0, 1.0], "weight": 1.0}])
    rc = cli.run(["density", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 2
    assert _stderr_code(capsys) == "dimension_unsupported"


# -------------------------------------------------------------- error paths


def test_missing_config_file(tmp_path, capsys):
    rc = cli.run(["simulate", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert _stderr_code(capsys) == "config_unreadable"


def test_malformed_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    rc = cli.run(["simulate", "--config", str(p)])
    assert rc == 2
    assert _stderr_code(capsys) == "invalid_config"


def test_jump_mean_centering_needs_heavy_alpha(tmp_path, capsys):
    cfg = _cfg(plan={"n": 100, "replicates": 10, "seed": 1,
                     "centering": "jump_mean"})
    rc = cli.run(["simulate", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 2
    assert _stderr_code(capsys) == "mean_undefined"


def test_custom_family_rejected_in_config(tmp_path, capsys):
    cfg = _cfg(tempering={"family": "custom_q", "rates": 1.0})
    rc = cli.run(["simulate", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 2
    assert _stderr_code(capsys) == "invalid_config"


def test_seed_required_somewhere(tmp_path, capsys):
    cfg = _cfg(plan={"n": 100, "replicates": 10})
    rc = cli.run(["simulate", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 2
    assert _stderr_code(capsys) == "invalid_config"


def test_rates_map_form(tmp_path):
    cfg = _cfg(tempering={"family": "conditionally_exponential",
                          "rates": {"0": 1.0, "1": 2.5}})
    rc = cli.run(["simulate", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 0


def test_rates_map_must_cover_all_atoms(tmp_path, capsys):
    cfg = _cfg(tempering={"family": "conditionally_exponential",
                          "rates": {"0": 1.0}})
    rc = cli.run(["simulate", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 2
    assert _stderr_code(capsys) == "invalid_config"


def test_tempering_alpha_must_match_model(tmp_path, capsys):
    cfg = _cfg(tempering={"family": "conditionally_exponential",
                          "rates": 1.0, "alpha": 1.1})
    rc = cli.run(["simulate", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 2
    assert _stderr_code(capsys) == "invalid_config"


def test_bad_threads_value(tmp_path, capsys):
    rc = cli.run(["simulate", "--config", _write(tmp_path, BASE),
                  "--out", str(tmp_path / "out"), "--threads", "0"])
    assert rc == 2
    assert _stderr_code(capsys) == "invalid_config"


def _console_command():
    """The ``temperedwalk`` console script declared in pyproject.toml.

    The installed script is used when it is on PATH.  Otherwise the package
    runs as ``python -m temperedwalk``, whose ``__main__`` must call the
    declared ``module:function``.  Either way the child imports the package
    from the same place this test did.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    target = scripts["temperedwalk"]
    installed = shutil.which("temperedwalk")
    if installed is not None:
        command = [installed]
    else:
        module, func = target.split(":")
        declared = getattr(importlib.import_module(module), func)
        assert importlib.import_module("temperedwalk.__main__").main is declared
        command = [sys.executable, "-m", "temperedwalk"]
    package_root = str(Path(temperedwalk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return command, env


def test_console_entry_point(tmp_path):
    command, env = _console_command()
    cfg = _write(tmp_path, BASE)
    proc = subprocess.run(
        command + ["simulate", "--config", cfg,
                   "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "samples.csv").exists()

    proc = subprocess.run(command + ["--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_usage_error_is_one_json_line(tmp_path):
    """A command line that does not parse exits 2 with one JSON line on
    stderr, not argparse's usage block; --help still prints and exits 0."""
    command, env = _console_command()
    for argv, says in ((["simulate"], "the following arguments are required: --config"),
                       (["simulate", "--config", "c.json", "--threads", "x"],
                        "argument --threads: invalid int value: 'x'")):
        proc = subprocess.run(command + argv, capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        error = json.loads(lines[0])["error"]
        assert error == {"code": "usage", "message": f"temperedwalk simulate: {says}"}

    proc = subprocess.run(command + ["simulate", "--help"],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: temperedwalk simulate")


DEMO = Path(__file__).resolve().parents[1] / "configs" / "demo.json"


def _assert_demo_config_error(tmp_path, command, section, value):
    """The console entry point on configs/demo.json with one section replaced
    exits 2 with one JSON line on stderr; returns the error message."""
    cfg = json.loads(DEMO.read_text())
    cfg[section] = value
    argv, env = _console_command()
    proc = subprocess.run(
        argv + [command, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["code"] == "invalid_config"
    assert "Traceback" not in proc.stderr
    return error["message"]


@pytest.mark.parametrize("command, section, value", [
    ("simulate", "plan", 5),
    ("cf-check", "cf_check", {"grid": "abc"}),
    ("simulate", "tempering", 5),
    ("diagnose", "diagnostics", [5]),
], ids=["plan", "cf_check.grid", "tempering", "diagnostics_entry"])
def test_section_that_is_not_an_object_is_a_config_error(tmp_path, command, section, value):
    _assert_demo_config_error(tmp_path, command, section, value)


_PLAN = {"n": 400, "replicates": 200, "seed": 42}


@pytest.mark.parametrize("command, section, value, path", [
    ("cf-check", "cf_check", {"grid": {"lo": [1]}}, "config.cf_check.grid.lo"),
    ("diagnose", "diagnostics", [{"type": "vague_convergence", "sectors": 5}],
     "config.diagnostics[0].sectors"),
    ("simulate", "plan", {**_PLAN, "n": 2.7}, "config.plan.n"),
    ("simulate", "plan", {**_PLAN, "n": True}, "config.plan.n"),
    ("simulate", "plan", {**_PLAN, "n": math.inf}, "config.plan.n"),
    ("simulate", "tempering", {"family": "conditionally_exponential", "rates": [[1.0]]},
     "config.tempering.rates"),
    ("simulate", "tempering", {"family": "conditionally_exponential", "rates": True},
     "config.tempering.rates"),
    ("cf-check", "cf_check", {"self_test": "no"}, "config.cf_check.self_test"),
    ("simulate", "plan", {**_PLAN, "centring": "jump_mean"}, "config.plan.centring"),
    ("simulate", "sigma", {"atoms": BASE["sigma"]}, "config.sigma"),
], ids=["cf_check.grid.lo", "vague_convergence.sectors", "plan.n_float", "plan.n_true",
        "plan.n_infinity", "rates_nested_list", "rates_true", "self_test_string",
        "unknown_key", "sigma_atoms_object"])
def test_value_of_the_wrong_type_is_a_config_error(tmp_path, command, section, value, path):
    message = _assert_demo_config_error(tmp_path, command, section, value)
    assert message.startswith(path + " ")
    assert not (tmp_path / "out").exists()  # read before any output


def test_malformed_last_diagnostic_stops_before_any_diagnostic_runs(tmp_path, capsys,
                                                                    monkeypatch):
    def not_reached(*args, **kwargs):
        pytest.fail("a diagnostic ran before the config was read")

    monkeypatch.setattr(analytics, "uan_profile", not_reached)
    monkeypatch.setattr(analytics, "vague_convergence_table", not_reached)
    cfg = json.loads(DEMO.read_text())
    cfg["diagnostics"].append({"type": "regularity", "beta": "1.9"})
    out = tmp_path / "out"
    rc = cli.run(["diagnose", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert rc == 2
    assert _stderr_code(capsys) == "invalid_config"
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("drift", [[], [0.5, 7.0]], ids=["empty", "two_values"])
def test_density_drift_must_hold_one_value(tmp_path, drift):
    density = json.loads(DEMO.read_text())["density"]
    _assert_demo_config_error(tmp_path, "density", "density", {**density, "drift": drift})


def test_cli_module_runs_as_main(tmp_path):
    _, env = _console_command()
    proc = subprocess.run(
        [sys.executable, "-m", "temperedwalk.cli", "simulate", "--config", str(DEMO),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "samples.csv").exists()


CENTERED_DEMO = DEMO.with_name("centered_demo.json")


# Runs in a fresh interpreter: every subcommand on a demo config, then one
# custom_q centering.  It prints which of them had loaded scipy by its end.
_SCIPY_PROBE = """
import json, math, sys
from temperedwalk import JumpModel, SpectralMeasure, TemperingSpec, cli, engine
runs, out = json.loads(sys.argv[1]), sys.argv[2]
loaded = []
for i, (command, config) in enumerate(runs):
    rc = cli.run([command, "--config", config, "--out", f"{out}/{i}"])
    assert rc in (0, 1), (command, config, rc)
    loaded.append("scipy" in sys.modules)
one = SpectralMeasure([[1.0]], [1.0])
custom = TemperingSpec.custom_q(1.5, lambda r, s: 1.5 * math.exp(-r), one)
a_n = engine.centering_truncated_mean(JumpModel(1.5, one), custom, 300, 300 ** (1 / 1.5))
print(json.dumps({"loaded": loaded, "a_n": a_n.value[0], "custom": "scipy" in sys.modules}))
"""


def test_demo_runs_never_import_scipy(tmp_path):
    """No subcommand on configs/demo.json or configs/centered_demo.json
    imports scipy: the built-in families run no quadrature.  Replicates and
    draws are cut to keep the test fast, and paths gets a time grid; a
    custom_q centering still integrates, and loads scipy to do it."""
    runs = []
    for demo in (DEMO, CENTERED_DEMO):
        cfg = json.loads(demo.read_text())
        cfg["plan"].update(replicates=50, time_grid=[0.5, 1.0])
        for entry in cfg["diagnostics"]:
            if entry["type"] == "vague_convergence":
                entry["draws"] = 10 ** 4
        config = _write(tmp_path, cfg, demo.name)
        runs += [(command, config) for command in cli._COMMANDS]
    _, env = _console_command()
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs),
                           str(tmp_path / "out")], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == [False] * len(runs), runs
    m = temperedwalk.JumpModel(1.5, temperedwalk.SpectralMeasure([[1.0]], [1.0]))
    built = temperedwalk.TemperingSpec.exponential_q(1.5, 1.0)
    want = temperedwalk.centering_truncated_mean(m, built, 300, 300 ** (1 / 1.5)).value[0]
    assert result["custom"] and result["a_n"] == pytest.approx(want, rel=1e-10)


def test_reports_count_the_run_s_quadratures(tmp_path, monkeypatch):
    """report.json of cf-check, density and diagnose says how many
    quadratures the run took: none on a built-in family, and each call
    counts once where one runs."""
    cfg = _cfg(cf_check={"convention": "drift_free", "self_test": True,
                         "grid": {"points": 5}},
               diagnostics=[{"type": "uan", "n": 1000, "band": 0.5}])
    config = _write(tmp_path, cfg)
    for command in ("cf-check", "density", "diagnose"):
        assert cli.run([command, "--config", config, "--out", str(tmp_path / command)]) == 0
        report = json.loads((tmp_path / command / "report.json").read_text())
        assert report["quadrature_calls"] == 0, command
    uan_profile = analytics.uan_profile

    def integrating(*args):
        for _ in range(3):
            numerics.adaptive_quad(lambda x: x, 0.0, 1.0)
        return uan_profile(*args)

    monkeypatch.setattr(analytics, "uan_profile", integrating)
    assert cli.run(["diagnose", "--config", config, "--out", str(tmp_path / "again")]) == 0
    report = json.loads((tmp_path / "again" / "report.json").read_text())
    assert report["quadrature_calls"] == 3


def test_diagnose_sector_over_six_decades(tmp_path, capsys):
    """The sector [1e-3, 1e3] once ended in a numeric error (exit 3): its
    Lévy mass was a direct quadrature that did not converge."""
    cfg = json.loads(CENTERED_DEMO.read_text())
    cfg["diagnostics"].append({"type": "vague_convergence", "n": 1000, "draws": 200000,
                               "sectors": [{"r_lo": 0.001, "r_hi": 1000}]})
    rc = cli.run(["diagnose", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc in (0, 1), capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    vague = [c for c in report["checks"] if c["test"] == "vague_convergence"]
    assert len(vague) == 1 and vague[0]["parameters"]["target"] > 0.0


def test_sector_whose_mass_overflows_is_a_named_numeric_error(tmp_path, capsys):
    """r_lo^(-alpha) past the float range exits 3 with one JSON line that
    names the sector and its r_lo, before any jump is drawn."""
    cfg = json.loads(CENTERED_DEMO.read_text())
    cfg["diagnostics"] = [{"type": "vague_convergence", "draws": 10 ** 9,
                           "sectors": [{"r_lo": 1.0}, {"r_lo": 2.16e-271}]}]
    rc = cli.run(["diagnose", "--config", _write(tmp_path, cfg),
                  "--out", str(tmp_path / "out")])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["code"] == "numeric"
    assert error["message"].startswith("sector 1: ") and "r_lo = 2.16e-271" in error["message"]


def test_warning_stays_inside_the_error_line(tmp_path):
    """configs/demo.json with a direction of norm 2 and jump_mean centering
    exits 2: the normalizing UserWarning joins the one JSON line on stderr.
    A subprocess, because pytest captures warnings in its own process."""
    cfg = json.loads(DEMO.read_text())
    cfg["sigma"][0]["direction"] = [2.0]
    cfg["plan"]["centering"] = "jump_mean"
    argv, env = _console_command()
    proc = subprocess.run(
        argv + ["simulate", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    error = json.loads(lines[0])["error"]
    assert error["code"] == "mean_undefined"
    assert error["warnings"] == ["UserWarning: direction norms deviate from 1; normalizing"]


def test_warning_of_a_successful_run_still_shows(tmp_path):
    cfg = _cfg(sigma=[{"direction": [2.0], "weight": 1.0}],
               plan={"n": 10, "replicates": 5, "seed": 1})
    with pytest.warns(UserWarning, match="normalizing"):
        rc = cli.run(["simulate", "--config", _write(tmp_path, cfg),
                      "--out", str(tmp_path / "out")])
    assert rc == 0


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    def broken(cfg, out, seed, threads, stamp):
        raise KeyError("boom")

    monkeypatch.setitem(cli._COMMANDS, "simulate", broken)
    rc = cli.run(["simulate", "--config", _write(tmp_path, BASE),
                  "--out", str(tmp_path / "out")])
    assert rc == 3
    assert _stderr_code(capsys) == "internal"


# ------------------------------------------------------------- RNG layout

_PIN_LAWS = {
    "ce_two_atoms": {
        "sigma": BASE["sigma"],
        "model": {"alpha": 0.7},
        "tempering": {"family": "conditionally_exponential", "rates": {"0": 1.0, "1": 2.5}},
        "plan": {"n": 300, "replicates": 60, "seed": 11, "centering": "none"},
    },
    "expq_one_atom_truncated_mean": {
        "sigma": [{"direction": [1.0], "weight": 1.0}],
        "model": {"alpha": 1.5},
        "tempering": {"family": "exponential_q", "rates": 1.0},
        "plan": {"n": 300, "replicates": 60, "seed": 12, "centering": "truncated_mean"},
    },
    "no_tempering": {
        "sigma": BASE["sigma"],
        "model": {"alpha": 1.2},
        "tempering": {"family": "no_tempering"},
        "plan": {"n": 300, "replicates": 60, "seed": 13, "centering": "none"},
    },
    "mixed_three_scales_three_atoms_2d": {
        "sigma": [{"direction": [1.0, 0.0], "weight": 0.5},
                  {"direction": [0.0, 1.0], "weight": 0.3},
                  {"direction": [-0.6, -0.8], "weight": 0.2}],
        "model": {"alpha": 1.2, "radial": {"scales": [1.0, 2.0, 5.0],
                                           "weights": [0.5, 0.3, 0.2]}},
        "tempering": {"family": "conditionally_exponential", "rates": 1.0},
        "plan": {"n": 300, "replicates": 60, "seed": 14, "centering": "none"},
    },
}

# sha256 of samples.csv (simulate) and paths.csv (paths, times 0.5 and 1) at
# RNG_LAYOUT 4.  The bytes also hold a_n: expq_one_atom_truncated_mean was
# re-pinned when its a_n became a closed form (15.12481934428829 ->
# 15.124819344327951), and every law when layout 4 put all replicates on one
# stream.
_PIN_SHA256 = {
    "ce_two_atoms": (
        "ddff8ab12d847de7362f8806d90644ce55f1d5bf24875805108b6fd5efbf3cb1",
        "6df89da08d236fa7c50a22ef5eb49736bcb70d96d8e2b1ca14c6ad54c35c9d09"),
    "expq_one_atom_truncated_mean": (
        "7256cf7c7a92c25950d549194a1e34667ce28d47f0170d780ff37171f64324fb",
        "90ec3220212c64a2797b54795a416dcfc782223af88fe7deab816f2ce9f016ab"),
    "no_tempering": (
        "4288bc536e0ec98d923f97cc222b0d731ec967f194b890d5c49cfb30fec67fec",
        "5f96006751330b7b926abed36cf5fc75b7f1826dc917c688b1b479f20a30fd4a"),
    "mixed_three_scales_three_atoms_2d": (
        "f58f4d3f3a269522602d5ab61597b44ca688342bf11633b7b8c8ed3822b92613",
        "087437ed450cb5a56d355d5d916dcbfacdfca120a0fe62c82005b25859721252"),
}

# The first data row of samples.csv: replicate 0 starts the one stream of
# layout 4 where it started its own stream (seed, 0) in layout 3, so these
# are the layout-3 bytes.
_PIN_REPLICATE_0 = {
    "ce_two_atoms": "0,0.80777546400594713",
    "expq_one_atom_truncated_mean": "0,-1.3637090065072339",
    "no_tempering": "0,4.0945331808255681",
    "mixed_three_scales_three_atoms_2d": "0,2.3357825979198745,1.2182731299487985",
}


@pytest.mark.parametrize("law", sorted(_PIN_LAWS))
def test_rng_layout_output_bytes_are_pinned(tmp_path, law):
    """The output bytes of small runs do not move unless the uniform layout
    (RNG_LAYOUT) or the centering a_n does; replicate 0 keeps its layout-3
    bytes."""
    cfg = _PIN_LAWS[law]
    paths_cfg = {**cfg, "plan": {**cfg["plan"], "time_grid": [0.5, 1.0]}}
    got = []
    for command, config, name in (("simulate", cfg, "samples.csv"),
                                  ("paths", paths_cfg, "paths.csv")):
        out = tmp_path / command
        assert cli.run([command, "--config", _write(tmp_path, config, command + ".json"),
                        "--out", str(out)]) == 0
        got.append(hashlib.sha256((out / name).read_bytes()).hexdigest())
    assert (tmp_path / "simulate" / "samples.csv").read_text().splitlines()[1] == (
        _PIN_REPLICATE_0[law])
    assert tuple(got) == _PIN_SHA256[law], (
        f"{law}: output bytes changed at RNG_LAYOUT {cli.engine.RNG_LAYOUT}: either "
        "the uniform layout moved (bump `RNG_LAYOUT`) or the centering a_n did "
        "(see meta.json); re-pin only if the change is intended")


# ------------------------------------------------------------ config fuzzing

# A small valid config that sets every field.  Its counts stay at 50 or less
# and the fuzzed integers below do too, so no valid document allocates much.
_FUZZ_BASE = {
    "sigma": [{"direction": [1.0], "weight": 0.7}, {"direction": [-1.0], "weight": 0.3}],
    "model": {"alpha": 1.5, "x_m": 1.0,
              "radial": {"scales": [1.0, 2.0], "weights": [0.5, 0.5]}},
    "tempering": {"family": "conditionally_exponential", "rates": {"0": 1.0, "1": 2.0},
                  "alpha": 1.5},
    "plan": {"n": 20, "replicates": 10, "seed": 1, "centering": "truncated_mean",
             "v_override": None, "time_grid": [0.5, 1.0]},
    "cf_check": {"convention": "truncated", "threshold": 0.5,
                 "grid": {"lo": -2.0, "hi": 2.0, "points": 5},
                 "self_test": False, "samples": None, "drift": [0.0]},
    "diagnostics": [
        {"type": "vague_convergence", "n": 20, "draws": 50, "rel_tol": 0.5,
         "sectors": [{"r_lo": 1.0, "r_hi": "inf", "atoms": [0]}]},
        {"type": "uan", "n": 20, "deltas": [0.5, 1.0], "band": 0.5},
        {"type": "regularity", "beta": 1.9},
    ],
    "density": {"convention": "mean_zero", "x": {"lo": -5.0, "hi": 5.0, "points": 11},
                "mass_defect_tol": 0.5, "drift": [0.0]},
    "outputs": "out",
}


def _json_paths(node, path=()):
    """The path of every value inside a JSON document, root excluded."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _schema_strings(spec):
    """Every string a schema names: keys, choices and defaults."""
    if isinstance(spec, str):
        yield spec
    elif isinstance(spec, dict):
        for key, field in spec.items():
            yield key
            yield from _schema_strings(field)
    elif isinstance(spec, (list, tuple, set)):
        for field in spec:
            yield from _schema_strings(field)


# The mixture's keys sit in a reader function, so they are named here.
_FUZZ_STRINGS = sorted(
    set(_schema_strings(cli._CONFIG))
    | {s for kind, (schema, _) in cli._DIAGNOSTICS.items()
       for s in (kind, *_schema_strings(schema))}
    | {"scales", "weights", "", "-1", "0"})
_fuzz_scalars = (
    st.none() | st.booleans() | st.integers(-3, 50)
    | st.floats(-50.0, 50.0)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.sampled_from(_FUZZ_STRINGS) | st.text(max_size=4)
)
_fuzz_values = st.recursive(_fuzz_scalars, lambda inner: (
    st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FUZZ_STRINGS) | st.text(max_size=3), inner,
                      max_size=3)), max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(list(_json_paths(_FUZZ_BASE))), value=_fuzz_values)
def test_fuzzed_config_keeps_the_exit_contract(path, value):
    """One value of a valid config replaced by any JSON value: every
    subcommand exits 0-3, codes 2 and 3 print one JSON line on stderr, and
    nothing prints a traceback."""
    cfg = json.loads(json.dumps(_FUZZ_BASE))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(cfg))
        for command in cli._COMMANDS:
            err, out = io.StringIO(), io.StringIO()
            with redirect_stderr(err), redirect_stdout(out):
                rc = cli.run([command, "--config", str(config), "--out",
                              str(Path(tmp) / command)])
            assert rc in (0, 1, 2, 3), (command, rc)
            if rc >= 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}, lines
            assert "Traceback" not in err.getvalue() + out.getvalue()

"""Command-line driver.

Subcommands map to the library's experiment layers: ``simulate`` (row sums),
``paths`` (partial-sum skeletons), ``cf-check`` (empirical vs analytic CF),
``diagnose`` (vague convergence, UAN, tempering regularity), ``density``
(1-d CF inversion).  Everything is driven by one JSON config file; --seed and
--threads override at the command line, and --threads never changes output
bytes.

Exit codes: 0 success, 1 a diagnostic check failed, 2 config/usage error,
3 numeric (quadrature/inversion/overflow) failure or any other internal error.
Codes 2 and 3 print one JSON line on stderr, with the run's Python warnings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import traceback
import warnings
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__, analytics, engine, numerics
from .jumps import EXACT_PARETO, JumpModel, MixedScalePareto
from .spectral import SpectralMeasure
from .tempering import CUSTOM_Q, FAMILIES, NoTempering

__all__ = ["main", "run", "ConfigError"]


class ConfigError(Exception):
    """Config or usage problem; carries a machine-readable code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _fail(code, message):
    raise ConfigError(code, message)


# ---------------------------------------------------------------- builders


def _build_all(cfg, seed_override):
    """sigma, jump model, tempering and walk plan of a config read by _CONFIG;
    the library's own checks raise ValueError, which run() reports."""
    atoms = cfg["sigma"]
    sigma = SpectralMeasure([a["direction"] for a in atoms], [a["weight"] for a in atoms])
    mc, tc, pc = cfg["model"], cfg["tempering"], cfg["plan"]
    model = JumpModel(mc["alpha"], sigma, x_m=mc["x_m"], radial=mc["radial"])
    if tc["alpha"] is not None and abs(tc["alpha"] - model.alpha) > 1e-12:
        _fail("invalid_config", "config.tempering.alpha must match config.model.alpha")
    spec_class, rates = FAMILIES[tc["family"]], tc["rates"]
    if isinstance(rates, dict):
        indices = [str(j) for j in range(len(sigma))]
        if set(rates) != set(indices):
            _fail("invalid_config", "config.tempering.rates must map every atom index to a rate")
        rates = [rates[j] for j in indices]
    if spec_class is NoTempering:
        tempering = spec_class(model.alpha)
    else:
        tempering = spec_class(model.alpha, rates, sigma)
    seed = seed_override if seed_override is not None else pc["seed"]
    if seed is None:
        _fail("invalid_config", "a seed is required (config.plan.seed or --seed)")
    plan = engine.WalkPlan(n=pc["n"], replicates=pc["replicates"], seed=seed,
                           centering=pc["centering"], v_override=pc["v_override"],
                           time_grid=pc["time_grid"])
    if plan.centering == engine.CENTER_JUMP_MEAN and model.alpha <= 1.0:
        _fail("mean_undefined", "jump_mean centering needs alpha > 1")
    return sigma, model, tempering, plan


# ---------------------------------------------------------------- writers


def _columns(values):
    """The columns of a 2-d array as .17g strings, one format call per value."""
    return [map("{:.17g}".format, col.tolist()) for col in values.T]


def _write_csv(path, header, table):
    rows = map(",".join, zip(*_columns(table)))
    Path(path).write_text("\n".join([header, *rows]) + "\n")


def _write_samples(path, batch):
    d = batch.dimension
    header = "replicate," + ",".join(f"x_{i + 1}" for i in range(d))
    rows = zip(map(str, range(batch.replicates)), *_columns(batch.values))
    Path(path).write_text("\n".join([header, *map(",".join, rows)]) + "\n")


def _write_paths(path, batches):
    d = batches[0].dimension
    header = "replicate,t," + ",".join(f"x_{i + 1}" for i in range(d))
    per_time = [map(",".join, zip(repeat(f"{b.t:.17g}"), *_columns(b.values))) for b in batches]
    rows = (f"{i},{row}" for i, at_i in enumerate(zip(*per_time)) for row in at_i)
    Path(path).write_text("\n".join([header, *rows]) + "\n")


def _meta_dict(batches, plan, threads):
    """meta.json of a run; batches holds one SampleBatch per grid time."""
    batch = batches[0]
    jumps = batch.replicates * max(math.floor(batch.n * batches[-1].t), 1)
    return {
        "n": batch.n,
        "replicates": batch.replicates,
        "dimension": batch.dimension,
        "v_n": batch.threshold,
        "a_n": [float(v) for v in batch.center],
        "centering": batch.centering,
        "seed": batch.seed,
        "threads": threads,
        "elapsed_seconds": batch.elapsed_seconds,
        "jumps_per_second": jumps / batch.elapsed_seconds,
        "stages": batch.stages,
        "time_grid": list(plan.time_grid) if plan.time_grid else None,
    }


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _check(test, parameters, statistic, threshold, passed, **extra):
    return {"test": test, "parameters": parameters, "statistic": statistic,
            "threshold": threshold, "pass": bool(passed), **extra}


def _write_report(out, stamp, checks):
    """Write report.json; exit code 0 if every check passed, else 1."""
    passed = all(c["pass"] for c in checks)
    _write_json(out / "report.json", {"checks": checks, "pass": passed,
                                      "quadrature_calls": numerics.quad_calls, **stamp})
    return 0 if passed else 1


# ------------------------------------------------------------ subcommands


def _cmd_simulate(cfg, out, seed, threads, stamp):
    _, model, tempering, plan = _build_all(cfg, seed)
    batch = engine.simulate_rowsum(plan, model, tempering, threads=threads)
    _write_samples(out / "samples.csv", batch)
    _write_json(out / "meta.json", {**_meta_dict([batch], plan, threads), **stamp})
    return 0


def _cmd_paths(cfg, out, seed, threads, stamp):
    _, model, tempering, plan = _build_all(cfg, seed)
    if plan.time_grid is None:
        _fail("missing_time_grid", "paths mode needs plan.time_grid")
    batches = engine.simulate_paths(plan, model, tempering, threads=threads)
    _write_paths(out / "paths.csv", batches)
    _write_json(out / "meta.json", {**_meta_dict(batches, plan, threads), **stamp})
    return 0


def _read_samples(path, dimension):
    try:
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        _fail("config_unreadable", f"cannot read samples file: {exc}")
    if raw.shape[1] != dimension + 1:
        _fail("invalid_config", "samples file dimension does not match config")
    return raw[:, 1:]


def _cmd_cf_check(cfg, out, seed, threads, stamp):
    sigma, model, tempering, plan = _build_all(cfg, seed)
    cc, gc = cfg["cf_check"], cfg["cf_check"]["grid"]
    grid = analytics.default_cf_grid(sigma.dimension, gc["lo"], gc["hi"], gc["points"])
    exponent = analytics.LevyExponent(model.alpha, sigma, tempering, cc["convention"])
    if cc["self_test"]:
        # One evaluation serves as both sides of the comparison.
        psi = exponent.eval_grid(grid)
        if cc["drift"] is not None:
            psi = psi + 1j * (grid @ np.asarray(cc["drift"]))
        cf = analytics.CFGrid(points=grid, values=np.exp(psi))
        dist = analytics.cf_distance(cf, psi)
    else:
        if cc["samples"]:
            samples = _read_samples(cc["samples"], sigma.dimension)
        else:
            samples = engine.simulate_rowsum(plan, model, tempering, threads=threads)
        cf = analytics.empirical_cf(samples, grid)
        dist = analytics.cf_distance(cf, exponent, drift=cc["drift"])
    header = (",".join(f"lambda_{i + 1}" for i in range(sigma.dimension))
              + ",re_emp,im_emp,re_theory,im_theory,abs_err")
    _write_csv(out / "cf_table.csv", header, np.column_stack([
        cf.points, cf.values.real, cf.values.imag,
        dist.theory.real, dist.theory.imag, dist.per_point]))
    threshold = cc["threshold"]
    return _write_report(out, stamp, [_check(
        "cf_check", {"convention": cc["convention"], "exponent": exponent.method,
                     "n": plan.n, "replicates": plan.replicates, "seed": plan.seed},
        dist.sup_abs, threshold, dist.sup_abs <= threshold)])


def _diag_vague(entry, model, tempering, plan):
    sectors = [analytics.Sector(sc["r_lo"], sc["r_hi"], sc["atoms"]) for sc in entry["sectors"]]
    n = plan.n if entry["n"] is None else entry["n"]
    draws, rel_tol = entry["draws"], entry["rel_tol"]
    rows = analytics.vague_convergence_table(
        model, tempering, n, sectors, draws, seed=plan.seed)
    checks = []
    for row in rows:
        params = {"r_lo": row.sector.r_lo, "r_hi": row.sector.r_hi,
                  "atoms": row.sector.atoms, "n": n, "draws": draws,
                  "hits": row.hits, "target": row.target,
                  "estimate": row.estimate, "std_error": row.std_error}
        passed = row.undersampled or row.rel_error <= rel_tol
        checks.append(_check(
            "vague_convergence", params, row.rel_error, rel_tol, passed,
            warnings=(["undersampled"] if row.undersampled else []),
        ))
    return checks


def _diag_uan(entry, model, tempering, plan):
    deltas = np.geomspace(0.05, 1.0, 9) if entry["deltas"] is None else entry["deltas"]
    n = plan.n if entry["n"] is None else entry["n"]
    band = entry["band"]
    profile = analytics.uan_profile(model, tempering, n, deltas)
    target = 2.0 - model.alpha
    passed = abs(profile.slope - target) <= band
    return [_check(
        "uan_profile",
        {"n": n, "deltas": [float(d) for d in profile.deltas],
         "values": [float(v) for v in profile.values], "target_slope": target},
        profile.slope, band, passed,
    )]


def _diag_regularity(entry, model, tempering, plan):
    report = tempering.verify_regularity(entry["beta"])
    return [_check(
        "tempering_regularity", {"beta": entry["beta"], "sup_value": report.sup_value},
        report.sup_value, None, report.bounded,
    )]


def _cmd_diagnose(cfg, out, seed, threads, stamp):
    _, model, tempering, plan = _build_all(cfg, seed)
    checks = []
    for entry in cfg["diagnostics"]:
        checks.extend(_DIAGNOSTICS[entry["type"]][1](entry, model, tempering, plan))
    return _write_report(out, stamp, checks)


def _cmd_density(cfg, out, seed, threads, stamp):
    sigma, model, tempering, plan = _build_all(cfg, seed)
    if sigma.dimension != 1:
        _fail("dimension_unsupported", "density inversion is 1-d only")
    dc, xc = cfg["density"], cfg["density"]["x"]
    x = np.linspace(xc["lo"], xc["hi"], xc["points"])
    exponent = analytics.LevyExponent(model.alpha, sigma, tempering, dc["convention"])
    result = analytics.density_1d(exponent, dc["drift"], x)
    _write_csv(out / "density.csv", "x,density", np.column_stack([result.x, result.density]))
    threshold = dc["mass_defect_tol"]
    return _write_report(out, stamp, [_check(
        "density_mass", {"convention": dc["convention"], "exponent": exponent.method,
                         "window": result.window, "clipped_mass": result.clipped_mass},
        result.mass_defect, threshold, result.mass_defect <= threshold)])


_COMMANDS = {
    "simulate": _cmd_simulate,
    "paths": _cmd_paths,
    "cf-check": _cmd_cf_check,
    "diagnose": _cmd_diagnose,
    "density": _cmd_density,
}


# ------------------------------------------------------------ config schema

_REQUIRED = object()

_SCALARS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _read(value, spec, path):
    """``value`` checked against ``spec`` at the JSON path ``path``, with
    defaults filled in; every mismatch is an ``invalid_config`` error.

    A spec is a dict (an object with exactly those keys; a field written
    ``(spec, default)`` is optional, and null stands for a default of None),
    ``[spec]`` (a list of such items), a set of strings (one of them), one of
    the types of ``_SCALARS`` or a reader ``f(value, path)``.
    """
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            _fail("invalid_config", f"{path} must be an object")
        for key in sorted(value.keys() - spec.keys()):
            _fail("invalid_config", f"{path}.{key} is not a config field")
        out = {}
        for key, field in spec.items():
            field, default = field if isinstance(field, tuple) else (field, _REQUIRED)
            item = value.get(key, default)
            if item is _REQUIRED:
                _fail("invalid_config", f"{path}.{key} is required")
            unset = item is None and default is None
            out[key] = None if unset else _read(item, field, f"{path}.{key}")
        return out
    if isinstance(spec, list):
        if not isinstance(value, list):
            _fail("invalid_config", f"{path} must be a list")
        return [_read(item, spec[0], f"{path}[{i}]") for i, item in enumerate(value)]
    if isinstance(spec, set):
        if not (isinstance(value, str) and value in spec):
            _fail("invalid_config", f"{path} must be one of {', '.join(sorted(spec))}")
        return value
    if spec not in _SCALARS:
        return spec(value, path)
    # JSON gives exact types, so true is a bool and not an int; a float field
    # takes integers too, but not NaN, the infinities or integers past them
    kinds = (int, float) if spec is float else (spec,)
    if type(value) not in kinds or (spec is float and not abs(value) <= sys.float_info.max):
        _fail("invalid_config", f"{path} must be {_SCALARS[spec]}")
    return float(value) if spec is float else value


def _radial(value, path):
    """model.radial: "exact_pareto", or a {"scales", "weights"} mixture."""
    if isinstance(value, dict):
        mix = _read(value, {"scales": [float], "weights": [float]}, path)
        return MixedScalePareto(tuple(mix["scales"]), tuple(mix["weights"]))
    return _read(value, {EXACT_PARETO}, path)


def _rates(value, path):
    """tempering.rates: one rate for every atom, or {"atom index": rate}."""
    if isinstance(value, dict):
        return {key: _read(rate, float, f"{path}.{key}") for key, rate in value.items()}
    return _read(value, float, path)


def _r_hi(value, path):
    """A sector's r_hi: a number, or "inf"."""
    return math.inf if value == "inf" else _read(value, float, path)


def _diagnostic(value, path):
    """A diagnostics entry, read by the schema of its ``type``."""
    kind = value.get("type") if isinstance(value, dict) else None
    _read(kind, set(_DIAGNOSTICS), f"{path}.type")
    return _read(value, _DIAGNOSTICS[kind][0], path)


# type -> (schema of a diagnostics entry, handler(entry, model, tempering, plan))
_DIAGNOSTICS = {
    "vague_convergence": ({
        "type": str, "n": (int, None), "draws": (int, 10 ** 6), "rel_tol": (float, 0.05),
        "sectors": [{"r_lo": float, "r_hi": (_r_hi, "inf"), "atoms": ([int], None)}],
    }, _diag_vague),
    "uan": ({"type": str, "n": (int, None), "deltas": ([float], None),
             "band": (float, 0.15)}, _diag_uan),
    "regularity": ({"type": str, "beta": float}, _diag_regularity),
}

_CONVENTIONS = {analytics.TRUNCATED, analytics.MEAN_ZERO, analytics.DRIFT_FREE}

# The whole config file.  custom_q is a library-level family: its q is code.
_CONFIG = {
    "sigma": [{"direction": [float], "weight": float}],
    "model": {"alpha": float, "x_m": (float, 1.0), "radial": (_radial, EXACT_PARETO)},
    "tempering": {"family": set(FAMILIES) - {CUSTOM_Q}, "rates": (_rates, None),
                  "alpha": (float, None)},
    "plan": {
        "n": int, "replicates": int, "seed": (int, None),
        "centering": ({engine.CENTER_NONE, engine.CENTER_TRUNCATED_MEAN,
                       engine.CENTER_JUMP_MEAN}, engine.CENTER_NONE),
        "v_override": (float, None), "time_grid": ([float], None),
    },
    "cf_check": ({
        "convention": (_CONVENTIONS, analytics.TRUNCATED), "threshold": (float, 0.05),
        "grid": ({"lo": (float, -5.0), "hi": (float, 5.0), "points": (int, 201)}, {}),
        "self_test": (bool, False), "samples": (str, None), "drift": ([float], None),
    }, {}),
    "diagnostics": ([_diagnostic], []),
    "density": ({
        "convention": (_CONVENTIONS, analytics.TRUNCATED),
        "x": ({"lo": (float, -10.0), "hi": (float, 10.0), "points": (int, 201)}, {}),
        "mass_defect_tol": (float, 1e-4), "drift": ([float], None),
    }, {}),
    "outputs": (str, "."),
}


def _load_config(path):
    """The config read by _CONFIG, and the provenance keys of every
    meta/report.json."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        _fail("config_unreadable", f"cannot read config file: {exc}")
    try:
        cfg = json.loads(data.decode())
    except json.JSONDecodeError as exc:
        _fail("invalid_config", f"config is not valid JSON: {exc}")
    stamp = {"rng_layout": engine.RNG_LAYOUT, "version": __version__,
             "config_sha256": hashlib.sha256(data).hexdigest()}
    return _read(cfg, _CONFIG, "config"), stamp


# -------------------------------------------------------------- entrypoint


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors (exit 2, one
    JSON line), not a usage block; --help still prints and exits 0."""

    def error(self, message):
        _fail("usage", f"{self.prog}: {message}")


def _parser():
    parser = _Parser(
        prog="temperedwalk",
        description="Simulate tempered heavy-tailed random walks and check "
                    "their limit laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override plan seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (never changes output bytes)")
    return parser


def run(argv=None):
    """Run one subcommand; returns its exit code.  Python warnings print
    after exit 0 or 1 and join the one JSON line of exit 2 or 3."""
    with warnings.catch_warnings(record=True) as caught:
        code, error = _run(argv)
    if error:
        _emit_error(*error, [f"{w.category.__name__}: {w.message}" for w in caught])
    else:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


def _run(argv):
    """(exit code, None or the (code, message) of an error)."""
    try:
        args = _parser().parse_args(argv)
        cfg, stamp = _load_config(args.config)
        if args.threads < 1:
            _fail("invalid_config", "--threads must be at least 1")
        out = Path(args.out) if args.out else Path(cfg["outputs"])
        out.mkdir(parents=True, exist_ok=True)
        numerics.quad_calls = 0  # counted per run for report.json
        return _COMMANDS[args.command](cfg, out, args.seed, args.threads, stamp), None
    except SystemExit as exc:  # --help
        return int(exc.code or 0), None
    except ConfigError as exc:
        return 2, (exc.code, str(exc))
    except ArithmeticError as exc:
        return 3, ("numeric", str(exc))
    except OSError as exc:
        return 2, ("io", str(exc))
    except ValueError as exc:
        # library-level validation tripped by config-derived values
        return 2, ("invalid_config", str(exc))
    except Exception as exc:
        # Keep the one-line contract; the innermost frame says where it broke.
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return 3, ("internal", f"{type(exc).__name__}: {exc} "
                               f"(at {Path(frame.filename).name}:{frame.lineno} in {frame.name})")


def _emit_error(code, message, caught):
    extra = {"warnings": caught} if caught else {}
    print(json.dumps({"error": {"code": code, "message": message, **extra}}), file=sys.stderr)


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()

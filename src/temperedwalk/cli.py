"""Command-line driver.

Subcommands map to the library's experiment layers: ``simulate`` (row sums),
``paths`` (partial-sum skeletons), ``cf-check`` (empirical vs analytic CF),
``diagnose`` (vague convergence, UAN, tempering regularity), ``density``
(1-d CF inversion).  Everything is driven by one JSON config file; --seed and
--threads override at the command line, and --threads never changes output
bytes.

Exit codes: 0 success, 1 a diagnostic check failed, 2 config/usage error,
3 numeric (quadrature/inversion) failure or any other internal error.  Codes
2 and 3 print one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import traceback
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__, analytics, engine
from .jumps import EXACT_PARETO, JumpModel, MixedScalePareto
from .spectral import SpectralMeasure
from .tempering import FAMILIES, NoTempering, RateFamily

__all__ = ["main", "run", "ConfigError"]


class ConfigError(Exception):
    """Config or usage problem; carries a machine-readable code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _fail(code, message):
    raise ConfigError(code, message)


# ------------------------------------------------------------- config load


def _load_config(path):
    """The config object, and the provenance keys of every meta/report.json."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        _fail("config_unreadable", f"cannot read config file: {exc}")
    try:
        cfg = json.loads(data.decode())
    except json.JSONDecodeError as exc:
        _fail("invalid_config", f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        _fail("invalid_config", "config root must be an object")
    stamp = {"rng_layout": engine.RNG_LAYOUT, "version": __version__,
             "config_sha256": hashlib.sha256(data).hexdigest()}
    return cfg, stamp


def _need(mapping, key, where):
    if key not in mapping:
        _fail("invalid_config", f"missing {key!r} in {where}")
    return mapping[key]


def _object(value, where):
    """A config section, which must be a JSON object."""
    if not isinstance(value, dict):
        _fail("invalid_config", f"{where} must be an object")
    return value


@contextmanager
def _config_values(where):
    """Make a config value of the wrong type or form a config error."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        _fail("invalid_config", f"bad {where}: {exc}")


def _build_sigma(cfg):
    atoms = cfg.get("sigma")
    if isinstance(atoms, dict):
        atoms = atoms.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        _fail("invalid_config", "sigma must list at least one atom")
    try:
        dirs = [np.asarray(_need(a, "direction", "sigma atom"), dtype=float) for a in atoms]
        weights = [float(_need(a, "weight", "sigma atom")) for a in atoms]
        return SpectralMeasure(np.vstack([np.atleast_1d(d) for d in dirs]), weights)
    except (ValueError, TypeError) as exc:
        _fail("invalid_config", f"bad spectral measure: {exc}")


def _build_model(cfg, sigma):
    mc = _object(_need(cfg, "model", "config"), "model")
    with _config_values("model"):
        alpha = float(_need(mc, "alpha", "model"))
        x_m = float(mc.get("x_m", 1.0))
    radial_cfg = mc.get("radial", EXACT_PARETO)
    if isinstance(radial_cfg, dict):
        with _config_values("radial mixture"):
            radial = MixedScalePareto(
                tuple(_need(radial_cfg, "scales", "model.radial")),
                tuple(_need(radial_cfg, "weights", "model.radial")),
            )
    elif radial_cfg == EXACT_PARETO:
        radial = EXACT_PARETO
    else:
        _fail("invalid_config", f"unknown radial variant {radial_cfg!r}")
    try:
        return JumpModel(alpha, sigma, x_m=x_m, radial=radial)
    except (ValueError, TypeError) as exc:
        _fail("invalid_config", f"bad jump model: {exc}")


def _build_tempering(cfg, alpha, sigma):
    tc = _object(_need(cfg, "tempering", "config"), "tempering")
    family = _need(tc, "family", "tempering")
    with _config_values("tempering"):
        if "alpha" in tc and abs(float(tc["alpha"]) - alpha) > 1e-12:
            _fail("invalid_config", "tempering alpha must match model alpha")
    spec_class = FAMILIES.get(family) if isinstance(family, str) else None
    if spec_class is NoTempering:
        return spec_class(alpha)
    if spec_class is None or not issubclass(spec_class, RateFamily):
        _fail("invalid_config", f"unknown or non-config tempering family {family!r}")
    rates = _need(tc, "rates", "tempering")
    if isinstance(rates, dict):
        try:
            arr = np.empty(len(sigma))
            seen = set()
            for key, value in rates.items():
                arr[int(key)] = float(value)
                seen.add(int(key))
            if seen != set(range(len(sigma))):
                _fail("invalid_config", "rates map must cover every atom index")
            rates = arr
        except (ValueError, IndexError, TypeError):
            _fail("invalid_config", "rates map must take atom indices to rates")
    try:
        return spec_class(alpha, rates, sigma)
    except (ValueError, TypeError) as exc:
        _fail("invalid_config", f"bad tempering: {exc}")


def _build_plan(cfg, seed_override):
    pc = _object(_need(cfg, "plan", "config"), "plan")
    seed = seed_override if seed_override is not None else pc.get("seed")
    if seed is None:
        _fail("invalid_config", "a seed is required (plan.seed or --seed)")
    grid = pc.get("time_grid")
    try:
        return engine.WalkPlan(
            n=int(_need(pc, "n", "plan")),
            replicates=int(_need(pc, "replicates", "plan")),
            seed=int(seed),
            centering=pc.get("centering", engine.CENTER_NONE),
            v_override=pc.get("v_override"),
            time_grid=tuple(grid) if grid is not None else None,
        )
    except (ValueError, TypeError) as exc:
        _fail("invalid_config", f"bad plan: {exc}")


def _build_all(cfg, seed_override):
    sigma = _build_sigma(cfg)
    model = _build_model(cfg, sigma)
    tempering = _build_tempering(cfg, model.alpha, sigma)
    plan = _build_plan(cfg, seed_override)
    if plan.centering == engine.CENTER_JUMP_MEAN and model.alpha <= 1.0:
        _fail("mean_undefined", "jump_mean centering needs alpha > 1")
    return sigma, model, tempering, plan


# ---------------------------------------------------------------- writers


def _fmt(x):
    return format(float(x), ".17g")


def _columns(values):
    """The columns of a 2-d array as _fmt strings, one format call per value."""
    return [map("{:.17g}".format, col.tolist()) for col in values.T]


def _write_samples(path, batch):
    d = batch.dimension
    header = "replicate," + ",".join(f"x_{i + 1}" for i in range(d))
    rows = zip(map(str, range(batch.replicates)), *_columns(batch.values))
    Path(path).write_text("\n".join([header, *map(",".join, rows)]) + "\n")


def _write_paths(path, batches):
    d = batches[0].dimension
    header = "replicate,t," + ",".join(f"x_{i + 1}" for i in range(d))
    per_time = [map(",".join, zip(repeat(_fmt(b.t)), *_columns(b.values))) for b in batches]
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
        "time_grid": list(plan.time_grid) if plan.time_grid else None,
    }


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_cf_table(path, cf, dist):
    d = cf.points.shape[1]
    header = (
        ",".join(f"lambda_{i + 1}" for i in range(d))
        + ",re_emp,im_emp,re_theory,im_theory,abs_err"
    )
    lines = [header]
    for row, emp, theo, err in zip(cf.points, cf.values, dist.theory, dist.per_point):
        lines.append(
            ",".join(_fmt(v) for v in row)
            + f",{_fmt(emp.real)},{_fmt(emp.imag)},{_fmt(theo.real)},{_fmt(theo.imag)},{_fmt(err)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _check(test, parameters, statistic, threshold, passed, **extra):
    rec = {
        "test": test,
        "parameters": parameters,
        "statistic": statistic,
        "threshold": threshold,
        "pass": bool(passed),
    }
    rec.update(extra)
    return rec


def _write_report(out, stamp, checks):
    """Write report.json; exit code 0 if every check passed, else 1."""
    passed = all(c["pass"] for c in checks)
    _write_json(out / "report.json", {"checks": checks, "pass": passed, **stamp})
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
    cc = _object(cfg.get("cf_check", {}), "cf_check")
    convention = cc.get("convention", analytics.TRUNCATED)
    gc = _object(cc.get("grid", {}), "cf_check.grid")
    with _config_values("cf_check"):
        threshold = float(cc.get("threshold", 0.05))
        grid = analytics.default_cf_grid(
            sigma.dimension,
            lo=float(gc.get("lo", -5.0)),
            hi=float(gc.get("hi", 5.0)),
            points=int(gc.get("points", 201)),
        )
        drift = cc.get("drift")
        drift = None if drift is None else np.asarray(drift, dtype=float)
    try:
        exponent = analytics.LevyExponent(model.alpha, sigma, tempering, convention)
    except ValueError as exc:
        _fail("invalid_config", f"bad convention: {exc}")
    if cc.get("self_test"):
        # One evaluation serves as both sides of the comparison.
        psi = exponent.eval_grid(grid)
        if drift is not None:
            psi = psi + 1j * (grid @ drift)
        cf = analytics.CFGrid(points=grid, values=np.exp(psi))
        dist = analytics.cf_distance(cf, psi)
    else:
        if cc.get("samples"):
            samples = _read_samples(cc["samples"], sigma.dimension)
        else:
            samples = engine.simulate_rowsum(plan, model, tempering, threads=threads)
        cf = analytics.empirical_cf(samples, grid)
        dist = analytics.cf_distance(cf, exponent, drift=drift)
    _write_cf_table(out / "cf_table.csv", cf, dist)
    return _write_report(out, stamp, [_check(
        "cf_check", {"convention": convention, "exponent": exponent.method,
                     "n": plan.n, "replicates": plan.replicates, "seed": plan.seed},
        dist.sup_abs, threshold, dist.sup_abs <= threshold)])


def _diag_vague(cfg_entry, model, tempering, plan):
    with _config_values("vague_convergence diagnostic"):
        sectors = []
        for sc in _need(cfg_entry, "sectors", "vague_convergence diagnostic"):
            sc = _object(sc, "sector")
            r_hi = sc.get("r_hi")
            sectors.append(analytics.Sector(
                r_lo=float(_need(sc, "r_lo", "sector")),
                r_hi=float("inf") if r_hi in (None, "inf") else float(r_hi),
                atoms=tuple(sc["atoms"]) if sc.get("atoms") is not None else None,
            ))
        n = int(cfg_entry.get("n", plan.n))
        draws = int(cfg_entry.get("draws", 10 ** 6))
        rel_tol = float(cfg_entry.get("rel_tol", 0.05))
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


def _diag_uan(cfg_entry, model, tempering, plan):
    with _config_values("uan diagnostic"):
        deltas = [float(d) for d in cfg_entry.get("deltas") or np.geomspace(0.05, 1.0, 9)]
        n = int(cfg_entry.get("n", plan.n))
        band = float(cfg_entry.get("band", 0.15))
    profile = analytics.uan_profile(model, tempering, n, deltas)
    target = 2.0 - model.alpha
    passed = abs(profile.slope - target) <= band
    return [_check(
        "uan_profile",
        {"n": n, "deltas": [float(d) for d in profile.deltas],
         "values": [float(v) for v in profile.values], "target_slope": target},
        profile.slope, band, passed,
    )]


def _diag_regularity(cfg_entry, model, tempering):
    with _config_values("regularity diagnostic"):
        beta = float(_need(cfg_entry, "beta", "regularity diagnostic"))
        report = tempering.verify_regularity(beta)
    return [_check(
        "tempering_regularity", {"beta": beta, "sup_value": report.sup_value},
        report.sup_value, None, report.bounded,
    )]


def _cmd_diagnose(cfg, out, seed, threads, stamp):
    _, model, tempering, plan = _build_all(cfg, seed)
    checks = []
    entries = cfg.get("diagnostics", [])
    if not isinstance(entries, list):
        _fail("invalid_config", "diagnostics must be a list")
    for entry in entries:
        kind = _need(_object(entry, "diagnostics entry"), "type", "diagnostics entry")
        if kind == "vague_convergence":
            checks.extend(_diag_vague(entry, model, tempering, plan))
        elif kind == "uan":
            checks.extend(_diag_uan(entry, model, tempering, plan))
        elif kind == "regularity":
            checks.extend(_diag_regularity(entry, model, tempering))
        else:
            _fail("invalid_config", f"unknown diagnostic type {kind!r}")
    return _write_report(out, stamp, checks)


def _cmd_density(cfg, out, seed, threads, stamp):
    sigma, model, tempering, plan = _build_all(cfg, seed)
    if sigma.dimension != 1:
        _fail("dimension_unsupported", "density inversion is 1-d only")
    dc = _object(cfg.get("density", {}), "density")
    convention = dc.get("convention", analytics.TRUNCATED)
    gc = _object(dc.get("x", {}), "density.x")
    with _config_values("density"):
        x = np.linspace(float(gc.get("lo", -10.0)), float(gc.get("hi", 10.0)),
                        int(gc.get("points", 201)))
        threshold = float(dc.get("mass_defect_tol", 1e-4))
        drift = dc.get("drift")
        drift = None if drift is None else np.asarray(drift, dtype=float)
    try:
        exponent = analytics.LevyExponent(model.alpha, sigma, tempering, convention)
    except ValueError as exc:
        _fail("invalid_config", f"bad convention: {exc}")
    result = analytics.density_1d(exponent, drift, x)
    lines = ["x,density"]
    for xi, di in zip(result.x, result.density):
        lines.append(f"{_fmt(xi)},{_fmt(di)}")
    (out / "density.csv").write_text("\n".join(lines) + "\n")
    return _write_report(out, stamp, [_check(
        "density_mass", {"convention": convention, "exponent": exponent.method,
                         "window": result.window, "clipped_mass": result.clipped_mass},
        result.mass_defect, threshold, result.mass_defect <= threshold)])


_COMMANDS = {
    "simulate": _cmd_simulate,
    "paths": _cmd_paths,
    "cf-check": _cmd_cf_check,
    "diagnose": _cmd_diagnose,
    "density": _cmd_density,
}


# -------------------------------------------------------------- entrypoint


def _parser():
    parser = argparse.ArgumentParser(
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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        cfg, stamp = _load_config(args.config)
        out = Path(args.out) if args.out else Path(cfg.get("outputs", "."))
        out.mkdir(parents=True, exist_ok=True)
        if args.threads < 1:
            _fail("invalid_config", "--threads must be at least 1")
        return _COMMANDS[args.command](cfg, out, args.seed, args.threads, stamp)
    except ConfigError as exc:
        _emit_error(exc.code, str(exc))
        return 2
    except ArithmeticError as exc:
        _emit_error("numeric", str(exc))
        return 3
    except OSError as exc:
        _emit_error("io", str(exc))
        return 2
    except ValueError as exc:
        # library-level validation tripped by config-derived values
        _emit_error("invalid_config", str(exc))
        return 2
    except Exception as exc:
        # Keep the one-line contract; the innermost frame says where it broke.
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        _emit_error("internal", f"{type(exc).__name__}: {exc} "
                                f"(at {Path(frame.filename).name}:{frame.lineno} in {frame.name})")
        return 3


def _emit_error(code, message):
    print(json.dumps({"error": {"code": code, "message": message}}), file=sys.stderr)


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()

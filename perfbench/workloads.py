"""The benchmark's workloads: program inputs made from the seed, and checks.

A workload is a set-up step and a round of subcommand calls.  Each call has
a slot (``call1_s``, ``call2_s``, ``call3_s``) and a check that compares the
call's output files with the references in ``reference.py`` or with a
property the method must have.  A check returns a list of problems; an empty
list means the output is correct.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

import reference as ref

DEMO = ref.Law(0.7, 1.0, ref.CE, ((1.0, 0.7), (-1.0, 0.3)))
ONE_SIDED_EXPQ = ref.Law(1.5, 1.0, ref.EXPQ, ((1.0, 1.0),))
ONE_SIDED_CE = ref.Law(1.5, 1.0, ref.CE, ((1.0, 1.0),))
TWO_SIDED_EXPQ = ref.Law(0.7, 1.0, ref.EXPQ, ((1.0, 0.7), (-1.0, 0.3)))

# Monte Carlo budgets, in standard errors: a CF point has E|ecf - phi|^2 <= 1/R,
# so 5/sqrt(R) is a 5-sigma bound at every grid point; means use 4 se.
CF_SIGMAS = 5.0
MEAN_SIGMAS = 4.0
CF_LAMBDAS = np.linspace(-3.0, 3.0, 25)


@dataclass
class Call:
    slot: str
    argv: list
    check: object  # () -> list of problems


@dataclass
class Workload:
    name: str
    seed: int
    setup: object  # () -> None; program work that later rounds read
    calls: list = field(default_factory=list)


# ------------------------------------------------------------------ helpers


def _write_config(path, law, plan, **sections):
    path.write_text(json.dumps({**law.config(), "plan": plan, **sections}))
    return str(path)


def _argv(sub, config, out, seed, threads=1):
    return [sub, "--config", config, "--out", str(out), "--seed", str(seed),
            "--threads", str(threads)]


def _samples(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]


def _paths(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {t: data[data[:, 1] == t, 2] for t in np.unique(data[:, 1])}


def _lines_at(path, t):
    """Value fields of paths.csv rows at time t, in replicate order."""
    lines = path.read_text().splitlines()[1:]
    return [ln.split(",", 2)[2] for ln in lines if float(ln.split(",")[1]) == t]


def _meta(out):
    return json.loads((out / "meta.json").read_text())


def _report_problem(label, out):
    report = json.loads((out / "report.json").read_text())
    return [] if report["pass"] is True else [f"{label}: report.json does not pass"]


def _ecf(values, lams):
    return np.exp(1j * np.outer(values, lams)).mean(axis=0)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _cf_problem(label, values, expected):
    budget = CF_SIGMAS / math.sqrt(len(values))
    gap = float(np.abs(_ecf(values, CF_LAMBDAS) - expected).max())
    return [] if gap <= budget else [f"{label}: sup|ecf - phi_n| = {gap:.4g} > {budget:.4g}"]


def _mean_problem(label, values, expected):
    se = values.std(ddof=1) / math.sqrt(len(values))
    gap = abs(values.mean() - expected)
    if gap <= MEAN_SIGMAS * se:
        return []
    return [f"{label}: |mean - mu_n| = {gap:.4g} > {MEAN_SIGMAS:g} se = {MEAN_SIGMAS * se:.4g}"]


def _center_problem(label, out, expected, tol=1e-8):
    got = _meta(out)["a_n"][0]
    return [] if _rel(got, expected) <= tol else [f"{label}: a_n {got!r} != {expected!r}"]


# ---------------------------------------------------------------- workloads


def walk(work, seed):
    """n = 10^4: simulate and paths on the demo law, simulate on exponential_q."""
    n, reps, grid = 10_000, 1000, (0.25, 0.5, 0.75, 1.0)
    demo_plan = {"n": n, "replicates": reps, "seed": seed, "centering": "none",
                 "time_grid": list(grid)}
    expq_plan = {"n": n, "replicates": reps, "seed": seed, "centering": "truncated_mean"}
    demo = _write_config(work / "demo.json", DEMO, demo_plan)
    expq = _write_config(work / "expq.json", ONE_SIDED_EXPQ, expq_plan)
    out = {k: work / k for k in ("samples", "paths", "expq")}
    demo_cf = {t: ref.rowsum_cf(DEMO, n, CF_LAMBDAS, t=t) for t in grid}
    expq_center = ref.truncated_center(ONE_SIDED_EXPQ, n)
    expq_cf = ref.rowsum_cf(ONE_SIDED_EXPQ, n, CF_LAMBDAS, center=expq_center)

    def check_samples():
        meta = _meta(out["samples"])
        problems = _cf_problem("simulate", _samples(out["samples"] / "samples.csv"), demo_cf[1.0])
        if _rel(meta["v_n"], n ** (1 / DEMO.alpha)) > 1e-12 or meta["a_n"] != [0.0]:
            problems.append(f"simulate: v_n {meta['v_n']!r} or a_n {meta['a_n']!r} wrong")
        return problems

    def check_paths():
        by_t = _paths(out["paths"] / "paths.csv")
        problems = [p for t in grid for p in _cf_problem(f"paths t={t}", by_t[t], demo_cf[t])]
        rows = (out["samples"] / "samples.csv").read_text().splitlines()[1:]
        if _lines_at(out["paths"] / "paths.csv", 1.0) != [r.split(",", 1)[1] for r in rows]:
            problems.append("paths: t = 1 differs from samples.csv of the same seed")
        return problems

    def check_expq():
        return (_center_problem("simulate expq", out["expq"], expq_center)
                + _cf_problem("simulate expq", _samples(out["expq"] / "samples.csv"), expq_cf))

    return Workload("walk", seed, setup=lambda: None, calls=[
        Call("call1_s", _argv("simulate", demo, out["samples"], seed), check_samples),
        Call("call2_s", _argv("paths", demo, out["paths"], seed), check_paths),
        Call("call3_s", _argv("simulate", expq, out["expq"], seed), check_expq),
    ])


def walk_small_n(work, seed):
    """n = 10, many replicates: simulate at 1 and 2 threads, paths at 1."""
    n, reps, grid = 10, 20_000, (0.5, 1.0)
    plan = {"n": n, "replicates": reps, "seed": seed, "centering": "jump_mean",
            "time_grid": list(grid)}
    config = _write_config(work / "small.json", ONE_SIDED_CE, plan)
    out = {k: work / k for k in ("threads1", "threads2", "paths")}
    center = ref.jump_mean_center(ONE_SIDED_CE, n)
    mean = ref.rowsum_mean(ONE_SIDED_CE, n, center=center)
    cf = {t: ref.rowsum_cf(ONE_SIDED_CE, n, CF_LAMBDAS, center=center, t=t) for t in grid}

    def check_threads1():
        return (_center_problem("simulate", out["threads1"], center)
                + _mean_problem("simulate", _samples(out["threads1"] / "samples.csv"), mean))

    def check_threads2():
        same = ((out["threads2"] / "samples.csv").read_bytes()
                == (out["threads1"] / "samples.csv").read_bytes())
        return [] if same else ["simulate: samples.csv differs between 1 and 2 threads"]

    def check_paths():
        by_t = _paths(out["paths"] / "paths.csv")
        problems = [p for t in grid for p in _cf_problem(f"paths t={t}", by_t[t], cf[t])]
        rows = (out["threads1"] / "samples.csv").read_text().splitlines()[1:]
        if _lines_at(out["paths"] / "paths.csv", 1.0) != [r.split(",", 1)[1] for r in rows]:
            problems.append("paths: t = 1 differs from samples.csv of the same seed")
        return problems

    return Workload("walk-small-n", seed, setup=lambda: None, calls=[
        Call("call1_s", _argv("simulate", config, out["threads1"], seed, 1), check_threads1),
        Call("call2_s", _argv("simulate", config, out["threads2"], seed, 2), check_threads2),
        Call("call3_s", _argv("paths", config, out["paths"], seed, 1), check_paths),
    ])


def limit_law(work, seed):
    """cf-check on stored samples, density and diagnose: no timed simulation."""
    n, reps = 1000, 4000
    lams = np.linspace(-4.0, 4.0, 31)
    x = np.linspace(-12.0, 12.0, 241)
    sectors = [{"r_lo": 0.5}, {"r_lo": 1.0, "r_hi": 3.0, "atoms": [0]}]
    samples_out = work / "samples"
    out = {k: work / k for k in ("cf", "density", "diagnose")}

    psi = ref.limit_exponent(TWO_SIDED_EXPQ, "drift_free", lams)
    finite_gap = float(np.abs(ref.rowsum_cf(TWO_SIDED_EXPQ, n, lams) - np.exp(psi)).max())
    # The program's own check compares the empirical CF with the limit: its
    # threshold is the exact finite-n gap plus the Monte Carlo budget.
    threshold = finite_gap + CF_SIGMAS / math.sqrt(reps)
    two = _write_config(
        work / "cf.json", TWO_SIDED_EXPQ,
        {"n": n, "replicates": reps, "seed": seed, "centering": "none"},
        cf_check={"convention": "drift_free", "threshold": threshold,
                  "grid": {"lo": lams[0], "hi": lams[-1], "points": len(lams)},
                  "samples": str(samples_out / "samples.csv")})
    one = _write_config(
        work / "one.json", ONE_SIDED_CE,
        {"n": n, "replicates": reps, "seed": seed, "centering": "truncated_mean"},
        density={"convention": "truncated",
                 "x": {"lo": x[0], "hi": x[-1], "points": len(x)}},
        diagnostics=[
            {"type": "vague_convergence", "n": 50, "draws": 2_000_000,
             "rel_tol": 0.05, "sectors": sectors},
            {"type": "uan", "n": 100_000, "band": 0.15},
            {"type": "regularity", "beta": 1.9},
        ])
    density = ref.invert_density(
        lambda lam: ref.limit_exponent(ONE_SIDED_CE, "truncated", lam), x)

    def setup():
        from temperedwalk import cli

        rc = cli.run(_argv("simulate", two, samples_out, seed))
        if rc != 0:
            raise RuntimeError(f"set-up simulate exited {rc}")

    def check_cf():
        table = np.loadtxt(out["cf"] / "cf_table.csv", delimiter=",", skiprows=1, ndmin=2)
        theory = table[:, 3] + 1j * table[:, 4]
        emp = table[:, 1] + 1j * table[:, 2]
        problems = _report_problem("cf-check", out["cf"])
        if not np.allclose(table[:, 0], lams, rtol=0, atol=1e-12):
            problems.append("cf-check: grid differs")
        if np.abs(theory - np.exp(psi)).max() > 1e-8:
            problems.append("cf-check: theory columns differ from the closed form")
        if np.abs(emp - _ecf(_samples(samples_out / "samples.csv"), lams)).max() > 1e-10:
            problems.append("cf-check: empirical columns differ from the samples' CF")
        return problems

    def check_density():
        table = np.loadtxt(out["density"] / "density.csv", delimiter=",", skiprows=1)
        gap = float(np.abs(table[:, 1] - density).max())
        problems = _report_problem("density", out["density"])
        return problems + ([] if gap <= 1e-9 else [f"density: max |f - f_ref| = {gap:.3g}"])

    def check_diagnose():
        report = json.loads((out["diagnose"] / "report.json").read_text())
        vague = [c["parameters"] for c in report["checks"] if c["test"] == "vague_convergence"]
        problems = _report_problem("diagnose", out["diagnose"])
        if len(vague) != len(sectors):
            problems.append("diagnose: missing vague rows")
        for p in vague:
            target = ref.sector_mass(ONE_SIDED_CE, p["r_lo"], p["r_hi"], p["atoms"])
            if _rel(p["target"], target) > 1e-8:
                problems.append(f"diagnose: target {p['target']!r} != {target!r}")
        return problems

    cf = Call("call1_s", _argv("cf-check", two, out["cf"], seed), check_cf)
    dens = Call("call2_s", _argv("density", one, out["density"], seed), check_density)
    diag = Call("call3_s", _argv("diagnose", one, out["diagnose"], seed), check_diagnose)
    # density takes about ten times as long as cf-check and forty times as
    # long as diagnose; running those two twice a round gives each slot more
    # samples in a run.
    return Workload("limit-law", seed, setup=setup, calls=[cf, diag, dens, cf, diag])


WORKLOADS = {"walk": walk, "walk-small-n": walk_small_n, "limit-law": limit_law}

"""Acceptance gate: ten criteria (A1-A10) run at full scale.

Each test prints one PASS/FAIL line with the measured statistic so the gate
can be read off the terminal even when a criterion is red.  Simulation-based
criteria use fixed seeds; the heavy ones take a minute or two each.
"""

import json
import math
import time

import numpy as np
from scipy import stats

import finite_n_law
from temperedwalk import analytics, cli, engine
from temperedwalk.analytics import LevyExponent, Sector
from temperedwalk.engine import WalkPlan
from temperedwalk.jumps import JumpModel
from temperedwalk.spectral import SpectralMeasure
from temperedwalk.tempering import TemperingSpec

ONE = SpectralMeasure([[1.0]], [1.0])
MIX = SpectralMeasure([[1.0], [-1.0]], [0.7, 0.3])
SYM = SpectralMeasure([[1.0], [-1.0]], [0.5, 0.5])

GRID = np.linspace(-5.0, 5.0, 201).reshape(-1, 1)

# Rows at which A5 and A6 measure how fast the exact finite-n law of the
# one-sided alpha = 1.5 walk approaches its limit, and the rate the
# second-order term of the row-sum CF predicts, n^(1 - 2/alpha).
FLOOR_NS = (10 ** 4, 10 ** 5, 10 ** 6)
FLOOR_SLOPE = 1.0 - 2.0 / 1.5


def _line(capsys, text):
    with capsys.disabled():
        print("\n" + text, flush=True)


def _fd_derivative(pi, u):
    # Richardson-extrapolated central difference; independent of the
    # closed-form derivative routes inside the library.
    h = 1e-3 * u
    d1 = (pi(u + h) - pi(u - h)) / (2.0 * h)
    d2 = (pi(u + 0.5 * h) - pi(u - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _loglog_slopes(gaps):
    # Slope of log|gap| against log n between successive FLOOR_NS.
    return np.diff(np.log(np.abs(gaps))) / np.diff(np.log(FLOOR_NS))


def _fmt(values):
    return "/".join(f"{x:.4f}" for x in values)


def _sup_cf_error(batch, exponent):
    cf = analytics.empirical_cf(batch, GRID)
    return analytics.cf_distance(cf, exponent).sup_abs


# --------------------------------------------------------------------- A1


def test_a1_survival_identity(capsys):
    """alpha*pi(r) - r*pi'(r) recovers q(r) for every family, with the
    derivative taken by finite differences rather than the library's own
    formula."""
    t0 = time.perf_counter()
    families = [
        TemperingSpec.conditionally_exponential(0.7, 1.0, ONE),
        TemperingSpec.conditionally_exponential(1.5, 1.0, ONE),
        TemperingSpec.exponential_q(1.5, 2.0, ONE),
        TemperingSpec.no_tempering(1.2),
    ]
    rs = np.geomspace(1e-3, 1e2, 40)
    worst = 0.0
    for spec in families:
        a = spec.alpha
        err = max(
            abs(a * spec.pi(r) - r * _fd_derivative(spec.pi, r) - spec.q(r))
            for r in rs
        )
        worst = max(worst, err / (1e-6 * a))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 5.0
    _line(capsys, f"A1 {'PASS' if ok else 'FAIL'} worst identity error = "
                  f"{worst:.3g} of budget 1e-6*alpha ({elapsed:.1f}s)")
    assert worst <= 1.0
    assert elapsed < 5.0


# --------------------------------------------------------------------- A2


def test_a2_tempering_sampler_ks(capsys):
    """10^5 draws of the tempering variable match 1 - pi in KS distance for
    each built-in family.  The draws come from the vectorized sampler that
    the engine's jump source uses, fed its ``t_uniforms`` uniforms per draw."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.Philox(key=np.array([2026, 0], dtype=np.uint64)))
    atoms = np.zeros(100_000, dtype=np.int64)

    nt = TemperingSpec.no_tempering(1.2)
    nodraws = nt._t_from_uniform(rng.random((nt.t_uniforms, 100_000)), atoms)
    # survival is identically 1: every draw must be the +inf sentinel, which
    # makes the KS distance exactly zero on the positive axis
    ks_nt = 0.0 if np.all(np.isinf(nodraws)) else 1.0

    stats_out = {"no_tempering": ks_nt}
    for name, spec in [
        ("cond_exponential", TemperingSpec.conditionally_exponential(0.7, 1.0, ONE)),
        ("exponential_q", TemperingSpec.exponential_q(1.5, 2.0, ONE)),
    ]:
        draws = spec._t_from_uniform(rng.random((spec.t_uniforms, 100_000)), atoms)
        stats_out[name] = stats.kstest(draws, lambda t: 1.0 - spec.pi(t)).statistic

    elapsed = time.perf_counter() - t0
    worst = max(stats_out.values())
    ok = worst <= 0.01 and elapsed < 10.0
    _line(capsys, f"A2 {'PASS' if ok else 'FAIL'} KS = " +
          ", ".join(f"{k}:{v:.4f}" for k, v in stats_out.items()) +
          f" <= 0.01 ({elapsed:.1f}s)")
    assert worst <= 0.01
    assert elapsed < 10.0


# --------------------------------------------------------------------- A3


def test_a3_stable_reduction_symmetric(capsys):
    """Without tempering and with symmetric unit-mass directions, the row
    sums reproduce the symmetric stable CF; the library's exponent is first
    cross-checked against the closed form -sqrt(2*pi)*|lam|^1.5."""
    t0 = time.perf_counter()
    nt = TemperingSpec.no_tempering(1.5)
    ex = LevyExponent(1.5, SYM, nt, analytics.MEAN_ZERO)
    lam = GRID[:, 0]
    closed = -math.sqrt(2.0 * math.pi) * np.abs(lam) ** 1.5
    psi = ex.eval_grid(GRID)
    assert np.max(np.abs(psi - closed)) <= 1e-6 * (1.0 + np.max(np.abs(closed)))

    plan = WalkPlan(n=5000, replicates=50_000, seed=101, centering="jump_mean")
    batch = engine.simulate_rowsum(plan, JumpModel(1.5, SYM), nt)
    sup = _sup_cf_error(batch, ex)
    elapsed = time.perf_counter() - t0
    ok = sup <= 0.05
    _line(capsys, f"A3 {'PASS' if ok else 'FAIL'} sup|ecf - cf| = {sup:.4f} "
                  f"<= 0.05 ({elapsed:.0f}s)")
    assert sup <= 0.05


# --------------------------------------------------------------------- A4


def test_a4_heavy_tail_no_centering(capsys):
    """alpha < 1, mixed directions, exponential tempering, no centering:
    row sums match exp(psi) in the drift-free convention."""
    t0 = time.perf_counter()
    ce = TemperingSpec.conditionally_exponential(0.7, 1.0, MIX)
    ex = LevyExponent(0.7, MIX, ce, analytics.DRIFT_FREE)
    plan = WalkPlan(n=5000, replicates=50_000, seed=102, centering="none")
    batch = engine.simulate_rowsum(plan, JumpModel(0.7, MIX), ce)
    sup = _sup_cf_error(batch, ex)
    elapsed = time.perf_counter() - t0
    ok = sup <= 0.05
    _line(capsys, f"A4 {'PASS' if ok else 'FAIL'} sup|ecf - cf| = {sup:.4f} "
                  f"<= 0.05 ({elapsed:.0f}s)")
    assert sup <= 0.05


# --------------------------------------------------------------------- A5


def test_a5_limit_mean(capsys):
    """Mean-centered row sums land on their exact finite-n mean mu_n within
    4 standard errors, with mu_n in closed form by mpmath.  The quadrature
    limit mean m is tied to the walk deterministically: mu_n - m decays like
    n^(1-2/alpha), and the shift/tail-moment identity -theta + B = m must
    hold to 1e-8 by pure quadrature."""
    t0 = time.perf_counter()
    ce = TemperingSpec.conditionally_exponential(1.5, 1.0, ONE)
    m = analytics.tempered_mean(1.5, ONE, ce)[0]
    theta = analytics.shift_theta(1.5, ONE, ce)[0]
    b = analytics.tail_first_moment(1.5, ONE, ce)[0]
    theta_gap = abs(-theta + b - m)

    mu = [finite_n_law.jump_mean_rowsum_mean(n, 1.5, 1.0) for n in FLOOR_NS]
    slopes = _loglog_slopes(np.array(mu) - m)
    slope_gap = float(np.max(np.abs(slopes - FLOOR_SLOPE)))

    plan = WalkPlan(n=10_000, replicates=50_000, seed=103, centering="jump_mean")
    batch = engine.simulate_rowsum(plan, JumpModel(1.5, ONE), ce)
    vals = batch.values[:, 0]
    gap = abs(float(vals.mean()) - mu[0])
    budget = 4.0 * float(vals.std(ddof=1)) / math.sqrt(len(vals))
    elapsed = time.perf_counter() - t0
    ok = gap <= budget and theta_gap <= 1e-8 and slope_gap <= 0.01
    _line(capsys, f"A5 {'PASS' if ok else 'FAIL'} |mean - mu_n| = {gap:.4f} vs "
                  f"4se = {budget:.4f}; limit gap |mu_n - m| = "
                  f"{abs(mu[0] - m):.4f}, slopes {_fmt(slopes)} vs "
                  f"{FLOOR_SLOPE:.4f} +/- 0.01; |-theta + B - m| = "
                  f"{theta_gap:.1e} <= 1e-08 ({elapsed:.0f}s)")
    assert theta_gap <= 1e-8
    assert slope_gap <= 0.01
    assert gap <= budget


# --------------------------------------------------------------------- A6


def test_a6_truncated_centering_cf(capsys):
    """Same law as A5 but with truncated-mean centering: row sums against
    the exact finite-n CF phi_n in closed form by mpmath, and phi_n against
    exp(psi) in the truncated convention, with the gap decaying like
    n^(1-2/alpha)."""
    t0 = time.perf_counter()
    ce = TemperingSpec.conditionally_exponential(1.5, 1.0, ONE)
    ex = LevyExponent(1.5, ONE, ce, analytics.TRUNCATED)
    limit = np.exp(ex.eval_grid(GRID))
    exact = {
        n: np.array(finite_n_law.rowsum_cf(
            GRID[:, 0], n, 1.5, 1.0, finite_n_law.truncated_center(n, 1.5, 1.0)))
        for n in FLOOR_NS
    }
    floor = np.array([np.max(np.abs(exact[n] - limit)) for n in FLOOR_NS])
    slopes = _loglog_slopes(floor)
    slope_gap = float(np.max(np.abs(slopes - FLOOR_SLOPE)))

    plan = WalkPlan(n=10_000, replicates=50_000, seed=104,
                    centering="truncated_mean")
    batch = engine.simulate_rowsum(plan, JumpModel(1.5, ONE), ce)
    ecf = analytics.empirical_cf(batch, GRID).values
    sup = float(np.max(np.abs(ecf - exact[plan.n])))

    # The CF distance barely moves under a small location error, so the
    # centering and the mean are checked on their own: a_n against its
    # closed form, and the batch mean against the exact finite-n mean
    # mu_n = E[(1/v) sum Y] - a_n, with E R = alpha/(alpha - 1) = 3.
    n = plan.n
    a_n = finite_n_law.truncated_center(n, 1.5, 1.0)
    center_err = abs(batch.center[0] - a_n) / abs(a_n)
    mu_n = finite_n_law.jump_mean_rowsum_mean(n, 1.5, 1.0) + n * 3.0 / n ** (1 / 1.5) - a_n
    vals = batch.values[:, 0]
    gap = abs(float(vals.mean()) - mu_n)
    budget = 4.0 * float(vals.std(ddof=1)) / math.sqrt(len(vals))
    elapsed = time.perf_counter() - t0
    ok = sup <= 0.05 and slope_gap <= 0.02 and center_err <= 1e-8 and gap <= budget
    _line(capsys, f"A6 {'PASS' if ok else 'FAIL'} sup|ecf - phi_n| = {sup:.4f} "
                  f"<= 0.05; |a_n - exact|/a_n = {center_err:.1e} <= 1e-08; "
                  f"|mean - mu_n| = {gap:.4f} vs 4se = {budget:.4f}; "
                  f"limit gap sup|phi_n - cf| = {floor[0]:.4f}, "
                  f"slopes {_fmt(slopes)} vs {FLOOR_SLOPE:.4f} +/- 0.02 "
                  f"({elapsed:.0f}s)")
    assert slope_gap <= 0.02
    assert sup <= 0.05
    assert center_err <= 1e-8
    assert gap <= budget


# --------------------------------------------------------------------- A7


def test_a7_vague_convergence(capsys):
    """n * P(jump / v_n in [1,2]) against the sector mass: exactly 0.5 with
    no tempering at alpha = 1, and the quadrature sector mass once tempered."""
    t0 = time.perf_counter()
    model = JumpModel(1.0, ONE)
    nt = TemperingSpec.no_tempering(1.0)
    row_nt = analytics.vague_convergence_table(
        model, nt, 1000, [Sector(1.0, 2.0)], draws=10 ** 7, seed=105)[0]
    assert abs(row_nt.target - 0.5) <= 1e-12

    ce = TemperingSpec.conditionally_exponential(1.0, 1.0, ONE)
    row_ce = analytics.vague_convergence_table(
        model, ce, 1000, [Sector(1.0, 2.0)], draws=10 ** 7, seed=106)[0]
    mass = analytics.levy_mass(1.0, ONE, ce, 1.0, 2.0)
    assert abs(row_ce.target - mass) <= 1e-9 * mass

    elapsed = time.perf_counter() - t0
    worst = max(row_nt.rel_error, row_ce.rel_error)
    ok = worst <= 0.05 and elapsed < 60.0
    _line(capsys, f"A7 {'PASS' if ok else 'FAIL'} rel err = "
                  f"{row_nt.rel_error:.4f} (free), {row_ce.rel_error:.4f} "
                  f"(tempered) <= 0.05 ({elapsed:.0f}s)")
    assert row_nt.rel_error <= 0.05
    assert row_ce.rel_error <= 0.05
    assert elapsed < 60.0


# --------------------------------------------------------------------- A8


def test_a8_uan_profile_slope(capsys):
    """Truncated second moments n*v^-2*E|Y 1(|Y| <= v*delta)|^2 scale like
    delta^(2-alpha): fitted log-log slope within 0.15 of 0.5."""
    t0 = time.perf_counter()
    ce = TemperingSpec.conditionally_exponential(1.5, 1.0, ONE)
    profile = analytics.uan_profile(JumpModel(1.5, ONE), ce, 10 ** 6,
                                    np.geomspace(0.05, 1.0, 9))
    elapsed = time.perf_counter() - t0
    gap = abs(profile.slope - 0.5)
    ok = gap <= 0.15 and elapsed < 10.0
    _line(capsys, f"A8 {'PASS' if ok else 'FAIL'} slope = {profile.slope:.4f}"
                  f" in 0.5 +/- 0.15 ({elapsed:.1f}s)")
    assert gap <= 0.15
    assert elapsed < 10.0


# --------------------------------------------------------------------- A9


def test_a9_path_marginals(capsys):
    """Path snapshots at t = 0.5 and t = 1: the t = 1 CF equals both the
    square of the t = 0.5 CF (within stacked MC error) and exp(psi)."""
    t0 = time.perf_counter()
    ce = TemperingSpec.conditionally_exponential(0.7, 1.0, MIX)
    ex = LevyExponent(0.7, MIX, ce, analytics.DRIFT_FREE)
    plan = WalkPlan(n=5000, replicates=50_000, seed=107, centering="none",
                    time_grid=(0.5, 1.0))
    half, full = engine.simulate_paths(plan, JumpModel(0.7, MIX), ce)
    cf_half = analytics.empirical_cf(half, GRID)
    cf_full = analytics.empirical_cf(full, GRID)
    sup_square = float(np.max(np.abs(cf_full.values - cf_half.values ** 2)))
    sup_cf = analytics.cf_distance(cf_full, ex).sup_abs
    elapsed = time.perf_counter() - t0
    ok = sup_square <= 0.07 and sup_cf <= 0.05
    _line(capsys, f"A9 {'PASS' if ok else 'FAIL'} sup|cf_1 - cf_0.5^2| = "
                  f"{sup_square:.4f} <= 0.07; sup|ecf - cf| = {sup_cf:.4f} "
                  f"<= 0.05 ({elapsed:.0f}s)")
    assert sup_square <= 0.07
    assert sup_cf <= 0.05


# -------------------------------------------------------------------- A10


def test_a10_thread_reproducibility(tmp_path, capsys):
    """The A4 run repeated through the CLI with --threads 1 and --threads 3
    writes byte-identical samples.csv."""
    t0 = time.perf_counter()
    cfg = {
        "sigma": [
            {"direction": [1.0], "weight": 0.7},
            {"direction": [-1.0], "weight": 0.3},
        ],
        "model": {"alpha": 0.7, "x_m": 1.0},
        "tempering": {"family": "conditionally_exponential", "rates": 1.0},
        "plan": {"n": 5000, "replicates": 50_000, "seed": 102,
                 "centering": "none"},
    }
    path = tmp_path / "a4.json"
    path.write_text(json.dumps(cfg))
    for name, threads in (("one", "1"), ("three", "3")):
        rc = cli.run(["simulate", "--config", str(path),
                      "--out", str(tmp_path / name), "--threads", threads])
        assert rc == 0
    b1 = (tmp_path / "one" / "samples.csv").read_bytes()
    b3 = (tmp_path / "three" / "samples.csv").read_bytes()
    elapsed = time.perf_counter() - t0
    ok = b1 == b3
    _line(capsys, f"A10 {'PASS' if ok else 'FAIL'} samples.csv byte-identical"
                  f" across --threads 1/3: {ok} ({elapsed:.0f}s)")
    assert b1 == b3

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st
from scipy import stats

from temperedwalk import (
    JumpModel,
    MixedScalePareto,
    SpectralMeasure,
    TemperingSpec,
    WalkPlan,
    analytics,
    engine,
)
from temperedwalk.analytics import (
    DRIFT_FREE,
    MEAN_ZERO,
    TRUNCATED,
    LevyExponent,
    Sector,
    cf_distance,
    default_cf_grid,
    density_1d,
    empirical_cf,
    levy_mass,
    shift_theta,
    tail_first_moment,
    tempered_mean,
    uan_profile,
    vague_convergence_table,
)
from temperedwalk.numerics import adaptive_quad
from temperedwalk.tempering import FAMILIES

ONE = SpectralMeasure([[1.0]], [1.0])
TWO = SpectralMeasure([[1.0], [-1.0]], [0.7, 0.3])
SYM = SpectralMeasure([[1.0], [-1.0]], [0.5, 0.5])

SQRT_2PI = 2.5066282746310005
# Gamma(0.3) and the half-angle trig factors for the one-sided stable
# exponent at alpha = 0.7 (mpmath, 40 digits)
GAMMA_03 = 2.9915689876875906
COS_35PI = 0.45399049973954679
SIN_35PI = 0.89100652418836786
TWO_SQRT_PI = 3.5449077018110321
# int_1^inf (1.5 + r) e^{-r} r^{-1.5} dr (mpmath)
TAIL_MOMENT_15 = 0.54602715295300301


# ----------------------------------------------------------- exponent values


def test_symmetric_stable_closed_form():
    """Symmetric untempered alpha=1.5, mass 1: psi(l) = -sqrt(2 pi)|l|^1.5."""
    nt = TemperingSpec.no_tempering(1.5)
    ex = LevyExponent(1.5, SYM, nt, MEAN_ZERO)
    for lam in (0.25, 1.0, 2.5, 5.0, -3.0):
        got = ex.eval(np.array([lam]))
        want = -SQRT_2PI * abs(lam) ** 1.5
        assert got.real == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))
        assert abs(got.imag) <= 1e-10


def test_one_sided_stable_closed_form():
    """One-sided untempered alpha=0.7 via the drift-free convention."""
    nt = TemperingSpec.no_tempering(0.7)
    ex = LevyExponent(0.7, ONE, nt, DRIFT_FREE)
    for lam in (0.5, 2.0, -2.0):
        got = ex.eval(np.array([lam]))
        scale = GAMMA_03 * abs(lam) ** 0.7
        want = complex(-scale * COS_35PI, math.copysign(1.0, lam) * scale * SIN_35PI)
        assert abs(got - want) <= 1e-10 * abs(want)


def test_conjugate_symmetry_and_negativity():
    ce = TemperingSpec.conditionally_exponential(0.7, [1.0, 3.0], TWO)
    ex = LevyExponent(0.7, TWO, ce, DRIFT_FREE)
    for lam in (0.3, 1.7, 4.9):
        plus = ex.eval(np.array([lam]))
        minus = ex.eval(np.array([-lam]))
        assert abs(plus - np.conj(minus)) <= 1e-12
        assert plus.real <= 0.0
    assert ex.eval(np.array([0.0])) == 0


def test_truncated_equals_mean_zero_plus_tail_moment():
    # the two conventions differ exactly by i * lam * (tail first moment)
    ce = TemperingSpec.conditionally_exponential(1.5, 1.0, ONE)
    tr = LevyExponent(1.5, ONE, ce, TRUNCATED)
    mz = LevyExponent(1.5, ONE, ce, MEAN_ZERO)
    b = tail_first_moment(1.5, ONE, ce)[0]
    assert b == pytest.approx(TAIL_MOMENT_15, rel=1e-8)
    for lam in (0.5, 2.0, 5.0, -3.0):
        lhs = tr.eval(np.array([lam]))
        rhs = mz.eval(np.array([lam])) + 1j * lam * b
        assert abs(lhs - rhs) <= 1e-10


def test_mean_zero_gradient_vanishes():
    ce = TemperingSpec.conditionally_exponential(1.5, 1.0, ONE)
    mz = LevyExponent(1.5, ONE, ce, MEAN_ZERO)
    h = 1e-3
    grad = (mz.eval(np.array([h])).imag - mz.eval(np.array([-h])).imag) / (2 * h)
    assert abs(grad) <= 1e-5


def test_convention_validation():
    ce07 = TemperingSpec.conditionally_exponential(0.7, 1.0, ONE)
    ce15 = TemperingSpec.conditionally_exponential(1.5, 1.0, ONE)
    with pytest.raises(ValueError):
        LevyExponent(0.7, ONE, ce07, MEAN_ZERO)  # needs alpha > 1
    with pytest.raises(ValueError):
        LevyExponent(1.5, ONE, ce15, DRIFT_FREE)  # needs alpha < 1
    with pytest.raises(ValueError):
        LevyExponent(1.5, ONE, ce07, TRUNCATED)  # alpha mismatch
    with pytest.raises(ValueError):
        LevyExponent(1.5, ONE, ce15, "bogus")


RATE_FAMILIES = ("conditionally_exponential", "exponential_q")


def _legal_conventions(alpha):
    return (TRUNCATED, DRIFT_FREE) if alpha < 1.0 else (TRUNCATED, MEAN_ZERO)


def test_eval_grid_matches_scalar_eval():
    grid = np.linspace(-6.0, 6.0, 25).reshape(-1, 1)
    for family in RATE_FAMILIES:
        for alpha in (0.6, 1.5):
            tempering = FAMILIES[family](alpha, [0.5, 2.0], TWO)
            for convention in _legal_conventions(alpha):
                ex = LevyExponent(alpha, TWO, tempering, convention)
                vals = ex.eval_grid(grid)
                for row, val in zip(grid, vals):
                    assert abs(val - ex.eval(row)) <= 1e-14


# ------------------------------------------------ closed forms vs quadrature


def _expq_as_custom(alpha, theta, sigma):
    return TemperingSpec.custom_q(
        alpha, lambda r, s: alpha * math.exp(-theta * r), sigma)


def _quadrature_psi(alpha, sigma, tempering, convention, c):
    # The module-private quadrature path, reached without a public switch.
    return analytics._QuadratureAtoms(alpha, tempering, convention).atom(0, c)


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(RATE_FAMILIES),
    alpha=st.one_of(st.floats(0.2, 0.98), st.floats(1.02, 1.95)),
    theta=st.floats(0.1, 5.0),
    c=st.floats(-10.0, 10.0),
    pick=st.integers(0, 1),
)
def test_closed_forms_match_quadrature(family, alpha, theta, c, pick):
    convention = _legal_conventions(alpha)[pick]
    tempering = FAMILIES[family](alpha, theta, ONE)
    ex = LevyExponent(alpha, ONE, tempering, convention)
    assert ex.method == "closed_form"
    got = ex.eval(np.array([c]))
    scale = max(1.0, abs(got))
    want = _quadrature_psi(alpha, ONE, tempering, convention, c)
    assert abs(got - want) <= 1e-9 * scale
    if family == "exponential_q":
        custom = LevyExponent(alpha, ONE, _expq_as_custom(alpha, theta, ONE), convention)
        assert custom.method == "quadrature"
        assert abs(got - custom.eval(np.array([c]))) <= 1e-9 * scale
    assert abs(ex.eval(np.array([-c])) - np.conj(got)) <= 1e-14 * scale
    assert got.real <= 1e-12 * scale


def test_closed_forms_run_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called on the closed-form path")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    grid = np.linspace(-5.0, 5.0, 11).reshape(-1, 1)
    for family in RATE_FAMILIES:
        for alpha in (0.7, 1.5):
            tempering = FAMILIES[family](alpha, [1.0, 2.0], TWO)
            for convention in _legal_conventions(alpha):
                ex = LevyExponent(alpha, TWO, tempering, convention)
                assert np.all(np.isfinite(ex.eval_grid(grid)))
            assert levy_mass(alpha, TWO, tempering, 1e-3, 1e3) > 0.0
            assert np.all(np.isfinite(tail_first_moment(alpha, TWO, tempering)))
    # without tempering: masses at any alpha, the tail moment for alpha > 1
    for alpha in (0.7, 1.5):
        assert levy_mass(alpha, TWO, TemperingSpec.no_tempering(alpha), 0.5, np.inf) > 0.0
    assert tail_first_moment(1.5, TWO, TemperingSpec.no_tempering(1.5))[0] > 0.0


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.0005, 1.5])
def test_exponent_at_zero_is_exactly_zero(alpha):
    conventions = (TRUNCATED,) + ((DRIFT_FREE,) if alpha < 1.0 else
                                  (MEAN_ZERO,) if alpha > 1.0 else ())
    families = [TemperingSpec.no_tempering(alpha),
                TemperingSpec.conditionally_exponential(alpha, [0.3, 2.0], TWO),
                TemperingSpec.exponential_q(alpha, [0.3, 2.0], TWO),
                _expq_as_custom(alpha, 2.0, TWO)]
    for tempering in families:
        for convention in conventions:
            ex = LevyExponent(alpha, TWO, tempering, convention)
            assert ex.eval(np.array([0.0])) == 0
            assert ex.eval_grid(np.zeros((2, 1)))[1] == 0


def test_alpha_near_one_stays_on_quadrature():
    ce = TemperingSpec.conditionally_exponential(1.0005, 1.0, ONE)
    assert LevyExponent(1.0005, ONE, ce, TRUNCATED).method == "quadrature"
    ce = TemperingSpec.conditionally_exponential(1.002, 1.0, ONE)
    assert LevyExponent(1.002, ONE, ce, TRUNCATED).method == "closed_form"
    nt = TemperingSpec.no_tempering(1.5)
    assert LevyExponent(1.5, ONE, nt, MEAN_ZERO).method == "quadrature"


SMALL_FREQUENCIES = (1e-3, 1e-4, 1e-6, 1e-9)


@pytest.mark.parametrize("lam", SMALL_FREQUENCIES)
def test_quadrature_small_frequency_untempered(lam):
    """The Fourier tail rule once dropped the whole tail mass at small c."""
    sym = LevyExponent(1.5, SYM, TemperingSpec.no_tempering(1.5), MEAN_ZERO)
    want = -SQRT_2PI * lam ** 1.5
    assert abs(sym.eval(np.array([lam])) - want) <= 1e-10 + 1e-9 * abs(want)
    one = LevyExponent(0.7, ONE, TemperingSpec.no_tempering(0.7), DRIFT_FREE)
    scale = GAMMA_03 * lam ** 0.7
    want = complex(-scale * COS_35PI, scale * SIN_35PI)
    assert abs(one.eval(np.array([lam])) - want) <= 1e-10 + 1e-9 * abs(want)


@pytest.mark.parametrize("lam", SMALL_FREQUENCIES)
@pytest.mark.parametrize("alpha,convention",
                         [(0.7, DRIFT_FREE), (0.7, TRUNCATED),
                          (1.5, MEAN_ZERO), (1.5, TRUNCATED)])
def test_quadrature_small_frequency_custom_q(lam, alpha, convention):
    custom = LevyExponent(alpha, ONE, _expq_as_custom(alpha, 1.0, ONE), convention)
    closed = LevyExponent(alpha, ONE, TemperingSpec.exponential_q(alpha, 1.0, ONE),
                          convention)
    want = closed.eval(np.array([lam]))
    got = custom.eval(np.array([lam]))
    assert abs(got - want) <= 1e-10 + 1e-9 * abs(want)


def test_uan_profile_single_delta_has_no_slope():
    m = JumpModel(1.2, ONE)
    prof = uan_profile(m, TemperingSpec.no_tempering(1.2), 1000, [0.5])
    assert math.isnan(prof.slope)
    assert prof.values.shape == (1,)


def test_2d_exponent_reduces_to_atomwise_sum():
    axes = SpectralMeasure([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.5])
    nt = TemperingSpec.no_tempering(1.2)
    ex2 = LevyExponent(1.2, axes, nt, TRUNCATED)
    # along e_1 only the first atom contributes (second sees <lam, s> = 0)
    ex1 = LevyExponent(1.2, ONE, TemperingSpec.no_tempering(1.2), TRUNCATED)
    lam = np.array([1.3, 0.0])
    assert abs(ex2.eval(lam) - ex1.eval(np.array([1.3]))) <= 1e-10


# ------------------------------------------------------------ mean and shift


def test_tempered_mean_closed_form():
    ce = TemperingSpec.conditionally_exponential(1.5, 1.0, ONE)
    m = tempered_mean(1.5, ONE, ce)
    assert m[0] == pytest.approx(-TWO_SQRT_PI, rel=1e-9)


def test_tempered_mean_scales_with_weights():
    ce = TemperingSpec.conditionally_exponential(1.5, [1.0, 1.0], TWO)
    m = tempered_mean(1.5, TWO, ce)
    assert m[0] == pytest.approx(-0.4 * TWO_SQRT_PI, rel=1e-9)


def test_tempered_mean_rejections():
    with pytest.raises(ValueError):
        tempered_mean(0.7, ONE, TemperingSpec.conditionally_exponential(0.7, 1.0, ONE))
    with pytest.raises(ValueError):
        tempered_mean(1.5, ONE, TemperingSpec.no_tempering(1.5))


def test_shift_theta_consistency():
    """-theta + tail moment reproduces the mean through an independent
    quadrature route."""
    ce = TemperingSpec.conditionally_exponential(1.5, 1.0, ONE)
    theta = shift_theta(1.5, ONE, ce)
    b = tail_first_moment(1.5, ONE, ce)
    m = tempered_mean(1.5, ONE, ce)
    assert abs(-theta[0] + b[0] - m[0]) <= 1e-7


@pytest.mark.parametrize("alpha,rate", [(1.5, 1.0), (1.5, 2.0), (1.2, 0.5)])
def test_shift_theta_exponential_q(alpha, rate):
    """The same identity for exponential_q, whose int_0^r pi once took a
    quadrature of pi inside the shift's own quadrature (over a minute at
    rate 1, QuadratureError at rate 2)."""
    eq = TemperingSpec.exponential_q(alpha, rate, ONE)
    theta = shift_theta(alpha, ONE, eq)[0]
    b = tail_first_moment(alpha, ONE, eq)[0]
    m = tempered_mean(alpha, ONE, eq)[0]
    assert abs(-theta + b - m) <= 1e-8


def _ce_tail_moment(alpha, theta, lower):
    return (lower ** (1 - alpha) * mpmath.exp(-theta * lower)
            + theta ** (alpha - 1) * mpmath.gammainc(1 - alpha, theta * lower))


def _eq_tail_moment(alpha, theta, lower):
    return alpha * theta ** (alpha - 1) * mpmath.gammainc(1 - alpha, theta * lower)


def test_tail_moment_matches_mpmath():
    """int_L^inf q r^-alpha dr of the rate families against mpmath's gammainc,
    and those closed forms against mpmath's own quadrature at rate 1."""
    with mpmath.workdps(30):
        for alpha in (0.3, 0.7, 0.999, 1.0005, 1.5, 1.9):
            for theta in (0.2, 1.0, 4.0):
                ce = TemperingSpec.conditionally_exponential(alpha, theta)
                eq = TemperingSpec.exponential_q(alpha, theta)
                for lower in (0.5, 1.0, 3.0, 1e3):
                    if theta * lower >= 700.0:
                        continue  # the exact value underflows a double
                    a, t, el = (mpmath.mpf(x) for x in (alpha, theta, lower))
                    want_ce = _ce_tail_moment(a, t, el)
                    want_eq = _eq_tail_moment(a, t, el)
                    assert ce.tail_moment(lower) == pytest.approx(float(want_ce), rel=1e-11)
                    assert eq.tail_moment(lower) == pytest.approx(float(want_eq), rel=1e-11)
                    if theta == 1.0 and lower < 10.0:
                        quad_ce = mpmath.quad(
                            lambda r: (a + r) * mpmath.exp(-r) * r ** -a, [el, mpmath.inf])
                        quad_eq = mpmath.quad(
                            lambda r: a * mpmath.exp(-r) * r ** -a, [el, mpmath.inf])
                        assert abs(quad_ce / want_ce - 1) <= 1e-20
                        assert abs(quad_eq / want_eq - 1) <= 1e-20


# ------------------------------------------------------------------ levy mass


def test_levy_mass_closed_form_no_tempering():
    nt = TemperingSpec.no_tempering(1.0)
    assert levy_mass(1.0, ONE, nt, 1.0, 2.0) == pytest.approx(0.5, rel=1e-14)
    assert levy_mass(1.0, ONE, nt, 1.0, np.inf) == pytest.approx(1.0, rel=1e-14)


def test_levy_mass_tail_equals_survival():
    # levy_mass takes u^{-alpha} pi(u) for the tail above u; the oracle is
    # the integral of q r^{-alpha-1} over [u, inf) by direct quadrature
    families = [TemperingSpec.no_tempering(0.7),
                TemperingSpec.conditionally_exponential(0.7, 2.0, TWO),
                TemperingSpec.exponential_q(0.7, [2.0, 0.5], TWO),
                _expq_as_custom(0.7, 2.0, TWO)]
    for tempering in families:
        for u in (0.5, 1.0, 3.0):
            got = levy_mass(0.7, TWO, tempering, u, np.inf)
            want = sum(
                w * adaptive_quad(lambda r: tempering.q(r, j) * r ** -1.7, u, np.inf)
                for j, w in enumerate(TWO.weights))
            assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
def test_levy_mass_over_six_decades(alpha):
    """The sector [1e-3, 1e3] at rate 2 once raised QuadratureError for every
    tempered family; its mass is exact in mpmath."""
    with mpmath.workdps(30):
        a, lo, hi = mpmath.mpf(alpha), mpmath.mpf("1e-3"), mpmath.mpf(1000)
        ce_want = float(lo ** -a * mpmath.exp(-2 * lo) - hi ** -a * mpmath.exp(-2 * hi))
        eq_want = float(a * 2 ** a * mpmath.gammainc(-a, 2 * lo, 2 * hi))
    cases = [(TemperingSpec.conditionally_exponential(alpha, 2.0), ce_want),
             (TemperingSpec.exponential_q(alpha, 2.0), eq_want),
             (_expq_as_custom(alpha, 2.0, ONE), eq_want)]
    for tempering, want in cases:
        assert levy_mass(alpha, ONE, tempering, 1e-3, 1e3) == pytest.approx(want, rel=1e-9)


def test_levy_mass_additive():
    eq = TemperingSpec.exponential_q(1.5, 1.0, TWO)
    whole = levy_mass(1.5, TWO, eq, 0.5, 4.0)
    parts = levy_mass(1.5, TWO, eq, 0.5, 2.0) + levy_mass(1.5, TWO, eq, 2.0, 4.0)
    assert whole == pytest.approx(parts, rel=1e-10)
    only0 = levy_mass(1.5, TWO, eq, 0.5, 4.0, atoms=(0,))
    only1 = levy_mass(1.5, TWO, eq, 0.5, 4.0, atoms=(1,))
    assert whole == pytest.approx(only0 + only1, rel=1e-12)


def test_levy_mass_rejects_atoms_outside_sigma():
    # -1 once named the last atom here while the sector's hit count matched
    # no atom at all
    eq = TemperingSpec.exponential_q(1.5, 1.0, TWO)
    for atoms in [(2,), (-1,)]:
        with pytest.raises(ValueError, match="atoms"):
            levy_mass(1.5, TWO, eq, 0.5, 4.0, atoms=atoms)


@pytest.mark.parametrize("call", [
    lambda spec: levy_mass(1.2, ONE, spec, 1.0, 3.0),
    lambda spec: tempered_mean(1.6, ONE, spec),
    lambda spec: shift_theta(1.6, ONE, spec),
    lambda spec: tail_first_moment(1.2, ONE, spec),
], ids=["levy_mass", "tempered_mean", "shift_theta", "tail_first_moment"])
def test_alpha_other_than_the_temperings_is_rejected(call):
    # each once returned a number for a law the spec does not temper
    with pytest.raises(ValueError, match="alpha"):
        call(TemperingSpec.conditionally_exponential(1.5, 1.0))


# -------------------------------------------------------------- empirical CF


def test_empirical_cf_small_sample_exact():
    x = np.array([[0.5], [-1.0], [2.0]])
    grid = np.array([[0.0], [1.0], [-2.0]])
    cf = empirical_cf(x, grid, chunk=2)
    for k, lam in enumerate(grid[:, 0]):
        want = np.mean(np.exp(1j * lam * x[:, 0]))
        assert abs(cf.values[k] - want) <= 1e-15
    assert cf.values[0] == pytest.approx(1.0)


def test_empirical_cf_accepts_batches():
    plan = WalkPlan(n=100, replicates=128, seed=5)
    m = JumpModel(0.7, TWO)
    ce = TemperingSpec.conditionally_exponential(0.7, 1.0, TWO)
    batch = engine.simulate_rowsum(plan, m, ce)
    grid = default_cf_grid(1, points=11)
    a = empirical_cf(batch, grid)
    b = empirical_cf(batch.values, grid)
    assert np.array_equal(a.values, b.values)


def test_default_cf_grid_shapes():
    g1 = default_cf_grid(1, lo=-5, hi=5, points=201)
    assert g1.shape == (201, 1)
    assert g1[0, 0] == -5.0 and g1[-1, 0] == 5.0
    g3 = default_cf_grid(3, per_axis=21)
    assert g3.shape[1] == 3
    # axes plus two diagonals
    assert g3.shape[0] == 21 * 5


def test_cf_distance_negative_control():
    """Exponents for different stability indices must stay clearly apart."""
    nt15 = TemperingSpec.no_tempering(1.5)
    nt12 = TemperingSpec.no_tempering(1.2)
    ex15 = LevyExponent(1.5, SYM, nt15, MEAN_ZERO)
    ex12 = LevyExponent(1.2, SYM, nt12, MEAN_ZERO)
    grid = default_cf_grid(1)
    fake = analytics.CFGrid(points=grid, values=np.exp(ex12.eval_grid(grid)))
    dist = cf_distance(fake, ex15)
    # measured separation is 0.0874, comfortably above the 0.05 tolerance
    # the simulation checks run at
    assert dist.sup_abs >= 0.06


def test_cf_distance_self_is_zero():
    ce = TemperingSpec.conditionally_exponential(0.7, 1.0, TWO)
    ex = LevyExponent(0.7, TWO, ce, DRIFT_FREE)
    grid = default_cf_grid(1, points=41)
    self_cf = analytics.CFGrid(points=grid, values=np.exp(ex.eval_grid(grid)))
    assert cf_distance(self_cf, ex).sup_abs == 0.0


def test_cf_distance_with_drift():
    ce = TemperingSpec.conditionally_exponential(0.7, 1.0, ONE)
    ex = LevyExponent(0.7, ONE, ce, DRIFT_FREE)
    grid = default_cf_grid(1, points=21)
    shifted = analytics.CFGrid(
        points=grid,
        values=np.exp(ex.eval_grid(grid) + 1j * grid[:, 0] * 0.8))
    assert cf_distance(shifted, ex, drift=[0.8]).sup_abs <= 1e-14
    assert cf_distance(shifted, ex).sup_abs > 0.01


def test_cf_distance_callable_exponent():
    grid = default_cf_grid(1, points=5)
    flat = analytics.CFGrid(points=grid, values=np.ones(5, dtype=complex))
    dist = cf_distance(flat, lambda lam: 0.0)
    assert dist.sup_abs == 0.0


# ----------------------------------------------------------------- vague/UAN


def test_vague_convergence_exact_target_no_tempering():
    m = JumpModel(1.0, ONE)
    nt = TemperingSpec.no_tempering(1.0)
    rows = vague_convergence_table(m, nt, 1000, [Sector(1.0, 2.0)],
                                   draws=2_000_000, seed=3)
    row = rows[0]
    assert row.target == pytest.approx(0.5, rel=1e-12)
    assert not row.undersampled
    assert abs(row.estimate - row.target) <= 5.0 * row.std_error


def test_vague_convergence_tempered_sector_and_atoms():
    m = JumpModel(0.7, TWO)
    ce = TemperingSpec.conditionally_exponential(0.7, 1.0, TWO)
    rows = vague_convergence_table(
        m, ce, 500, [Sector(1.0, np.inf), Sector(1.0, np.inf, atoms=(0,))],
        draws=2_000_000, seed=4)
    # exact identity: target = sum_j w_j u^{-alpha} pi(u) at u = 1
    assert rows[0].target == pytest.approx(math.exp(-1.0), rel=1e-9)
    assert rows[1].target == pytest.approx(0.7 * math.exp(-1.0), rel=1e-9)
    for row in rows:
        assert abs(row.estimate - row.target) <= 5.0 * row.std_error


def test_empty_diagnostics_are_errors():
    # no draws once gave a NaN estimate that passed; no sectors, no check
    m = JumpModel(0.7, TWO)
    ce = TemperingSpec.conditionally_exponential(0.7, 1.0, TWO)
    with pytest.raises(ValueError, match="draws"):
        vague_convergence_table(m, ce, 100, [Sector(1.0, 2.0)], draws=0)
    with pytest.raises(ValueError, match="sector"):
        vague_convergence_table(m, ce, 100, [], draws=10)
    with pytest.raises(ValueError, match="delta"):
        uan_profile(m, ce, 100, [])


def test_uan_profile_slope_no_tempering_closed_form():
    # untempered truncated second moment has the closed form
    # n v^{-2} alpha ((v d)^{2-a} - 1) / (2-a), slope exactly 2 - alpha
    m = JumpModel(1.2, ONE)
    nt = TemperingSpec.no_tempering(1.2)
    n = 10 ** 5
    deltas = np.geomspace(0.05, 1.0, 9)
    prof = uan_profile(m, nt, n, deltas)
    v = engine.tempering_threshold(m, n)
    want = n * v ** -2.0 * 1.2 * ((v * deltas) ** 0.8 - 1.0) / 0.8
    # quadrature results are trusted to 1e-6 relative, no further
    assert np.allclose(prof.values, want, rtol=1e-6)
    assert prof.slope == pytest.approx(0.8, abs=0.02)


def test_uan_profile_custom_q_matches_exponential_q():
    """The nested quadrature of custom_q (pi itself a quadrature) against
    the closed-form pi of exponential_q: two atoms, per-atom rates, two scales."""
    alpha, rates, n, deltas = 1.5, [0.5, 2.0], 1000, (0.1, 0.5, 1.0)
    m = JumpModel(alpha, TWO, radial=MixedScalePareto((1.0, 3.0), (0.4, 0.6)))
    custom = TemperingSpec.custom_q(
        alpha, lambda r, s: alpha * math.exp(-(rates[0] if s[0] > 0.0 else rates[1]) * r), TWO)
    got = uan_profile(m, custom, n, deltas).values
    want = uan_profile(m, TemperingSpec.exponential_q(alpha, rates, TWO), n, deltas).values
    assert np.allclose(got, want, rtol=1e-9, atol=0.0)


def test_uan_profile_tempered_slope_band():
    m = JumpModel(1.5, ONE)
    ce = TemperingSpec.conditionally_exponential(1.5, 1.0, ONE)
    prof = uan_profile(m, ce, 10 ** 6, np.geomspace(0.05, 1.0, 9))
    assert 0.35 <= prof.slope <= 0.65
    assert np.all(np.diff(prof.values) > 0.0)  # monotone in delta


# -------------------------------------------------------------------- density


def test_density_matches_cauchy_closed_form():
    """alpha=1, symmetric, untempered, mass 1 is Cauchy with scale pi/2."""
    nt = TemperingSpec.no_tempering(1.0)
    ex = LevyExponent(1.0, SYM, nt, TRUNCATED)
    x = np.linspace(-10.0, 10.0, 201)
    res = density_1d(ex, None, x)
    want = stats.cauchy.pdf(x, scale=np.pi / 2.0)
    assert np.max(np.abs(res.density - want)) <= 2e-4
    # the mass defect here is real tail mass, plus small quadrature noise
    tail = 2.0 * stats.cauchy.sf(10.0, scale=np.pi / 2.0)
    assert res.mass_defect == pytest.approx(tail, abs=2e-3)
    assert np.all(res.density >= 0.0)
    assert np.allclose(res.density, res.density[::-1], atol=1e-12)


@pytest.fixture(scope="module")
def tempered_density():
    # CF inversion is the slow part of this file, so share one base call
    ce = TemperingSpec.conditionally_exponential(0.7, 1.0, TWO)
    ex = LevyExponent(0.7, TWO, ce, DRIFT_FREE)
    x = np.linspace(-14.0, 14.0, 281)
    return ex, x, density_1d(ex, None, x)


def test_density_tempered_is_light_tailed(tempered_density):
    _, x, res = tempered_density
    assert res.mass_defect <= 1e-4
    assert res.density.max() > 0.1
    # weight 0.7 on +1 skews the law right
    mean = np.trapezoid(x * res.density, x)
    assert mean > 0.1


def test_density_evaluates_its_window_in_one_grid_call(tempered_density, monkeypatch):
    ex, x, base = tempered_density
    sizes = []
    eval_grid = LevyExponent.eval_grid

    def counting(self, grid):
        sizes.append(len(grid))
        return eval_grid(self, grid)

    monkeypatch.setattr(LevyExponent, "eval_grid", counting)
    again = density_1d(ex, None, x)
    # single points probe the window; the whole lambda grid is one call
    assert [n for n in sizes if n > 1] == [sizes[-1]] and sizes[-1] >= 513
    assert np.array_equal(again.density, base.density)


def test_density_drift_shifts_mode(tempered_density):
    ex, x, base = tempered_density
    moved = density_1d(ex, [2.0], x)
    d_mode = x[np.argmax(moved.density)] - x[np.argmax(base.density)]
    assert d_mode == pytest.approx(2.0, abs=0.15)


def test_density_grid_validation():
    nt = TemperingSpec.no_tempering(1.0)
    ex = LevyExponent(1.0, SYM, nt, TRUNCATED)
    with pytest.raises(ValueError):
        density_1d(ex, None, np.array([0.0, 1.0, 3.0]))  # uneven spacing
    with pytest.raises(ValueError):
        density_1d(ex, None, np.linspace(-1.0, 3.0, 11))  # asymmetric

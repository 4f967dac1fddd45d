import mpmath
import numpy as np
import pytest

from temperedwalk import numerics
from temperedwalk.analytics import _cexpm1, _sin_m1
from temperedwalk.numerics import (
    QuadratureError,
    adaptive_quad,
    gammainc_span,
    gammainc_upper,
    integral_to_infinity,
)

# Reference values precomputed with mpmath.gammainc at 40 digits.
GAMMA_CASES = [
    (-1.5, 1.0, 0.12648781959325442),
    (-1.5, 0.25, 3.2099912056303212),
    (-0.7, 3.0, 0.0052258131547545558),
    (-0.3, 0.05, 4.0350094434447683),
    (0.5, 2.0, 0.080647117960317691),
    (1.0, 1.0, 0.36787944117144232),
    (2.0, 4.0, 0.091578194443670901),
    (-1.9, 12.0, 3.715336886319937e-9),
    # p near 0 and -1, where 1/p and Gamma(p) have poles: the regular start
    (1e-9, 0.3, 0.9056766513150862), (1e-9, 1.0, 0.21938393449336346),
    (1e-9, 1.4, 0.1162193126529918),
    (-1e-9, 0.3, 0.9056766520366072), (-1e-9, 1.0, 0.21938393429767708),
    (-1e-9, 1.4, 0.116219312489724),
    (-1e-6, 0.3, 0.9056770124365329), (-1e-6, 1.0, 0.21938383655235866),
    (-1e-6, 1.4, 0.11621923093749528),
    (0.0, 0.3, 0.9056766516758468), (0.0, 1.0, 0.21938393439552029),
    (0.0, 1.4, 0.11621931257135791),
    (-1.0 + 1e-9, 0.3, 1.5637174162146075), (-1.0 + 1e-9, 1.0, 0.14849550682657436),
    (-1.0 + 1e-9, 1.4, 0.05992137599591496),
    (-1.0, 0.3, 1.563717417263213), (-1.0, 1.0, 0.14849550677592205),
    (-1.0, 1.4, 0.059921375958361035),
]


@pytest.mark.parametrize("p,x,want", GAMMA_CASES)
def test_gammainc_upper_reference(p, x, want):
    got = gammainc_upper(p, x)
    assert got == pytest.approx(want, rel=1e-12)


def test_gammainc_upper_vectorized_matches_scalar():
    # batched continued fractions may run extra Lentz iterations, so agreement
    # is to rounding, not bit-for-bit
    x = np.geomspace(1e-3, 50.0, 40)
    for p in (-1.7, -0.5, 0.3, 1.4):
        vec = gammainc_upper(p, x)
        scal = np.array([gammainc_upper(p, float(xi)) for xi in x])
        assert np.allclose(vec, scal, rtol=5e-13, atol=0.0)


def test_gammainc_upper_recurrence_consistency():
    # Gamma(p+1, x) = p*Gamma(p, x) + x^p e^{-x}, checked across the
    # series/continued-fraction switch at x = 1.5.
    for p in (-1.5, -0.9, -0.1, 0.7):
        for x in (0.4, 1.4, 1.6, 9.0):
            lhs = gammainc_upper(p + 1.0, x)
            rhs = p * gammainc_upper(p, x) + x ** p * np.exp(-x)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-300)


def test_gammainc_upper_rejects_bad_input():
    with pytest.raises(ValueError):
        gammainc_upper(2.5, 1.0)
    with pytest.raises(ValueError):
        gammainc_upper(-2.0, 1.0)
    with pytest.raises(ValueError):
        gammainc_upper(-0.5, 0.0)


def test_adaptive_quad_polynomial():
    val = adaptive_quad(lambda x: 3.0 * x * x, 0.0, 1.0)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_adaptive_quad_counts_its_calls():
    calls = numerics.quad_calls
    adaptive_quad(lambda x: x, 0.0, 1.0)
    integral_to_infinity(lambda r: r ** -2.0, 1.0)
    assert numerics.quad_calls == calls + 2


# (p, x0, x1): from x0 = 0 (p > 0 there, or gamma(p, x1) diverges) and between
# two positive ends, on both sides of the series switch at 1.5
_SPAN_CASES = ([(p, 0.0, x1) for p in (0.3, 1.0, 1.3, 2.0)
                for x1 in (1e-20, 1e-7, 0.15, 1.4, 1.6, 30.0)]
               + [(p, x0, x1) for p in (-0.9, 0.0, 0.3, 1.0, 2.0)
                  for x0, x1 in ((1e-7, 0.15), (0.15, 1.0), (1.0, 3.0))])


@pytest.mark.parametrize("p,x0,x1", _SPAN_CASES)
def test_gammainc_span_matches_mpmath(p, x0, x1):
    """Gamma(p, x0) - Gamma(p, x1) keeps its relative accuracy where it is
    tiny: from x0 = 0 and below x1 = 1.5, Gamma(p) - Gamma(p, x1) would
    return 0 or noise."""
    want = float(mpmath.gammainc(p, x0, x1))
    assert gammainc_span(p, x0, x1) == pytest.approx(want, rel=1e-12)


def test_adaptive_quad_oscillatory_tail():
    # int_1^inf cos(2r) / r^2 dr; reference via mpmath.quadosc
    val = adaptive_quad(lambda r: r ** -2.0, 1.0, np.inf, weight="cos", wvar=2.0)
    assert val == pytest.approx(-0.34691353653154593, rel=1e-9)


def test_quadrature_error_carries_estimate():
    err = QuadratureError("boom", estimate=1.25)
    assert err.estimate == 1.25
    assert isinstance(err, ArithmeticError)


# The complex-exponential kernels below live in analytics, next to the
# exponent code that uses them.


def test_cexp_m1_small_and_large():
    # exp(iz) - 1 through analytics._cexpm1, whose real part uses the
    # half-angle sine, on both sides of the small-z regime
    for z in (1e-9, 1e-5, 1e-3, 0.5, 3.0):
        want = complex(np.cos(z) - 1.0, np.sin(z))
        got = _cexpm1(np.asarray(1j * z))
        assert abs(got - want) <= 1e-15 + 1e-12 * abs(want)


def test_cexp_m1_lin_removes_linear_term():
    # sin(z) - z, the imaginary part of exp(iz) - 1 - iz, through
    # analytics._sin_m1 on both sides of its series switch at 1e-4
    for z in (1e-10, 1e-6, 1e-4, 0.2):
        got = _sin_m1(z)
        if z < 1e-3:
            # the direct subtraction cancels catastrophically here, so the
            # oracle is the (rapidly convergent) Taylor series
            want = -z ** 3 / 6.0 * (1.0 - z * z / 20.0 + z ** 4 / 840.0)
        else:
            want = np.sin(z) - z
        assert got == pytest.approx(want, rel=1e-10)

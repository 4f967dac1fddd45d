"""Quadrature plumbing and small gamma-function kernels.

Everything here is shared numerical machinery: one set of tolerances for
the adaptive integrals used throughout the package, a thin wrapper over
QUADPACK that turns non-convergence into a typed error (and imports scipy
at its first call), (Gamma(1+p) - 1)/p without its cancellation at small p,
and the incomplete gamma functions, the upper one extended to negative
parameters by downward recurrence.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = [
    "QuadratureError",
    "adaptive_quad",
    "integral_to_infinity",
    "gammainc_upper",
    "gammainc_span",
    "gamma1pm1_over_p",
]

# Tolerances of every adaptive radial integral.
ABS_TOL = 1e-10
REL_TOL = 1e-9
MAX_SUBDIVISIONS = 200
# adaptive_quad calls; the CLI resets the count at each run for report.json
quad_calls = 0


class QuadratureError(ArithmeticError):
    """Adaptive integration failed; carries the achieved error estimate."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


# Error estimates beyond this level (absolute, or relative for large values)
# mean the returned number cannot be trusted at all.
_REJECT_LEVEL = 1e-6


def adaptive_quad(f, a, b, weight=None, wvar=None):
    """Integrate ``f`` over ``[a, b]`` adaptively.

    ``weight``/``wvar`` select QUADPACK's oscillatory rules (needed for
    Fourier-type tails over infinite intervals).  ``integrate.quad`` is
    looked up at each call, so a wrapper set on it takes effect.
    """
    from scipy import integrate

    global quad_calls
    quad_calls += 1
    kwargs = {} if weight is None else {"weight": weight, "wvar": wvar}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, err = integrate.quad(
            f, a, b,
            epsabs=ABS_TOL,
            epsrel=REL_TOL,
            limit=MAX_SUBDIVISIONS,
            **kwargs,
        )
    if not math.isfinite(value) or err > max(_REJECT_LEVEL, _REJECT_LEVEL * abs(value)):
        raise QuadratureError(
            f"quadrature did not converge on [{a}, {b}] (error estimate {err:.3e})",
            estimate=err,
        )
    return value


def integral_to_infinity(f, a):
    """Integrate ``f`` over ``[a, inf)`` as r = a/(1-w), w in [0, 1): f never sees inf."""
    def g(w):
        one_m = 1.0 - w
        return f(a / one_m) * a / (one_m * one_m)

    return adaptive_quad(g, 0.0, 1.0)


def _lower_gamma_series(p, x):
    # gamma(p, x) by the standard ascending series, for p > 0 and x < 1.5
    total = np.full(x.shape, 1.0 / p)
    term = total.copy()
    ap = p
    for _ in range(300):
        ap += 1.0
        term = term * x / ap
        total += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
            break
    else:
        raise ArithmeticError("incomplete gamma series did not converge")
    return total * np.exp(-x + p * np.log(x))


def _upper_gamma_contfrac(p, x):
    # Legendre continued fraction via modified Lentz.  Converges for any
    # p < x + 1, including negative p, so for x >= 1.5 it is applied at the
    # target parameter directly (no cancellation-prone recurrence).
    tiny = 1e-300
    b = x + 1.0 - p  # >= 0.5 whenever x >= 1.5 and p <= 2
    c = np.full(x.shape, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, 1000):
        an = -i * (i - p)
        b = b + 2.0
        d = an * d + b
        np.copyto(d, tiny, where=(d == 0.0))
        c = b + an / c
        np.copyto(c, tiny, where=(c == 0.0))
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.all(np.abs(delta - 1.0) < 1e-15):
            break
    else:
        raise ArithmeticError("incomplete gamma continued fraction did not converge")
    return np.exp(-x + p * np.log(x)) * h


_CONTFRAC_SWITCH = 1.5
_EULER_GAMMA = 0.5772156649015329
# zeta(2..8): log Gamma(1 + p) = -gamma p + sum_k zeta(k) (-p)^k / k
_ZETA = (1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
         1.0173430619844492, 1.008349277381923, 1.0040773561979444)


def gamma1pm1_over_p(p):
    """H(p) = (Gamma(1 + p) - 1)/p, -gamma at p = 0; below |p| = 0.01 by that
    series of log Gamma(1 + p), without the cancellation of the difference."""
    if abs(p) >= 0.01:
        return (math.gamma(1.0 + p) - 1.0) / p
    if p == 0.0:
        return -_EULER_GAMMA
    log_gamma = -_EULER_GAMMA * p + sum(z * (-p) ** k / k for k, z in enumerate(_ZETA, 2))
    return math.expm1(log_gamma) / p


def gammainc_upper(p, x):
    """Unnormalized upper incomplete gamma Gamma(p, x) for x > 0.

    Supports the parameter range needed here, p in (-2, 2].  For x >= 1.5
    the Legendre continued fraction is evaluated at p itself (it converges
    for negative parameters too).  For smaller x the downward recurrence
    Gamma(a, x) = (Gamma(a+1, x) - x^a e^{-x}) / a runs from p0 = p +
    max(0, floor(1/2 - p)), in (-1/2, 1/2] or p itself above 1/2: from the
    regular series below p0 = 1/2 (no pole at 0), else the ascending one.
    """
    if not -2.0 < p <= 2.0:
        raise ValueError("parameter must lie in (-2, 2]")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr).astype(float)
    if np.any(~np.isfinite(x_arr)) or np.any(x_arr <= 0.0):
        raise ValueError("argument must be positive and finite")

    big = x_arr >= _CONTFRAC_SWITCH
    out = np.empty_like(x_arr)
    if np.any(big):
        out[big] = _upper_gamma_contfrac(p, x_arr[big])
    if np.any(~big):
        out[~big] = _upper_gamma_recurrence(p, x_arr[~big])
    return float(out[0]) if scalar else out


def gammainc_span(p, x0, x1):
    """Gamma(p, x0) - Gamma(p, x1) for scalars 0 <= x0 < x1, p in (-2, 2] and
    p > 0 if x0 = 0.  From x0 = 0 it is the lower gamma(p, x1), taken by its
    series below x1 = 1.5, where the difference would lose it to cancellation."""
    if x0 > 0.0:
        return gammainc_upper(p, x0) - gammainc_upper(p, x1)
    if x1 >= _CONTFRAC_SWITCH:
        return math.gamma(p) - gammainc_upper(p, x1)
    return float(_lower_gamma_series(p, np.array([float(x1)]))[0])


def _upper_gamma_regular(p, x):
    # Gamma(p, x) = H(p) - (x^p - 1)/p - x^p sum_{k>=1} (-x)^k / (k! (p + k)), E1(x)
    # at p = 0 (Gil, Segura & Temme 2007), for |p| <= 1/2; at x < 1.5 the
    # terms after k = 29 sum to less than 1.5^30/30! < 1e-27.
    k = np.arange(1.0, 30.0)
    total = (np.cumprod(-x[:, None] / k, axis=1) / (p + k)).sum(axis=1)
    log_x = np.log(x)
    power_m1 = log_x if p == 0.0 else np.expm1(p * log_x) / p
    return gamma1pm1_over_p(p) - power_m1 - np.exp(p * log_x) * total


def _upper_gamma_recurrence(p, x):
    # from p0 >= 1/2, Gamma(p0) - gamma(p0, x) loses at most a few bits
    steps = max(0, math.floor(0.5 - p))
    p0 = p + steps
    out = (math.gamma(p0) - _lower_gamma_series(p0, x) if p0 >= 0.5
           else _upper_gamma_regular(p0, x))
    a = p0
    for _ in range(steps):
        a -= 1.0
        out = (out - np.exp(a * np.log(x) - x)) / a
    return out

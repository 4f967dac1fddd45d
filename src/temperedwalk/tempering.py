"""Tempering of heavy-tailed jumps.

A tempering function q(r, s) satisfies q(0+, s) = alpha and q(inf, s) = 0,
and user-supplied ones must be non-increasing in r (the conditionally
exponential built-in rises briefly near zero when alpha < 1, which is fine:
everything downstream only uses the survival function).  q induces

    pi(u, s) = u^alpha * integral_u^inf r^(-alpha-1) q(r, s) dr,

which is the tail P(T > u) of the tempering variable T attached to direction
s.  Tempered jumps keep their direction and have radius min(R, v*T).

T is drawn exactly: for a non-increasing q with q(0+) = alpha, q/alpha is
the survival function of some V >= 0, and r = u*w gives pi(u) = P(V/W > u)
with W ~ Pareto(alpha, 1), so T = V * U^(1/alpha) with U uniform (Rosinski,
SPA 2007; Kawai & Masuda, JCAM 2011).  A sampler reads ``t_uniforms`` rows.

Each family is a subclass of ``TemperingSpec``, listed by name in
``FAMILIES``, with its own q, pi, T sampler, Q(r) = int_0^r q and
tail_moment(L) = int_L^inf q r^-alpha dr (quadrature unless overridden):

* ``NoTempering``  q = alpha, pi = 1, T = +inf.
* ``ConditionallyExponential``  q = (alpha + lam r) e^(-lam r), pi = e^(-lam u),
  T = E/lam (q/alpha exceeds 1 near 0 when alpha < 1: no V).
* ``ExponentialQ``  q = alpha e^(-lam r), pi = alpha (lam u)^alpha Gamma(-alpha, lam u),
  V = E/lam.
* ``CustomQ``  user callable, validated by sampling; pi by quadrature, V from
  a table of q/alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import adaptive_quad, gammainc_upper, integral_to_infinity
from .spectral import SpectralMeasure

__all__ = [
    "TemperingSpec",
    "RateFamily",
    "NoTempering",
    "ConditionallyExponential",
    "ExponentialQ",
    "CustomQ",
    "FAMILIES",
    "RegularityReport",
    "NO_TEMPERING",
    "CONDITIONALLY_EXPONENTIAL",
    "EXPONENTIAL_Q",
    "CUSTOM_Q",
]

NO_TEMPERING = "no_tempering"
CONDITIONALLY_EXPONENTIAL = "conditionally_exponential"
EXPONENTIAL_Q = "exponential_q"
CUSTOM_Q = "custom_q"

# Validation grid for custom tempering callables.  The limit value alpha is
# only required loosely at the left edge because admissible q may approach it
# at any power rate.
_CHECK_GRID = np.geomspace(1e-10, 1e8, 181)
_LIMIT_SLACK = 0.05

# Points of the per-atom table of q/alpha that custom_q inverts for V.
_V_TABLE_POINTS = 600


@dataclass(frozen=True)
class RegularityReport:
    """Profile of u^(1-beta) * (alpha - q(u, s)) on a log grid near zero."""

    beta: float
    sup_value: float
    bounded: bool
    grid: np.ndarray
    values: np.ndarray  # one row per atom (or a single row for scalar rates)


def _positive(x, name):
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or np.any(~np.isfinite(arr)):
        raise ValueError(f"{name} must be positive and finite")
    return arr


def _unwrap(out):
    return float(out) if out.ndim == 0 else out


def _pointwise(f, x):
    return np.asarray([f(float(xi)) for xi in np.atleast_1d(x)]).reshape(x.shape)


class TemperingSpec:
    """One tempering family with its rates; subclasses are the families.

    Atoms are addressed by their index j into ``sigma``; families whose q
    ignores the atom also accept None.

    Per-atom rates and custom q bind the spec to ``sigma``, which it keeps
    as ``self.sigma``; a walk or exponent on any other spectral measure is
    rejected.  Scalar-rate families bind to nothing and keep ``sigma=None``.
    """

    family = None  # the family's name, a key of FAMILIES
    t_uniforms = 1  # uniform rows per jump that the T sampler reads

    def __init__(self, alpha):
        if not 0.0 < alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        self.alpha = float(alpha)
        self.sigma = None
        self._rates = None

    # ---------------------------------------------------------------- setup

    @classmethod
    def no_tempering(cls, alpha):
        return NoTempering(alpha)

    @classmethod
    def conditionally_exponential(cls, alpha, rates, sigma=None):
        return ConditionallyExponential(alpha, rates, sigma)

    @classmethod
    def exponential_q(cls, alpha, rates, sigma=None):
        return ExponentialQ(alpha, rates, sigma)

    @classmethod
    def custom_q(cls, alpha, q, sigma):
        return CustomQ(alpha, q, sigma)

    # ------------------------------------------------------------- plumbing

    def rate(self, j=None):
        """Tempering rate of atom j, an index or an index array.

        A scalar rate is returned as the float itself for any j; families
        without rates give None.
        """
        if not isinstance(self._rates, np.ndarray):
            return self._rates
        return self._rates[self._index(j)]

    def check_law(self, alpha, sigma):
        """Raise ValueError unless this spec tempers the law of index ``alpha``
        (to 1e-12) on the atoms of ``sigma``: any ``sigma`` for scalar rates,
        and for a bound spec only one equal to the bound measure."""
        if abs(alpha - self.alpha) > 1e-12:
            raise ValueError(f"tempering has alpha {self.alpha}, the law {alpha}")
        if self.sigma is not None and self.sigma != sigma:
            raise ValueError("tempering is bound to another spectral measure")

    def _index(self, j):
        # Per-atom rates and custom q cannot default to an atom.
        if j is None:
            raise ValueError(f"{self.family} with a bound sigma needs an atom index")
        return j

    # ------------------------------------------------------------ main laws

    def q(self, r, j=None):
        """Tempering function q(r, s_j) of atom j; r may be an array."""
        return _unwrap(self._q(_positive(r, "r"), j))

    def pi(self, u, j=None):
        """Survival function pi(u, s_j) = P(T > u) of atom j; u may be an array."""
        return _unwrap(self._pi(_positive(u, "u"), j))

    def cumulative_q(self, r, j=None):
        """Q(r) = integral_0^r q(x, s_j) dx, here by quadrature."""
        return adaptive_quad(lambda x: self.q(x, j), 0.0, r)

    def tail_moment(self, lower, j=None):
        """integral_lower^inf q(r, s_j) r^-alpha dr, the Lévy measure's radial
        first moment above ``lower``; here by quadrature."""
        return integral_to_infinity(lambda r: self.q(r, j) * r ** (-self.alpha), lower)

    def exponent_terms(self, k):
        """(theta, kappa, coef, times_ic, drift_free, mean_zero) of atoms
        0..k-1, or None without a closed form: with z = theta - ic, psi is
        coef (ic if times_ic) expm1(kappa log(z/theta)) + ic * the linear
        term of the convention."""
        return None

    # ----------------------------------------------------------- regularity

    def verify_regularity(self, beta):
        """Profile u^(1-beta) * (alpha - q(u, s)) on u in [1e-6, 1].

        The report flags ``bounded=False`` when the supremum sits in the
        smallest decade of the grid, i.e. the profile still grows as u -> 0.
        """
        if not 1.0 < self.alpha < 2.0:
            raise ValueError("regularity check applies to alpha in (1, 2)")
        if beta <= self.alpha:
            raise ValueError("beta must exceed alpha")
        grid = np.geomspace(1e-6, 1.0, 61)
        atoms = [None] if self.sigma is None else range(len(self.sigma))
        values = np.vstack([grid ** (1.0 - beta) * (self.alpha - self.q(grid, j))
                            for j in atoms])
        sup = float(values.max())
        small = grid <= 1e-5
        sup_small = float(values[:, small].max())
        bounded = not (sup > 0.0 and sup_small >= sup * (1.0 - 1e-9))
        return RegularityReport(beta=float(beta), sup_value=sup, bounded=bounded,
                                grid=grid, values=values)


class NoTempering(TemperingSpec):
    """q = alpha: the raw heavy-tailed jump, T = +inf."""

    family = NO_TEMPERING
    t_uniforms = 0  # T = +inf needs no uniform

    def _q(self, r, j):
        return np.full(r.shape, self.alpha)

    def _pi(self, u, j):
        return np.ones_like(u)

    def cumulative_q(self, r, j=None):
        return self.alpha * r

    def tail_moment(self, lower, j=None):
        a = self.alpha
        if a <= 1.0:
            raise ValueError("tail first moment diverges without tempering at alpha <= 1")
        return a * lower ** (1.0 - a) / (a - 1.0)

    def _t_from_uniform(self, u, idx):
        return np.full(idx.shape, np.inf)


class RateFamily(TemperingSpec):
    """A family with one tempering rate lam per atom, or one for all atoms.

    ``rates`` may be a positive scalar (used for every atom) or a sequence
    aligned with the atoms of ``sigma``, which the spec then binds.
    """

    def __init__(self, alpha, rates, sigma=None):
        super().__init__(alpha)
        if rates is None:
            raise ValueError(f"{self.family} needs a tempering rate")
        if np.isscalar(rates):
            if not (np.isfinite(rates) and rates > 0):
                raise ValueError("tempering rate must be positive")
            self._rates = float(rates)
        else:
            arr = np.asarray(rates, dtype=float).ravel()
            if np.any(~np.isfinite(arr)) or np.any(arr <= 0):
                raise ValueError("tempering rates must be positive")
            if not isinstance(sigma, SpectralMeasure):
                raise ValueError("per-atom rates need the spectral measure")
            if arr.shape[0] != len(sigma):
                raise ValueError("need one rate per atom")
            self._rates = arr
            self.sigma = sigma

    def _exponential(self, u, idx):
        # E/lam of atom idx from row 0 of u; a scalar rate stays a float
        return -np.log(1.0 - u[0]) / self.rate(idx)


class _ParetoMixture:
    """T = V * U^(1/alpha) = V/W, W ~ Pareto(alpha, 1): exact wherever
    P(V > r) = q(r)/alpha.  Row 0 of u draws V, row 1 draws W."""

    t_uniforms = 2

    def _t_from_uniform(self, u, idx):
        return self._v_from_uniform(u, idx) * (1.0 - u[1]) ** (1.0 / self.alpha)


class ConditionallyExponential(RateFamily):
    """q = (alpha + lam r) e^(-lam r), so pi = e^(-lam u) and T = E/lam."""

    family = CONDITIONALLY_EXPONENTIAL

    def _q(self, r, j):
        lam = self.rate(j)
        return (self.alpha + lam * r) * np.exp(-lam * r)

    def _pi(self, u, j):
        return np.exp(-self.rate(j) * u)

    def cumulative_q(self, r, j=None):
        lam = self.rate(j)
        x = lam * r
        return (-(self.alpha + 1.0) * np.expm1(-x) - x * np.exp(-x)) / lam

    def tail_moment(self, lower, j=None):
        a, lam = self.alpha, self.rate(j)
        return (lower ** (1.0 - a) * np.exp(-lam * lower)
                + lam ** (a - 1.0) * gammainc_upper(1.0 - a, lam * lower))

    def exponent_terms(self, k):
        # nu(dr) = -d(r^-alpha e^(-theta r)): one integration by parts gives
        # ic Gamma(1-alpha) z^(alpha-1); mean_zero takes out its slope in ic
        # at c = 0, which is coef.
        theta = np.array([self.rate(j) for j in range(k)])
        coef = math.gamma(1.0 - self.alpha) * theta ** (self.alpha - 1.0)
        return theta, self.alpha - 1.0, coef, True, coef, np.zeros_like(theta)

    _t_from_uniform = RateFamily._exponential


class ExponentialQ(_ParetoMixture, RateFamily):
    """q = alpha e^(-lam r), the classical tempered stable law; V = E/lam."""

    family = EXPONENTIAL_Q
    _v_from_uniform = RateFamily._exponential

    def _q(self, r, j):
        return self.alpha * np.exp(-self.rate(j) * r)

    def _pi(self, u, j):
        # alpha x^alpha Gamma(-alpha, x) at x = lam u, capped at 1
        a, x = self.alpha, self.rate(j) * u
        return np.minimum(a * np.exp(a * np.log(x)) * gammainc_upper(-a, x), 1.0)

    def cumulative_q(self, r, j=None):
        lam = self.rate(j)
        return -self.alpha * np.expm1(-lam * r) / lam

    def tail_moment(self, lower, j=None):
        a, lam = self.alpha, self.rate(j)
        return a * lam ** (a - 1.0) * gammainc_upper(1.0 - a, lam * lower)

    def exponent_terms(self, k):
        # alpha Gamma(-alpha) [z^alpha - theta^alpha], less
        # ic alpha theta^(alpha-1) Gamma(1-alpha) under mean_zero
        a = self.alpha
        theta = np.array([self.rate(j) for j in range(k)])
        mean_zero = -a * theta ** (a - 1.0) * math.gamma(1.0 - a)
        return (theta, a, a * math.gamma(-a) * theta ** a, False,
                np.zeros_like(theta), mean_zero)


class CustomQ(_ParetoMixture, TemperingSpec):
    """User-supplied q(r, s), bound to ``sigma`` and validated by sampling.

    pi, Q and the tail moment are quadratures.  V, whose survival function
    is q/alpha, is drawn by inverting a monotone table of q per atom, built
    from calls to q alone.
    """

    family = CUSTOM_Q

    def __init__(self, alpha, q, sigma):
        super().__init__(alpha)
        if q is None or not callable(q):
            raise ValueError("custom_q needs a callable q(r, s)")
        if not isinstance(sigma, SpectralMeasure):
            raise ValueError("custom_q needs the spectral measure for validation")
        self.sigma = sigma
        self._q_callable = q
        for s in sigma.directions:
            vals = np.asarray([float(q(r, s)) for r in _CHECK_GRID])
            if np.any(~np.isfinite(vals)) or np.any(vals < -1e-12):
                raise ValueError("custom q must be finite and nonnegative")
            if np.any(np.diff(vals) > 1e-12 * self.alpha):
                raise ValueError("custom q must be non-increasing in r")
            if abs(vals[0] - self.alpha) > _LIMIT_SLACK * self.alpha:
                raise ValueError("custom q must approach alpha as r -> 0")
            if vals[-1] > 1e-6 * self.alpha:
                raise ValueError("custom q must vanish as r -> infinity")
        self._v_tables = [self._v_table(s) for s in sigma.directions]

    def _v_table(self, sv):
        # (q/alpha capped at 1, r) on a log grid up to where q/alpha < 1e-12,
        # ascending in q/alpha for np.interp.  Monotone despite rounding; a
        # q(0+) below alpha leaves an atom of V at the grid's left edge.
        a = self.alpha
        r_hi = 1.0
        while self._q_callable(r_hi, sv) > 1e-12 * a and r_hi < 1e18:
            r_hi *= 2.0
        grid = np.geomspace(_CHECK_GRID[0], r_hi, _V_TABLE_POINTS)
        surv = np.minimum.accumulate(
            np.minimum([float(self._q_callable(r, sv)) / a for r in grid], 1.0))
        return surv[::-1], grid[::-1]

    def _q(self, r, j):
        sv = self.sigma.directions[self._index(j)]
        return _pointwise(lambda x: float(self._q_callable(x, sv)), r)

    def _pi(self, u, j):
        # pi(u) = (1/alpha) * int_0^1 q(u * z^(-1/alpha), s) dz; the power
        # substitution absorbs the r^(-alpha-1) weight exactly.
        a, sv = self.alpha, self.sigma.directions[self._index(j)]

        def one(x):
            val = adaptive_quad(
                lambda z: float(self._q_callable(x * z ** (-1.0 / a), sv)), 0.0, 1.0,
            ) / a
            return min(max(val, 0.0), 1.0)

        return _pointwise(one, u)

    def _v_from_uniform(self, u, idx):
        out = np.empty_like(u[0])
        for j, (surv, grid) in enumerate(self._v_tables):
            mask = idx == j
            out[mask] = np.interp(1.0 - u[0][mask], surv, grid)
        return out


FAMILIES = {cls.family: cls for cls in
            (NoTempering, ConditionallyExponential, ExponentialQ, CustomQ)}

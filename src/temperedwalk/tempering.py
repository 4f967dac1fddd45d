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
``FAMILIES``, with its own q, pi, T sampler, tail_moment(L) =
int_L^inf q r^-alpha dr and pi_integral(s, a, b) = int_a^b u^(s-1) pi du
(quadrature unless overridden):

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

from .numerics import (adaptive_quad, gamma1pm1_over_p, gammainc_span, gammainc_upper,
                       integral_to_infinity)
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

    def tail_moment(self, lower, j=None):
        """integral_lower^inf q(r, s_j) r^-alpha dr, the Lévy measure's radial
        first moment above ``lower``; here by quadrature."""
        return integral_to_infinity(lambda r: self.q(r, j) * r ** (-self.alpha), lower)

    def pi_integral(self, s, a, b, j=None):
        """integral_a^b u^(s-1) pi(u, s_j) du, 0 <= a < b (s > 0 if a = 0), on a
        piece of a truncated moment between kinks; here by quadrature in u/b
        from a = 0, else in log(u/b)."""
        if a == 0.0:
            inner = adaptive_quad(lambda z: z ** (s - 1.0) * self.pi(b * z, j), 0.0, 1.0)
        else:
            inner = adaptive_quad(lambda t: math.exp(s * t) * self.pi(b * math.exp(t), j),
                                  math.log(a / b), 0.0)
        return b ** s * inner

    def exponent_terms(self, k, convention):
        """(theta, share, linear) of atoms 0..k-1 under ``convention``
        ("truncated", "mean_zero" or "drift_free") for the closed form of
        ``analytics._ClosedForm``, or None without one."""
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

    def tail_moment(self, lower, j=None):
        a = self.alpha
        if a <= 1.0:
            raise ValueError("tail first moment diverges without tempering at alpha <= 1")
        return a * lower ** (1.0 - a) / (a - 1.0)

    def pi_integral(self, s, a, b, j=None):
        # (b^s - a^s)/s, log(b/a) at s = 0 (alpha = 1 in the first moment)
        if a == 0.0:
            return b ** s / s
        log_ratio = math.log(b / a)
        return a ** s * (math.expm1(s * log_ratio) / s if s else log_ratio)

    def exponent_terms(self, k, convention):
        # alpha Gamma(-alpha) (-ic)^alpha = -Gamma(1-eps) ic [P(log(-ic)) + 1/eps];
        # truncated adds ic alpha/eps, and the two 1/eps terms sum to ic (1 + H(-eps))
        eps = self.alpha - 1.0
        linear = (1.0 + gamma1pm1_over_p(-eps) if convention == "truncated"
                  else -math.gamma(1.0 - eps) / eps)
        return None, 0.0, np.full(k, linear)

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

    def exponent_terms(self, k, convention):
        # mean_zero, plus ic times the tail moment above 1 or the whole first moment
        a, s = self.alpha, self.share
        theta = np.array([self.rate(j) for j in range(k)])
        if convention == "truncated":
            linear = np.array([self.tail_moment(1.0, j) for j in range(k)])
        elif convention == "drift_free":
            linear = (a * s + 1.0 - s) * math.gamma(1.0 - a) * theta ** (a - 1.0)
        else:
            linear = np.zeros(k)
        return theta, s, linear

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
    # nu(dr) = -d(r^-alpha e^(-theta r)): by parts, ic Gamma(1-alpha) z^(alpha-1)
    share = 0.0

    def _q(self, r, j):
        lam = self.rate(j)
        return (self.alpha + lam * r) * np.exp(-lam * r)

    def _pi(self, u, j):
        return np.exp(-self.rate(j) * u)

    def tail_moment(self, lower, j=None):
        a, lam = self.alpha, self.rate(j)
        return (lower ** (1.0 - a) * np.exp(-lam * lower)
                + lam ** (a - 1.0) * gammainc_upper(1.0 - a, lam * lower))

    def pi_integral(self, s, a, b, j=None):
        lam = self.rate(j)
        return lam ** -s * gammainc_span(s, lam * a, lam * b)

    _t_from_uniform = RateFamily._exponential


class ExponentialQ(_ParetoMixture, RateFamily):
    """q = alpha e^(-lam r), the classical tempered stable law; V = E/lam."""

    family = EXPONENTIAL_Q
    _v_from_uniform = RateFamily._exponential
    share = 1.0  # alpha Gamma(-alpha) [z^alpha - theta^alpha]

    def _q(self, r, j):
        return self.alpha * np.exp(-self.rate(j) * r)

    def _pi(self, u, j):
        # alpha x^alpha Gamma(-alpha, x) at x = lam u, capped at 1
        a, x = self.alpha, self.rate(j) * u
        return np.minimum(a * np.exp(a * np.log(x)) * gammainc_upper(-a, x), 1.0)

    def tail_moment(self, lower, j=None):
        a, lam = self.alpha, self.rate(j)
        return a * lam ** (a - 1.0) * gammainc_upper(1.0 - a, lam * lower)

    def pi_integral(self, s, a, b, j=None):
        # by parts in x = lam u: alpha lam^-s/(s + alpha) [G(x) - Gamma(s, x)]
        # from lam a to lam b, with G(x) = x^(s+alpha) Gamma(-alpha, x), G(0) = 0
        al, lam = self.alpha, self.rate(j)

        def g(x):
            return x ** (s + al) * gammainc_upper(-al, x) if x else 0.0

        return al * lam ** -s / (s + al) * (g(lam * b) - g(lam * a)
                                            + gammainc_span(s, lam * a, lam * b))


class CustomQ(_ParetoMixture, TemperingSpec):
    """User-supplied q(r, s), bound to ``sigma`` and validated by sampling.

    pi, pi_integral and the tail moment are quadratures.  V, whose survival function
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
        # pi(u) = u^alpha int_u^inf r^(-alpha-1) q(r, s) dr: up to r = 1 in
        # t = log(r/u), as int e^(-alpha t) q(u e^t) dt, so that the fall of q
        # keeps its share of nodes however small u is; the rest to infinity.
        a, sv = self.alpha, self.sigma.directions[self._index(j)]

        def q(r):
            return float(self._q_callable(r, sv))

        def one(x):
            head = 0.0 if x >= 1.0 else adaptive_quad(
                lambda t: math.exp(-a * t) * q(x * math.exp(t)), 0.0, -math.log(x))
            tail = integral_to_infinity(lambda r: q(r) * r ** (-a - 1.0), max(x, 1.0))
            return min(max(head + x ** a * tail, 0.0), 1.0)

        return _pointwise(one, u)

    def _v_from_uniform(self, u, idx):
        out = np.empty_like(u[0])
        for j, (surv, grid) in enumerate(self._v_tables):
            mask = idx == j
            out[mask] = np.interp(1.0 - u[0][mask], surv, grid)
        return out


FAMILIES = {cls.family: cls for cls in
            (NoTempering, ConditionallyExponential, ExponentialQ, CustomQ)}

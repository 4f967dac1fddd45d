"""Tempering of heavy-tailed jumps.

A tempering function q(r, s) satisfies q(0+, s) = alpha and q(inf, s) = 0,
and user-supplied ones must be non-increasing in r (the conditionally
exponential built-in rises briefly near zero when alpha < 1, which is fine:
everything downstream only uses the survival function).  q induces

    pi(u, s) = u^alpha * integral_u^inf r^(-alpha-1) q(r, s) dr,

which is the tail P(T > u) of the tempering variable T attached to direction
s.  Tempered jumps keep their direction and have radius min(R, v*T).

Built-in families:

* ``no_tempering``            q = alpha, pi = 1, T = +inf.
* ``conditionally_exponential``  q = (alpha + lam*r) e^(-lam*r), pi = e^(-lam*u).
* ``exponential_q``           q = alpha * e^(-lam*r); pi needs the upper
                              incomplete gamma at negative parameter.
* ``custom_q``                user callable, validated by sampling; pi by
                              adaptive quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_QUADRATURE, adaptive_quad, gammainc_upper
from .spectral import SpectralMeasure

__all__ = [
    "TemperingSpec",
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

_FAMILIES = (NO_TEMPERING, CONDITIONALLY_EXPONENTIAL, EXPONENTIAL_Q, CUSTOM_Q)

# Left edge of the inverse-survival tables.
_ROOT_LO = 1e-12

# Validation grid for custom tempering callables.  The limit value alpha is
# only required loosely at the left edge because admissible q may approach it
# at any power rate.
_CHECK_GRID = np.geomspace(1e-10, 1e8, 181)
_LIMIT_SLACK = 0.05


@dataclass(frozen=True)
class RegularityReport:
    """Profile of u^(1-beta) * (alpha - q(u, s)) on a log grid near zero."""

    beta: float
    sup_value: float
    bounded: bool
    grid: np.ndarray
    values: np.ndarray  # one row per atom (or a single row for scalar rates)


class TemperingSpec:
    """One tempering family with its rates and quadrature settings.

    ``rates`` may be a positive scalar (used for every atom) or a sequence
    aligned with the atoms of ``sigma``.  Atoms are addressed by their index
    j into ``sigma``; families whose q ignores the atom also accept None.

    Per-atom rates and custom q bind the spec to ``sigma``, which it keeps
    as ``self.sigma``; a walk or exponent on any other spectral measure is
    rejected.  Scalar-rate families bind to nothing and keep ``sigma=None``.
    """

    def __init__(self, alpha, family, rates=None, sigma=None, q=None,
                 quadrature=DEFAULT_QUADRATURE):
        if not 0.0 < alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if family not in _FAMILIES:
            raise ValueError(f"unknown tempering family {family!r}")
        self.alpha = float(alpha)
        self.family = family
        self.sigma = None
        self.quadrature = quadrature
        self._q_callable = q
        self._tables = {}

        if family == NO_TEMPERING:
            self._rates = None
        elif family == CUSTOM_Q:
            if q is None or not callable(q):
                raise ValueError("custom_q needs a callable q(r, s)")
            if not isinstance(sigma, SpectralMeasure):
                raise ValueError("custom_q needs the spectral measure for validation")
            self._rates = None
            self.sigma = sigma
            self._validate_custom()
        else:
            if rates is None:
                raise ValueError(f"{family} needs a tempering rate")
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

    # ---------------------------------------------------------------- setup

    @classmethod
    def no_tempering(cls, alpha):
        return cls(alpha, NO_TEMPERING)

    @classmethod
    def conditionally_exponential(cls, alpha, rates, sigma=None):
        return cls(alpha, CONDITIONALLY_EXPONENTIAL, rates=rates, sigma=sigma)

    @classmethod
    def exponential_q(cls, alpha, rates, sigma=None):
        return cls(alpha, EXPONENTIAL_Q, rates=rates, sigma=sigma)

    @classmethod
    def custom_q(cls, alpha, q, sigma, quadrature=DEFAULT_QUADRATURE):
        return cls(alpha, CUSTOM_Q, sigma=sigma, q=q, quadrature=quadrature)

    def _validate_custom(self):
        for s in self.sigma.directions:
            vals = np.asarray([float(self._q_callable(r, s)) for r in _CHECK_GRID])
            if np.any(~np.isfinite(vals)) or np.any(vals < -1e-12):
                raise ValueError("custom q must be finite and nonnegative")
            if np.any(np.diff(vals) > 1e-12 * self.alpha):
                raise ValueError("custom q must be non-increasing in r")
            if abs(vals[0] - self.alpha) > _LIMIT_SLACK * self.alpha:
                raise ValueError("custom q must approach alpha as r -> 0")
            if vals[-1] > 1e-6 * self.alpha:
                raise ValueError("custom q must vanish as r -> infinity")

    # ------------------------------------------------------------- plumbing

    def rate(self, j=None):
        """Tempering rate of atom j, an index or an index array.

        A scalar rate is returned as the float itself for any j; families
        without rates give None.
        """
        if not isinstance(self._rates, np.ndarray):
            return self._rates
        return self._rates[self._index(j)]

    def check_sigma(self, sigma):
        """Raise ValueError unless the atoms of ``sigma`` are the ones this
        spec indexes: always true for scalar rates, and for a bound spec
        only when ``sigma`` equals the bound measure."""
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
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr <= 0.0) or np.any(~np.isfinite(r_arr)):
            raise ValueError("r must be positive and finite")
        if self.family == NO_TEMPERING:
            out = np.full(r_arr.shape, self.alpha)
        elif self.family == CONDITIONALLY_EXPONENTIAL:
            lam = self.rate(j)
            out = (self.alpha + lam * r_arr) * np.exp(-lam * r_arr)
        elif self.family == EXPONENTIAL_Q:
            lam = self.rate(j)
            out = self.alpha * np.exp(-lam * r_arr)
        else:
            sv = self.sigma.directions[self._index(j)]
            out = np.asarray([float(self._q_callable(float(ri), sv)) for ri in np.atleast_1d(r_arr)])
            out = out.reshape(r_arr.shape)
        return float(out) if out.ndim == 0 else out

    def pi(self, u, j=None):
        """Survival function pi(u, s_j) = P(T > u) of atom j; u may be an array."""
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr <= 0.0) or np.any(~np.isfinite(u_arr)):
            raise ValueError("u must be positive and finite")
        if self.family == CUSTOM_Q:
            sv = self.sigma.directions[self._index(j)]
            out = np.asarray([self._pi_custom(float(ui), sv) for ui in np.atleast_1d(u_arr)])
            out = out.reshape(u_arr.shape)
        else:
            out = self._pi_rate(u_arr, self.rate(j))
        return float(out) if out.ndim == 0 else out

    def _pi_rate(self, u, lam):
        if self.family == NO_TEMPERING:
            return np.ones_like(u)
        if self.family == CONDITIONALLY_EXPONENTIAL:
            return np.exp(-lam * u)
        if self.family == EXPONENTIAL_Q:
            a = self.alpha
            x = lam * u
            val = a * np.exp(a * np.log(x)) * gammainc_upper(-a, x)
            return np.minimum(val, 1.0)
        raise AssertionError("rate-based pi called for custom family")

    def _pi_custom(self, u, sv):
        # pi(u) = (1/alpha) * int_0^1 q(u * z^(-1/alpha), s) dz; the power
        # substitution absorbs the r^(-alpha-1) weight exactly.
        a = self.alpha
        val = adaptive_quad(
            lambda z: float(self._q_callable(u * z ** (-1.0 / a), sv)),
            0.0, 1.0, self.quadrature,
        ) / a
        return min(max(val, 0.0), 1.0)

    def pi_derivative(self, u, j=None):
        """d pi / du.  Exponential survival differentiates in closed form;
        the other families use alpha*pi(u)/u - q(u)/u, which is exact."""
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr <= 0.0) or np.any(~np.isfinite(u_arr)):
            raise ValueError("u must be positive and finite")
        if self.family == NO_TEMPERING:
            out = np.zeros_like(u_arr)
        elif self.family == CONDITIONALLY_EXPONENTIAL:
            lam = self.rate(j)
            out = -lam * np.exp(-lam * u_arr)
        else:
            out = (self.alpha * self.pi(u_arr, j) - self.q(u_arr, j)) / u_arr
        return float(out) if out.ndim == 0 else out

    # ------------------------------------------------------------- sampling

    def _t_from_uniform(self, uprime, idx):
        """Vectorized T draws from uniforms in (0, 1] and atom indices."""
        uprime = np.asarray(uprime, dtype=float)
        if self.family == NO_TEMPERING:
            return np.full(uprime.shape, np.inf)
        if self.family == CUSTOM_Q:
            return self._t_from_table(uprime, idx)
        lam = self.rate(idx)  # a scalar rate stays a float, with no gather
        if self.family == CONDITIONALLY_EXPONENTIAL:
            return -np.log(uprime) / lam
        return self._expq_inverse(uprime, lam)

    def _expq_inverse(self, u, lam):
        # pi depends on u only through lam*u here, so one unit-rate table in
        # z = lam*u serves every rate; draws are T = z(u') / lam.  Flat
        # stretches of pi (the clamp at 1) resolve to their left edge.
        piv, zv = self._expq_unit_table()
        return np.interp(u, piv, zv) / lam

    def _expq_unit_table(self):
        key = ("expq_unit",)
        if key not in self._tables:
            z_hi = 1.0
            while float(self._pi_rate(np.asarray(z_hi), 1.0)) > 1e-12:
                z_hi *= 2.0
            grid = np.geomspace(_ROOT_LO, z_hi, 2400)
            piv = np.minimum.accumulate(self._pi_rate(grid, 1.0))
            self._tables[key] = (piv[::-1], grid[::-1])
        return self._tables[key]

    def _t_from_table(self, uprime, idx):
        # Custom q: tabulate pi per atom of the bound sigma once and invert
        # by monotone interpolation.
        out = np.empty_like(uprime)
        for j in np.unique(idx):
            table = self._survival_table(int(j))
            mask = idx == j
            out[mask] = np.interp(uprime[mask], table[0], table[1])
        return out

    def _survival_table(self, j):
        if j not in self._tables:
            sv = self.sigma.directions[j]
            u_hi = 1.0
            while self._pi_custom(u_hi, sv) > 1e-12 and u_hi < 1e18:
                u_hi *= 2.0
            grid = np.geomspace(_ROOT_LO, u_hi, 600)
            piv = np.asarray([self._pi_custom(float(g), sv) for g in grid])
            piv = np.minimum.accumulate(piv)  # enforce monotone despite quad noise
            order = np.argsort(piv)
            self._tables[j] = (piv[order], grid[order])
        return self._tables[j]

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

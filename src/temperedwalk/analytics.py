"""Limit-law analytics and convergence diagnostics.

The limit of the tempered walk is infinitely divisible with Lévy measure
M(dr, ds) = r^(-alpha-1) q(r, s) dr sigma(ds) and no Gaussian part.  This
module evaluates its characteristic exponent under three compensation
conventions, computes the analytic mean and shift for alpha > 1, integrates
Lévy masses over annular sectors, and provides the empirical counterparts
(characteristic functions, vague-convergence tables, UAN profiles, densities)
used to validate simulation output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import _aux_jumps, _over_atoms, _truncated_moment, tempering_threshold
from .jumps import JumpModel
from .numerics import QuadratureError, adaptive_quad, integral_to_infinity
from .spectral import SpectralMeasure
from .tempering import NoTempering, TemperingSpec

__all__ = [
    "TRUNCATED",
    "MEAN_ZERO",
    "DRIFT_FREE",
    "LevyExponent",
    "CFGrid",
    "Sector",
    "tempered_mean",
    "shift_theta",
    "tail_first_moment",
    "levy_mass",
    "empirical_cf",
    "cf_distance",
    "default_cf_grid",
    "vague_convergence_table",
    "uan_profile",
    "density_1d",
]

TRUNCATED = "truncated"
MEAN_ZERO = "mean_zero"
DRIFT_FREE = "drift_free"

_CONVENTIONS = (TRUNCATED, MEAN_ZERO, DRIFT_FREE)

# Below this product |<lambda, s>| an atom's radial integral is exactly zero
# for every convention, so it is skipped rather than fed to the oscillatory
# quadrature whose cycle length would overflow.  The closed forms take the
# same skip, so both paths put exact zeros at the same points.
_ZERO_FREQ = 1e-12


def _log1m_i(u):
    # log(1 - iu) on the principal branch for real u, without the
    # cancellation of log|1 - iu| near u = 0 or the overflow of u^2.
    with np.errstate(over="ignore"):
        modulus = np.where(np.abs(u) < 1.0, 0.5 * np.log1p(u * u),
                           np.log(np.hypot(1.0, u)))
    return modulus - 1j * np.arctan(u)


def _cexpm1(w):
    # exp(w) - 1 for complex w, accurate near w = 0.
    half = np.sin(0.5 * w.imag)
    re = np.expm1(w.real) * np.cos(w.imag) - 2.0 * half * half
    return re + 1j * np.exp(w.real) * np.sin(w.imag)


@dataclass(frozen=True)
class _ClosedForm:
    """Atom exponents of a built-in family, vectorized over c = <lambda, s_j>.

    With eps = alpha - 1, P(u) = expm1(eps u)/eps (u at eps = 0) and the
    family's ``exponent_terms`` (theta, share, linear), psi_j(c) is
    Gamma(1-eps) theta^eps [(share theta - ic) P(log(1 - ic/theta)) + share ic]
    + ic linear, or -Gamma(1-eps) ic P(log(-ic)) + ic linear without
    tempering (theta None).  No term has a pole at alpha = 1, and theta^eps
    P(log(z/theta)) is (z^eps - theta^eps)/eps, z = theta - ic, without cancellation at small c.
    """

    eps: float
    theta: np.ndarray | None
    share: float
    linear: np.ndarray

    def __call__(self, c):
        ic = 1j * c
        gain = math.gamma(1.0 - self.eps)
        if self.theta is None:  # log(-ic), finite at c = 0, which _psi zeroes
            log = np.log(np.where(c == 0.0, 1.0, np.abs(c))) - 0.5j * np.pi * np.sign(c)
            return -gain * ic * self._p(log) + ic * self.linear
        lead = (self.share * self.theta - ic) * self._p(_log1m_i(c / self.theta))
        return gain * self.theta ** self.eps * (lead + self.share * ic) + ic * self.linear

    def _p(self, u):
        return u if self.eps == 0.0 else _cexpm1(self.eps * u) / self.eps


class LevyExponent:
    """Characteristic exponent psi(lambda) of the limit law.

    psi(lambda) = sum_j w_j psi_j(<lambda, s_j>), one radial integral per atom
    s_j of sigma.  Conventions differ only in the jump compensation term:

    * ``truncated``  e^{i<l,x>} - 1 - i<l,x> 1(||x|| <= 1)
    * ``mean_zero``  e^{i<l,x>} - 1 - i<l,x>          (needs alpha > 1)
    * ``drift_free`` e^{i<l,x>} - 1                   (needs alpha < 1)

    The tempering family picks how psi_j is evaluated, and ``method`` says
    which way was picked.  The built-in families use closed forms (see
    ``_ClosedForm``), one numpy expression over the whole grid at every
    alpha, alpha = 1 included.  ``custom_q`` uses adaptive quadrature at
    every point (see ``_QuadratureAtoms``).
    """

    def __init__(self, alpha, sigma: SpectralMeasure, tempering: TemperingSpec,
                 convention=TRUNCATED):
        if convention not in _CONVENTIONS:
            raise ValueError(f"unknown convention {convention!r}")
        if convention == MEAN_ZERO and alpha <= 1.0:
            raise ValueError("mean_zero compensation needs alpha > 1")
        if convention == DRIFT_FREE and alpha >= 1.0:
            raise ValueError("drift_free form needs alpha < 1")
        tempering.check_law(alpha, sigma)
        self.alpha = float(alpha)
        self.sigma = sigma
        self.tempering = tempering
        self.convention = convention
        terms = tempering.exponent_terms(len(sigma), convention)
        self._atoms = (_QuadratureAtoms(self.alpha, tempering, convention) if terms is None
                       else _ClosedForm(self.alpha - 1.0, *terms))

    @property
    def dimension(self):
        return self.sigma.dimension

    @property
    def method(self):
        """``"closed_form"`` or ``"quadrature"``: how atom exponents are found."""
        return "closed_form" if isinstance(self._atoms, _ClosedForm) else "quadrature"

    def eval(self, lam):
        """psi at one point; lam is a length-d vector (or scalar for d=1)."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if lam.shape != (self.sigma.dimension,):
            raise ValueError("lambda has the wrong dimension")
        return self._psi(lam[None, :])[0]

    def eval_grid(self, grid):
        """psi at every row of a (G, d) grid."""
        grid = np.atleast_2d(np.asarray(grid, dtype=float))
        if grid.shape[1] != self.sigma.dimension:
            raise ValueError("lambda has the wrong dimension")
        return self._psi(grid)

    def _psi(self, grid):
        if not np.all(np.isfinite(grid)):
            raise ValueError("lambda must be finite")
        c = grid @ self.sigma.directions.T  # (G, J)
        atoms = self._atoms(c)
        atoms[np.abs(c) < _ZERO_FREQ] = 0.0
        return (atoms * self.sigma.weights).sum(axis=1)


class _QuadratureAtoms:
    """Atom exponents by adaptive quadrature, one point at a time.

    The radial integral splits at r = 1: the inner piece uses a
    cancellation-safe integrand, the outer piece Fourier quadrature with the
    non-oscillatory parts (the tail mass r^-alpha pi(r) and, for mean_zero,
    the family's tail moment) taken out.
    """

    def __init__(self, alpha, tempering, convention):
        self.alpha = alpha
        self.tempering = tempering
        self.convention = convention

    def __call__(self, c):
        return np.array([[self.atom(j, cj) for j, cj in enumerate(row)] for row in c],
                        dtype=complex).reshape(c.shape)

    def atom(self, j, c):
        if abs(c) < _ZERO_FREQ:
            return 0.0 + 0.0j
        # Conjugate symmetry lets the oscillatory rule see only c > 0.
        if c < 0.0:
            return np.conj(self.atom(j, -c))
        alpha = self.alpha
        q = self.tempering.q
        mean_zero = self.convention == MEAN_ZERO

        def weight_fn(r):
            return q(r, j) * r ** (-alpha - 1.0)

        def re_part(r):
            return -2.0 * math.sin(0.5 * c * r) ** 2 * weight_fn(r)

        def im_part(r, compensated):
            if compensated:
                return _sin_m1(c * r) * weight_fn(r)
            return math.sin(c * r) * weight_fn(r)

        re_inner = adaptive_quad(re_part, 0.0, 1.0)
        im_inner = adaptive_quad(lambda r: im_part(r, self.convention != DRIFT_FREE),
                                 0.0, 1.0)
        # QUADPACK's Fourier rule takes a first cycle of length pi/c at its
        # lower limit; when that is far longer than the decay scale of the
        # weight it returns about 0 with a tiny error estimate.  So the rule
        # starts at r = 1/c, and [1, 1/c] is integrated in log r without it.
        start = max(1.0, 1.0 / c)
        if start > 1.0:
            span = math.log(start)

            def in_log_r(f):
                return adaptive_quad(lambda t: f(math.exp(t)) * math.exp(t), 0.0, span)

            re_inner += in_log_r(re_part)
            im_inner += in_log_r(lambda r: im_part(r, mean_zero))
        mass = start ** (-alpha) * self.tempering.pi(start, j)
        moment = self.tempering.tail_moment(start, j) if mean_zero else 0.0
        tail_cos = adaptive_quad(weight_fn, start, np.inf, weight="cos", wvar=c)
        tail_sin = adaptive_quad(weight_fn, start, np.inf, weight="sin", wvar=c)
        tail = tail_cos + 1j * tail_sin - mass - 1j * c * moment
        return re_inner + 1j * im_inner + tail


# sin(z) - z flips to its series below this point to avoid cancellation.
_SIN_SWITCH = 1e-4


def _sin_m1(z):
    if abs(z) < _SIN_SWITCH:
        zz = z * z
        return -z * zz / 6.0 * (1.0 - zz / 20.0)
    return math.sin(z) - z


def tail_first_moment(alpha, sigma: SpectralMeasure, tempering: TemperingSpec):
    """The vector integral of x over ||x|| >= 1 against the Lévy measure."""
    tempering.check_law(alpha, sigma)
    return _over_atoms(sigma, lambda j: tempering.tail_moment(1.0, j))


def _half_line(f):
    # integral_0^inf f, split at 1
    return adaptive_quad(f, 0.0, 1.0) + integral_to_infinity(f, 1.0)


_REGULARITY_BETAS = 8


def _require_tempered_regular(alpha, sigma, tempering, what):
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"the {what} is defined for alpha in (1, 2)")
    if isinstance(tempering, NoTempering):
        raise ValueError(f"the {what} needs actual tempering")
    tempering.check_law(alpha, sigma)
    betas = np.linspace(alpha + 0.05, 2.0, _REGULARITY_BETAS)
    if not any(tempering.verify_regularity(b).bounded for b in betas):
        raise ValueError("tempering fails the mean regularity hypothesis")


def tempered_mean(alpha, sigma: SpectralMeasure, tempering: TemperingSpec):
    """Mean vector of the limit law for alpha in (1, 2).

    Uses the order-swapped form: with gbar(r,s) = int_0^r (1 - pi(u,s)) du,
    the double integral of gbar against alpha r^{-alpha-1} collapses to

        m = - sum_j w_j s_j * integral_0^inf (1 - pi(u, s_j)) u^{-alpha} du,

    one well-behaved radial integral per atom (integrand ~ u^{1-alpha} at 0,
    ~ u^{-alpha} at infinity).
    """
    _require_tempered_regular(alpha, sigma, tempering, "tempered mean")
    return -_over_atoms(sigma, lambda j: _half_line(
        lambda u: (1.0 - tempering.pi(u, j)) * u ** (-alpha)))


def shift_theta(alpha, sigma: SpectralMeasure, tempering: TemperingSpec):
    """Shift vector theta = -m + tail_first_moment, by its defining route.

    The first term is integrated as alpha * gbar(r,s) r^{-alpha-1}, with
    gbar(r,s) = r - int_0^r pi(u,s) du, without
    the order swap used by tempered_mean, so comparing -theta +
    tail_first_moment against tempered_mean exercises two independent
    quadrature paths of the same quantity.
    """
    _require_tempered_regular(alpha, sigma, tempering, "shift")
    first = _over_atoms(sigma, lambda j: _half_line(
        lambda r: (r - tempering.pi_integral(1.0, 0.0, r, j)) * r ** (-alpha - 1.0)))
    return alpha * first + tail_first_moment(alpha, sigma, tempering)


def levy_mass(alpha, sigma: SpectralMeasure, tempering: TemperingSpec,
              r_lo, r_hi, atoms=None):
    """Mass of the Lévy measure on {r in [r_lo, r_hi], s in atoms}.

    Every family takes it from its tail function,
    int_a^b r^{-alpha-1} q(r,s) dr = a^{-alpha} pi(a,s) - b^{-alpha} pi(b,s);
    r_hi may be infinite.
    """
    if not (0.0 < r_lo <= r_hi):
        raise ValueError("need 0 < r_lo <= r_hi")
    tempering.check_law(alpha, sigma)
    indices = range(len(sigma)) if atoms is None else atoms
    if any(not 0 <= j < len(sigma) for j in indices):
        raise ValueError("atoms must be indices of sigma's atoms")
    total = 0.0
    for j in indices:
        upper = 0.0 if math.isinf(r_hi) else r_hi ** (-alpha) * tempering.pi(r_hi, j)
        total += sigma.weights[j] * (r_lo ** (-alpha) * tempering.pi(r_lo, j) - upper)
    return total


# ------------------------------------------------------------ empirical CF


@dataclass
class CFGrid:
    """Evaluation points and complex CF (or CF-model) values."""

    points: np.ndarray  # (G, d)
    values: np.ndarray  # (G,) complex

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.points.shape[0],):
            raise ValueError("one value per grid point required")


def default_cf_grid(d, lo=-5.0, hi=5.0, points=201, per_axis=41):
    """d=1: a single dense segment; d>=2: coordinate axes plus diagonals."""
    if d == 1:
        return np.linspace(lo, hi, points).reshape(-1, 1)
    ticks = np.linspace(lo, hi, per_axis)
    dirs = [np.eye(d)[i] for i in range(d)]
    dirs.append(np.full(d, 1.0 / math.sqrt(d)))
    alt = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(d)])
    dirs.append(alt / math.sqrt(d))
    rows = [t * u for u in dirs for t in ticks]
    return np.asarray(rows)


def empirical_cf(batch, grid, chunk=4096):
    """Empirical characteristic function of a sample batch on a grid."""
    values = batch.values if hasattr(batch, "values") else np.asarray(batch, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    n = values.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    acc = np.zeros(grid.shape[0], dtype=complex)
    for start in range(0, n, chunk):
        block = values[start:start + chunk]
        acc += np.exp(1j * (block @ grid.T)).sum(axis=0)
    return CFGrid(points=grid, values=acc / n)


@dataclass
class CFDistance:
    sup_abs: float
    per_point: np.ndarray
    theory: np.ndarray


def cf_distance(empirical: CFGrid, exponent, drift=None):
    """Pointwise |empirical CF - exp(psi + i <drift, lambda>)| and its sup.

    ``exponent`` is a LevyExponent, a callable lambda -> psi, or an array of
    psi values already evaluated at ``empirical.points``.
    """
    grid = empirical.points
    psi = _exponent_values(exponent, grid)
    if drift is not None:
        drift = np.asarray(drift, dtype=float)
        psi = psi + 1j * (grid @ drift)
    theory = np.exp(psi)
    per_point = np.abs(empirical.values - theory)
    return CFDistance(float(per_point.max()), per_point, theory)


def _exponent_values(exponent, grid):
    if isinstance(exponent, LevyExponent):
        if exponent.dimension != grid.shape[1]:
            raise ValueError("grid dimension does not match the exponent")
        return exponent.eval_grid(grid)
    if isinstance(exponent, np.ndarray):
        if exponent.shape != (grid.shape[0],):
            raise ValueError("one exponent value per grid point required")
        return exponent
    return np.array([complex(exponent(row)) for row in grid])


# ------------------------------------------------------------- diagnostics


@dataclass(frozen=True)
class Sector:
    """Annular sector {r_lo <= r <= r_hi} x {atom subset or all atoms}."""

    r_lo: float
    r_hi: float
    atoms: tuple = None

    def __post_init__(self):
        if not (0.0 < self.r_lo <= self.r_hi):
            raise ValueError("sector needs 0 < r_lo <= r_hi")
        if self.atoms is not None:
            object.__setattr__(self, "atoms", tuple(int(a) for a in self.atoms))


@dataclass
class VagueRow:
    sector: Sector
    hits: int
    estimate: float      # n * empirical frequency
    target: float        # Lévy mass of the sector
    rel_error: float
    std_error: float     # binomial, on the estimate scale
    undersampled: bool


def vague_convergence_table(model: JumpModel, tempering: TemperingSpec, n,
                            sectors, draws, seed=0):
    """Compare n * P(Y/v in sector) against the Lévy mass, sector by sector.

    Uses single tempered jumps (row length 1 of the array at index n), drawn
    from an auxiliary stream so no replicate stream is disturbed.  Sectors
    with fewer than 100 hits are flagged, not failed.
    """
    sectors = list(sectors)
    if draws < 1 or not sectors:
        raise ValueError("vague_convergence_table needs draws >= 1 and a sector")
    sigma = model.sigma
    tempering.check_law(model.alpha, sigma)
    targets = []
    for si, sec in enumerate(sectors):  # first, so that a bad sector wastes no draw
        try:
            targets.append(levy_mass(model.alpha, sigma, tempering, sec.r_lo, sec.r_hi, sec.atoms))
        except OverflowError:
            raise OverflowError(
                f"sector {si}: Lévy mass above r_lo = {sec.r_lo!r} overflows") from None
    v = tempering_threshold(model, n)
    hits = np.zeros(len(sectors), dtype=np.int64)
    for idx, rad in _aux_jumps(model, tempering, v, draws, seed):
        z = rad / v
        for si, sec in enumerate(sectors):
            mask = (z >= sec.r_lo) & (z <= sec.r_hi)
            if sec.atoms is not None:
                mask &= np.isin(idx, sec.atoms)
            hits[si] += int(mask.sum())
    rows = []
    for si, (sec, target) in enumerate(zip(sectors, targets)):
        p_hat = hits[si] / draws
        est = n * p_hat
        rel = abs(est - target) / target if target > 0 else math.inf
        se = n * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / draws)
        rows.append(VagueRow(sec, int(hits[si]), est, target, rel, se,
                             undersampled=hits[si] < 100))
    return rows


@dataclass
class UANProfile:
    deltas: np.ndarray
    values: np.ndarray
    slope: float


def uan_profile(model: JumpModel, tempering: TemperingSpec, n, deltas):
    """Truncated second moments n v^{-2} E||Y 1(||Y|| <= v delta)||^2.

    E[Z^2 1(Z <= delta)] per atom, Z = min(R/v, T), is
    ``engine._truncated_moment`` at p = 2 (closed forms but for custom_q),
    summed over atoms as a_n is.
    Reports the values and the fitted log-log slope over deltas.
    """
    deltas = np.asarray(sorted(float(x) for x in deltas))
    if deltas.size == 0:
        raise ValueError("uan_profile needs at least one delta")
    if np.any(deltas <= 0.0) or np.any(deltas > 1.0):
        raise ValueError("deltas must lie in (0, 1]")
    sigma = model.sigma
    tempering.check_law(model.alpha, sigma)
    mass = sigma.total_mass()
    v = tempering_threshold(model, n)
    ones = np.ones(len(sigma))  # E||Y||^2 has no direction
    values = np.asarray([n * _over_atoms(
        sigma, lambda j: _truncated_moment(model, tempering, v, j, 2, delta), ones) / mass
        for delta in deltas.tolist()])
    if len(deltas) >= 2:
        slope = float(np.polyfit(np.log(deltas), np.log(values), 1)[0])
    else:
        slope = math.nan  # a slope needs at least two deltas
    return UANProfile(deltas, values, slope)


# --------------------------------------------------------------- densities


@dataclass
class DensityResult:
    x: np.ndarray
    density: np.ndarray
    mass_defect: float
    clipped_mass: float
    window: float


# CF modulus required at the inversion window edge, and hard caps guarding
# against laws whose CF decays too slowly to invert at desk scale.
_WINDOW_TARGET = 1e-8
_WINDOW_START = 16.0
_WINDOW_MAX_DOUBLINGS = 24
_POINTS_PER_PERIOD = 8.0
_MAX_WINDOW_POINTS = 32769


def density_1d(exponent, drift, x_grid):
    """Density of the limit law on a symmetric 1-d grid by CF inversion.

    The inversion window [0, L] is doubled until |CF| < 1e-8 at the edge,
    then exp(psi + i lambda drift) is integrated against e^{-i lambda x} by
    trapezoid using conjugate symmetry.  Negative lobes are clipped to zero
    and reported, as is the total-mass defect.
    """
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or x.shape[0] < 3:
        raise ValueError("x_grid must be a 1-d grid with at least 3 points")
    steps = np.diff(x)
    if np.any(steps <= 0) or abs(steps.max() - steps.min()) > 1e-9 * steps.max():
        raise ValueError("x_grid must be uniform and increasing")
    if abs(x[0] + x[-1]) > 1e-9 * max(1.0, abs(x[-1])):
        raise ValueError("x_grid must be symmetric about zero")

    drift_v = np.asarray(0.0 if drift is None else drift, dtype=float).ravel()
    if drift_v.size != 1:
        raise ValueError("density drift must hold exactly one value")

    if isinstance(exponent, LevyExponent) and exponent.dimension != 1:
        raise ValueError("density inversion is 1-d only")

    def psi(lam):
        if isinstance(exponent, LevyExponent):
            return exponent.eval_grid(lam[:, None])
        return np.array([complex(exponent(np.array([t]))) for t in lam])

    window = _WINDOW_START
    for _ in range(_WINDOW_MAX_DOUBLINGS):
        if math.exp(psi(np.array([window]))[0].real) < _WINDOW_TARGET:
            break
        window *= 2.0
    else:
        raise QuadratureError(
            "characteristic function decays too slowly; "
            "no usable inversion window below the cap"
        )

    x_max = max(abs(x[0]), abs(x[-1]), 1.0)
    spacing = 2.0 * math.pi / (_POINTS_PER_PERIOD * x_max)
    m = int(math.ceil(window / spacing)) + 1
    m = max(m, 513)
    if m > _MAX_WINDOW_POINTS:
        raise QuadratureError("inversion window too wide for the grid extent")
    lam = np.linspace(0.0, window, m)
    phi = np.exp(psi(lam) + 1j * lam * drift_v[0])
    # One-sided integral; the lambda < 0 half is the conjugate mirror.
    kernel = np.exp(-1j * np.outer(x, lam)) * phi[None, :]
    dens = np.trapezoid(kernel.real, lam, axis=1) / math.pi
    clipped = float(np.sum(np.where(dens < 0.0, -dens, 0.0)) * steps.mean())
    dens = np.maximum(dens, 0.0)
    defect = abs(1.0 - float(np.sum(dens) * steps.mean()))
    return DensityResult(x=x, density=dens, mass_defect=defect,
                         clipped_mass=clipped, window=window)

"""Independent references for the benchmark's output checks.

Every law here is one-dimensional: atoms s_j in {+1, -1} with weights w_j
summing to 1, an exact Pareto radius R with x_m = 1 and index alpha, one
tempering rate theta for every atom, and the threshold v = n^(1/alpha).  The
normalized jump Z = min(R/v, T) then has survival

    P(Z > u) = min(1, u^(-alpha) / n) * pi(u),

with pi(u) = e^(-theta*u) for the conditionally exponential family and
pi(u) = alpha * (theta*u)^alpha * Gamma(-alpha, theta*u) for exponential_q.
The finite-n mean, centering and characteristic function, the limit
exponents and the Lévy masses all follow from it with elementary integrals
and upper incomplete gammas.  They are evaluated with mpmath and numpy only,
never with the library's quadrature, so they stay an independent oracle.
"""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

CE = "conditionally_exponential"
EXPQ = "exponential_q"

_DPS = 30


@dataclass(frozen=True)
class Law:
    alpha: float
    theta: float
    family: str
    atoms: tuple  # ((direction, weight), ...), direction +1.0 or -1.0

    def config(self):
        """The ``sigma``, ``model`` and ``tempering`` sections of a config."""
        return {
            "sigma": [{"direction": [s], "weight": w} for s, w in self.atoms],
            "model": {"alpha": self.alpha, "x_m": 1.0},
            "tempering": {"family": self.family, "rates": self.theta},
        }

    @property
    def drift(self):
        """sum_j w_j s_j: every atom shares the radial law."""
        return sum(w * s for s, w in self.atoms)


def _eps(n, law):
    return mp.mpf(n) ** (-1 / mp.mpf(law.alpha))


def _pi(law, u):
    a, y = mp.mpf(law.alpha), mp.mpf(law.theta) * u
    if law.family == CE:
        return mp.exp(-y)
    return a * y ** a * mp.gammainc(-a, y)


def _int_pi(law, x):
    """integral_0^x pi(u) du."""
    a, th = mp.mpf(law.alpha), mp.mpf(law.theta)
    y = th * x
    if law.family == CE:
        return -mp.expm1(-y) / th
    return a / (th * (a + 1)) * (y ** (a + 1) * mp.gammainc(-a, y) - mp.expm1(-y))


def _int_tail(law, x):
    """Antiderivative of u^(-alpha) pi(u) that vanishes at infinity."""
    a, th = mp.mpf(law.alpha), mp.mpf(law.theta)
    y = th * x
    if law.family == CE:
        return -th ** (a - 1) * mp.gammainc(1 - a, y)
    return a * th ** (a - 1) * (y * mp.gammainc(-a, y) - mp.gammainc(1 - a, y))


def _survival_integral(law, n, hi):
    """integral_0^hi P(Z > u) du for hi >= eps (hi may be mp.inf)."""
    eps = _eps(n, law)
    upper = 0 if hi == mp.inf else _int_tail(law, hi)
    return _int_pi(law, eps) + (upper - _int_tail(law, eps)) / n


def rowsum_mean(law, n, center=0.0, t=1.0):
    """Mean of (1/v) * S(floor(n*t)) - t*center."""
    with mp.workdps(_DPS):
        jumps = math.floor(n * t)
        return float(jumps * law.drift * _survival_integral(law, n, mp.inf)
                     - mp.mpf(t) * center)


def truncated_center(law, n):
    """a_n = n * E[X 1(|X| < 1)] = n * sum_j w_j s_j (E[Z; Z < 1])."""
    with mp.workdps(_DPS):
        below = _survival_integral(law, n, mp.mpf(1)) - _pi(law, mp.mpf(1)) / n
        return float(n * law.drift * below)


def jump_mean_center(law, n):
    """a_n = n * E[R] * sum_j w_j s_j / v, with E[R] = alpha / (alpha - 1)."""
    a = law.alpha
    return n * law.drift * a / (a - 1.0) / n ** (1.0 / a)


def _series(term):
    """sum_{k >= 0} term(k), stopped once a term drops below 1e-40."""
    total, k = mp.mpc(0), 0
    while True:
        t = term(k)
        total += t
        if abs(t) < mp.mpf("1e-40"):
            return total
        k += 1


def _power_cf_integral(p, c, eps):
    """integral_0^eps u^p e^(i*c*u) du by the power series of e^(i*c*u)."""
    return _series(lambda m: (1j * c) ** m * eps ** (p + m + 1) / (mp.factorial(m) * (p + m + 1)))


def _jump_cf_minus_one(law, n, c):
    """E e^(i*c*Z) - 1 = i*c * integral_0^inf e^(i*c*u) P(Z > u) du."""
    if c == 0:
        return mp.mpc(0)
    a, th = mp.mpf(law.alpha), mp.mpf(law.theta)
    eps = _eps(n, law)
    z = th - 1j * c
    head = -mp.expm1(-z * eps) / z
    if law.family == CE:
        tail = z ** (a - 1) * mp.gammainc(1 - a, z * eps) / n
    else:
        # Below eps, pi(u) = e^(-theta*u) - (theta*u)^alpha * Gamma(1-alpha, theta*u)
        # and the lower incomplete gamma series gives
        # (theta*u)^alpha * Gamma(1-alpha, theta*u)
        #   = Gamma(1-alpha) (theta*u)^alpha - sum_k (-1)^k (theta*u)^(1+k) / (k! (1-alpha+k)).
        # Above eps, integration by parts in u turns e^(i*c*u) Gamma(-alpha, theta*u)
        # into Gamma(-alpha, z*eps).
        head -= mp.gamma(1 - a) * th ** a * _power_cf_integral(a, c, eps)
        head += _series(lambda k: (-1) ** k * th ** (1 + k) / (mp.factorial(k) * (1 - a + k))
                        * _power_cf_integral(1 + k, c, eps))
        tail = a / (n * 1j * c) * (z ** a * mp.gammainc(-a, z * eps)
                                   - th ** a * mp.exp(1j * c * eps)
                                   * mp.gammainc(-a, th * eps))
    return 1j * c * (head + tail)


def rowsum_cf(law, n, lams, center=0.0, t=1.0):
    """CF of (1/v) * S(floor(n*t)) - t*center at each real lambda:

        (sum_j w_j E e^(i*lambda*s_j*Z))^floor(n*t) * e^(-i*lambda*t*center).
    """
    jumps = math.floor(n * t)
    out = []
    with mp.workdps(_DPS):
        for lam in lams:
            lam = mp.mpf(float(lam))
            jump = mp.fsum(w * _jump_cf_minus_one(law, n, lam * s) for s, w in law.atoms)
            out.append(complex(mp.exp(jumps * mp.log1p(jump) - 1j * lam * t * center)))
    return np.array(out)


def _tail_linear_moment(law):
    """integral_1^inf r nu(dr) for one unit-mass atom of the CE family."""
    with mp.workdps(_DPS):
        a, th = mp.mpf(law.alpha), mp.mpf(law.theta)
        return float(th ** (a - 1) * mp.gammainc(1 - a, th) + mp.exp(-th))


def limit_exponent(law, convention, lams):
    """Closed-form Lévy exponent psi(lambda) of the n -> inf limit.

    * exponential_q, drift_free: alpha*Gamma(-alpha)*[(theta - ic)^alpha - theta^alpha];
    * conditionally exponential, truncated:
      i*c*Gamma(1-alpha)*[(theta - ic)^(alpha-1) - theta^(alpha-1)]
      + i*c*integral_1^inf r nu(dr),

    summed over atoms with c = lambda * s_j.
    """
    lams = np.asarray(lams, dtype=float)
    a, th = law.alpha, law.theta
    if (law.family, convention) == (EXPQ, "drift_free"):
        def atom(c):
            return a * math.gamma(-a) * ((th - 1j * c) ** a - th ** a)
    elif (law.family, convention) == (CE, "truncated"):
        k = _tail_linear_moment(law)

        def atom(c):
            return 1j * c * (math.gamma(1 - a) * ((th - 1j * c) ** (a - 1) - th ** (a - 1)) + k)
    else:
        raise ValueError(f"no closed form for {law.family} under {convention}")
    return sum(w * atom(lams * s) for s, w in law.atoms)


def levy_tail(law, r):
    """nu((r, inf)) per unit atom weight: r^(-alpha) e^(-theta*r) for CE."""
    if law.family != CE:
        raise ValueError("closed-form Lévy tail is for the CE family")
    return 0.0 if math.isinf(r) else r ** -law.alpha * math.exp(-law.theta * r)


def sector_mass(law, r_lo, r_hi, atoms=None):
    """Lévy mass of {r_lo <= r <= r_hi} on the given atom indices."""
    chosen = range(len(law.atoms)) if atoms is None else atoms
    weight = sum(law.atoms[j][1] for j in chosen)
    return weight * (levy_tail(law, r_lo) - levy_tail(law, r_hi))


# CF modulus below which the inversion integral is cut off, and the number of
# grid steps per period of the fastest-oscillating e^(-i*lambda*x).
_EDGE = 1e-13
_STEPS_PER_PERIOD = 32


def invert_density(psi, x):
    """Density on the grid x by trapezoid inversion of exp(psi).

    f(x) = (1/pi) * integral_0^L Re(e^(-i*lambda*x) * exp(psi(lambda))) d lambda,
    with L doubled until |exp(psi(L))| < 1e-13, negative values set to 0.
    """
    x = np.asarray(x, dtype=float)
    window = 1.0
    while math.exp(float(np.real(psi(np.array([window]))[0]))) >= _EDGE:
        window *= 2.0
    x_max = max(float(np.abs(x).max()), 1.0)
    steps = max(4096, math.ceil(window * x_max * _STEPS_PER_PERIOD / (2 * math.pi)))
    lam = np.linspace(0.0, window, steps + 1)
    phi = np.exp(psi(lam))
    arg = np.outer(x, lam)
    integrand = np.cos(arg) * phi.real + np.sin(arg) * phi.imag
    return np.maximum(np.trapezoid(integrand, lam, axis=1) / math.pi, 0.0)

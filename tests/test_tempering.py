import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from temperedwalk import JumpModel, SpectralMeasure, TemperingSpec, engine

ONE = SpectralMeasure([[1.0]], [1.0])
TWO = SpectralMeasure([[1.0], [-1.0]], [0.7, 0.3])

# pi for the alpha-prefactor exponential family equals
# alpha*(lam*u)^alpha * Gamma(-alpha, lam*u) capped at 1; references
# precomputed with mpmath at 40 digits.
EXPQ_PI_CASES = [
    (1.5, 1.0, 1.0, 0.18973172938988163),
    (1.5, 1.0, 0.2, 0.65836063104759351),
    (0.7, 2.0, 1.0, 0.02829302166005113),
    (1.2, 0.5, 3.0, 0.083037228146700984),
]


def _rng(seed=0, stream=0):
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _fd_pi_derivative(spec, u, j=0):
    """Richardson-extrapolated central difference of pi at u."""
    h = 1e-4 * u

    def diff(hh):
        return (spec.pi(u + hh, j) - spec.pi(u - hh, j)) / (2.0 * hh)

    return (4.0 * diff(h / 2.0) - diff(h)) / 3.0


def _families():
    yield TemperingSpec.no_tempering(1.2)
    yield TemperingSpec.conditionally_exponential(0.7, 1.0, ONE)
    yield TemperingSpec.conditionally_exponential(1.5, 1.0, ONE)
    yield TemperingSpec.exponential_q(1.5, 2.0, ONE)
    yield TemperingSpec.custom_q(0.7, lambda r, s: 0.7 * math.exp(-r), ONE)


# ------------------------------------------------------------------ q and pi


def test_q_limits():
    for spec in _families():
        s = 0
        assert spec.q(1e-10, s) == pytest.approx(spec.alpha, rel=1e-6)
        if spec.family != "no_tempering":  # q stays flat at alpha there
            assert spec.q(1e9, s) <= 1e-6 * spec.alpha


def test_pi_bounds_and_monotonicity():
    grid = np.geomspace(1e-8, 1e3, 120)
    for spec in _families():
        s = 0
        vals = np.array([spec.pi(float(u), s) for u in grid])
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-12)
        assert abs(vals[0] - 1.0) <= 1e-5  # pi(0+) = 1


def test_survival_identity_on_log_grid():
    """alpha*pi(r) - r*pi'(r) must reproduce q(r) for every family."""
    grid = np.geomspace(1e-3, 1e2, 40)
    for spec in _families():
        s = 0
        for r in grid:
            r = float(r)
            lhs = spec.alpha * spec.pi(r, s) - r * _fd_pi_derivative(spec, r, s)
            assert abs(lhs - spec.q(r, s)) <= 1e-6 * spec.alpha


@pytest.mark.parametrize("alpha,lam,u,want", EXPQ_PI_CASES)
def test_exponential_q_pi_reference(alpha, lam, u, want):
    spec = TemperingSpec.exponential_q(alpha, lam, ONE)
    assert spec.pi(u, 0) == pytest.approx(want, rel=1e-12)


def test_conditionally_exponential_closed_forms():
    spec = TemperingSpec.conditionally_exponential(1.5, 2.0, ONE)
    for u in (0.01, 0.5, 3.0):
        assert spec.pi(u, 0) == pytest.approx(math.exp(-2.0 * u), rel=1e-14)
        assert spec.q(u, 0) == pytest.approx((1.5 + 2.0 * u) * math.exp(-2.0 * u), rel=1e-14)


def test_custom_q_pi_matches_builtin():
    # same q as the exponential_q family, supplied as a callable
    custom = TemperingSpec.custom_q(0.7, lambda r, s: 0.7 * math.exp(-2.0 * r), ONE)
    built = TemperingSpec.exponential_q(0.7, 2.0, ONE)
    for u in np.geomspace(1e-3, 20.0, 17):
        assert custom.pi(float(u), 0) == pytest.approx(
            built.pi(float(u), 0), abs=1e-8)


@pytest.mark.parametrize("alpha", [0.7, 1.5])
def test_custom_q_pi_is_relatively_accurate_at_small_u(alpha):
    """pi of custom_q, integrated in log r up to r = 1, keeps 1e-12 relative
    accuracy as u -> 0, where 1 - pi ~ u^alpha is all that is left of the fall
    of q; one rule over z in [0, 1] was off by up to 2.5e-5 at alpha = 0.7."""
    custom = TemperingSpec.custom_q(alpha, lambda r, s: alpha * math.exp(-r), ONE)
    built = TemperingSpec.exponential_q(alpha, 1.0, ONE)
    for u in np.geomspace(1e-9, 1.0, 19):
        assert custom.pi(float(u), 0) == pytest.approx(built.pi(float(u), 0), rel=1e-12)


# (s, a, b) of int_a^b u^(s-1) pi du: the first-moment pieces (s = p and
# s = p - alpha) at tiny and ordinary kinks, s = 0 at alpha = 1 included
_PI_INTEGRAL_CASES = [(1.0, 0.0, 1e-7), (2.0, 0.0, 0.15), (1.0, 0.0, 3.0),
                      (0.3, 1e-7, 1.0), (-0.5, 1e-7, 0.15), (-0.9, 0.02, 1.0),
                      (0.0, 1e-5, 1.0), (1.3, 0.5, 4.0)]


@pytest.mark.parametrize("s,a,b", _PI_INTEGRAL_CASES)
def test_pi_integral_closed_forms_match_quadrature(s, a, b):
    """Each built-in family's closed form against the base class's
    quadrature of the same pi, per atom with per-atom rates."""
    for alpha in (0.7, 1.0, 1.5):
        for spec in (TemperingSpec.no_tempering(alpha),
                     TemperingSpec.conditionally_exponential(alpha, [0.5, 3.0], TWO),
                     TemperingSpec.exponential_q(alpha, [0.5, 3.0], TWO)):
            for j in (0, 1):
                want = TemperingSpec.pi_integral(spec, s, a, b, j)
                assert spec.pi_integral(s, a, b, j) == pytest.approx(want, rel=1e-9), (
                    spec.family, alpha, j)


def test_pi_derivative_against_finite_differences():
    """Richardson-extrapolated central differences of pi, 20 log points,
    against pi' = -lam e^(-lam u) (conditionally exponential) and
    pi' = (alpha pi - q)/u (exponential_q)."""
    ce = TemperingSpec.conditionally_exponential(0.7, 2.0, ONE)
    eq = TemperingSpec.exponential_q(1.5, 1.0, ONE)
    for u in np.geomspace(1e-2, 10.0, 20):
        u = float(u)
        want = -2.0 * math.exp(-2.0 * u)
        assert _fd_pi_derivative(ce, u) == pytest.approx(want, rel=1e-6)
        want = (1.5 * eq.pi(u, 0) - eq.q(u, 0)) / u
        assert _fd_pi_derivative(eq, u) == pytest.approx(want, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.05, 1.95).filter(lambda a: abs(a - 1.0) > 1e-3),
    lam=st.floats(0.1, 10.0),
    u=st.floats(1e-3, 1e2),
)
def test_survival_identity_property(alpha, lam, u):
    spec = TemperingSpec.conditionally_exponential(alpha, lam, ONE)
    lhs = alpha * spec.pi(u, 0) + u * lam * math.exp(-lam * u)  # pi' = -lam e^(-lam u)
    assert abs(lhs - spec.q(u, 0)) <= 1e-9 * alpha


# ------------------------------------------------------------------ sampling


def test_no_tempering_sampler_returns_sentinel():
    # T = +inf leaves every raw radius untouched, however small v is
    model = JumpModel(1.2, TWO)
    _, rad = engine._tempered_jumps(model, TemperingSpec.no_tempering(1.2), 1e-300, _rng(), 1000)
    assert np.array_equal(rad, model._radius_from_uniform(_rng().random((3, 1000))[1]))


def test_conditionally_exponential_sampler_ks():
    spec = TemperingSpec.conditionally_exponential(0.7, 1.0, ONE)
    rng = _rng(11)
    u = rng.random((spec.t_uniforms, 100000))
    t = np.sort(spec._t_from_uniform(u, np.zeros(u.shape[1], dtype=np.int64)))
    cdf = 1.0 - np.exp(-t)
    i = np.arange(1, len(t) + 1)
    ks = max(np.max(np.abs(cdf - i / len(t))), np.max(np.abs(cdf - (i - 1) / len(t))))
    assert ks <= 0.01


def test_exponential_q_sampler_ks():
    spec = TemperingSpec.exponential_q(1.5, 1.0, ONE)
    rng = _rng(12)
    u = rng.random((spec.t_uniforms, 100000))
    t = np.sort(spec._t_from_uniform(u, np.zeros(u.shape[1], dtype=np.int64)))
    cdf = 1.0 - np.array([spec.pi(float(x), 0) for x in t[:: len(t) // 2000]])
    i = np.arange(0, len(t), len(t) // 2000) + 1.0
    ks = np.max(np.abs(cdf - i / len(t)))
    assert ks <= 0.01


def _ks_upper_bound(draws, cdf, points):
    """An upper bound on the KS distance of ``draws`` to ``cdf`` that needs
    the cdf only at ``points`` sample quantiles: between two of them both
    the empirical and the true cdf are monotone."""
    x = np.sort(draws)
    grid = x[np.linspace(0, len(x) - 1, points).astype(np.int64)]
    f = np.array([cdf(g) for g in grid])
    below = np.searchsorted(x, grid, side="left") / len(x)
    upto = np.searchsorted(x, grid, side="right") / len(x)
    at_points = np.maximum(np.abs(upto - f), np.abs(below - f))
    between = np.maximum(below[1:] - f[:-1], f[1:] - upto[:-1])
    return max(at_points.max(), between.max(), f[0], 1.0 - f[-1])


@pytest.mark.parametrize("alpha", [0.7, 1.5])
def test_exponential_q_jump_source_draws_t_exactly(alpha):
    """T = V U^(1/alpha) from the engine's jump source against pi from
    mpmath: 10^6 draws, KS below its 0.1 % critical value 1.95/sqrt(N).
    x_m = 1e250 keeps the raw radius out of min(R, v T), so the radii are T."""
    n = 10 ** 6
    model = JumpModel(alpha, ONE, x_m=1e250)
    spec = TemperingSpec.exponential_q(alpha, 1.0)
    _, t = engine._tempered_jumps(model, spec, 1.0, _rng(21), n)

    def cdf(u):
        x = mpmath.mpf(float(u))
        return 1.0 - float(alpha * x ** alpha * mpmath.gammainc(-alpha, x))

    assert _ks_upper_bound(t, cdf, 4000) < 1.95 / math.sqrt(n)


def test_custom_q_draws_t_without_quadrature(monkeypatch):
    calls = []
    quad = scipy.integrate.quad
    monkeypatch.setattr(scipy.integrate, "quad",
                        lambda *args, **kwargs: calls.append(args) or quad(*args, **kwargs))
    spec = TemperingSpec.custom_q(0.7, _two_rate_q, TWO)
    idx = np.arange(1000) % 2
    t = spec._t_from_uniform(_rng(17).random((spec.t_uniforms, 1000)), idx)
    assert np.all(np.isfinite(t)) and np.all(t >= 0.0)
    assert len(calls) == 0
    spec.pi(1.0, 0)  # pi still integrates, so the count sees quadratures
    assert len(calls) > 0


def test_custom_q_sampler_ks():
    spec = TemperingSpec.custom_q(0.7, lambda r, s: 0.7 * math.exp(-r), ONE)
    built = TemperingSpec.exponential_q(0.7, 1.0, ONE)
    rng = _rng(14)
    u = rng.random((spec.t_uniforms, 20000))
    t = np.sort(spec._t_from_uniform(u, np.zeros(u.shape[1], dtype=np.int64)))
    sub = t[:: len(t) // 1000]
    cdf = 1.0 - np.array([built.pi(float(x), 0) for x in sub])
    i = np.arange(0, len(t), len(t) // 1000) + 1.0
    ks = np.max(np.abs(cdf - i / len(t)))
    assert ks <= 0.02


def test_per_atom_rates():
    spec = TemperingSpec.conditionally_exponential(0.7, [1.0, 4.0], TWO)
    assert spec.pi(1.0, 0) == pytest.approx(math.exp(-1.0))
    assert spec.pi(1.0, 1) == pytest.approx(math.exp(-4.0))
    # heavier tempering gives stochastically smaller T for shared uniforms
    u = _rng(15).random((spec.t_uniforms, 500))
    t0 = spec._t_from_uniform(u, np.zeros(500, dtype=np.int64))
    t1 = spec._t_from_uniform(u, np.ones(500, dtype=np.int64))
    assert np.all(t1 <= t0 + 1e-12)


def _two_rate_q(r, s):
    # q = 0.7 e^(-5r) on the atom at +1 and 0.7 e^(-0.2r) on the one at -1
    return 0.7 * math.exp((-5.0 if s[0] > 0.0 else -0.2) * r)


def test_custom_q_draws_each_atom_from_its_own_direction():
    """T for atom j comes from q at sigma's atom j: an equal but separate
    spectral measure, or a spec bound to that atom alone, gives the same
    draws, and each atom's median matches its exponential_q twin."""
    zeros, ones = np.zeros(2000, dtype=np.int64), np.ones(2000, dtype=np.int64)
    spec = TemperingSpec.custom_q(0.7, _two_rate_q, TWO)
    u = _rng(16).random((spec.t_uniforms, 2000))
    t_minus = spec._t_from_uniform(u, ones)
    t_plus = spec._t_from_uniform(u, zeros)

    twin = TemperingSpec.custom_q(
        0.7, _two_rate_q, SpectralMeasure([[1.0], [-1.0]], [0.7, 0.3]))
    assert np.array_equal(twin._t_from_uniform(u, zeros), t_plus)
    assert np.array_equal(twin._t_from_uniform(u, ones), t_minus)
    for direction, draws in (([1.0], t_plus), ([-1.0], t_minus)):
        alone = TemperingSpec.custom_q(0.7, _two_rate_q, SpectralMeasure([direction], [1.0]))
        assert np.array_equal(alone._t_from_uniform(u, zeros), draws)

    for rate, draws in ((5.0, t_plus), (0.2, t_minus)):
        built = TemperingSpec.exponential_q(0.7, rate)._t_from_uniform(u, zeros)
        assert np.median(draws) == pytest.approx(np.median(built), rel=0.01)


def test_atom_index_required_where_q_depends_on_the_atom():
    with pytest.raises(ValueError, match="atom index"):
        TemperingSpec.conditionally_exponential(0.7, [1.0, 4.0], TWO).pi(1.0)
    with pytest.raises(ValueError, match="atom index"):
        TemperingSpec.custom_q(0.7, _two_rate_q, TWO).q(1.0)
    # scalar rates serve every atom and bind no spectral measure
    scalar = TemperingSpec.conditionally_exponential(0.7, 2.0, TWO)
    assert scalar.sigma is None
    assert scalar.pi(1.0) == scalar.pi(1.0, 1) == pytest.approx(math.exp(-2.0))


# ---------------------------------------------------------------- validation


def test_validation_rejections():
    with pytest.raises(ValueError):
        TemperingSpec.no_tempering(2.0)
    with pytest.raises(ValueError):
        TemperingSpec.no_tempering(0.0)
    with pytest.raises(ValueError):
        TemperingSpec.conditionally_exponential(1.5, -1.0, ONE)
    with pytest.raises(ValueError):
        TemperingSpec.conditionally_exponential(1.5, [1.0, 2.0], ONE)  # wrong count
    with pytest.raises(ValueError):
        TemperingSpec.custom_q(0.7, lambda r, s: 5.0 * math.exp(-r), ONE)  # q(0+) != alpha
    with pytest.raises(ValueError):
        TemperingSpec.custom_q(0.7, lambda r, s: 0.7 / (1.0 + r * 0), ONE)  # no decay
    with pytest.raises(ValueError):
        # rises away from zero, not admissible for user-supplied q
        TemperingSpec.custom_q(0.7, lambda r, s: (0.7 + r) * math.exp(-r), ONE)
    with pytest.raises(ValueError):
        TemperingSpec.custom_q(0.7, "not callable", ONE)


def test_regularity_reports():
    bounded = TemperingSpec.conditionally_exponential(1.5, 1.0, ONE).verify_regularity(1.9)
    assert bounded.bounded
    assert bounded.sup_value > 0.0

    flat = TemperingSpec.no_tempering(1.2).verify_regularity(1.5)
    assert flat.bounded and flat.sup_value == 0.0

    # alpha - q ~ u^0.2 near zero, so u^{1-beta} * (alpha - q) blows up
    spiky = TemperingSpec.custom_q(
        1.5, lambda r, s: 1.5 * max(0.0, 1.0 - r ** 0.2), ONE)
    report = spiky.verify_regularity(1.9)
    assert not report.bounded

    with pytest.raises(ValueError):
        TemperingSpec.conditionally_exponential(0.7, 1.0, ONE).verify_regularity(0.9)
    with pytest.raises(ValueError):
        TemperingSpec.conditionally_exponential(1.5, 1.0, ONE).verify_regularity(1.2)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from temperedwalk import JumpModel, MixedScalePareto, SpectralMeasure

ONE = SpectralMeasure([[1.0]], [1.0])
TWO = SpectralMeasure([[1.0], [-1.0]], [0.7, 0.3])


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def test_exact_survival():
    m = JumpModel(1.5, ONE, x_m=2.0)
    assert m.radius_survival(1.0) == 1.0
    assert m.radius_survival(2.0) == 1.0
    assert m.radius_survival(4.0) == pytest.approx(2.0 ** -1.5)
    r = np.array([1.0, 3.0, 20.0])
    assert np.allclose(m.radius_survival(r), np.minimum(1.0, (r / 2.0) ** -1.5))


def test_mixture_survival():
    mix = MixedScalePareto(scales=(1.0, 3.0), weights=(0.25, 0.75))
    m = JumpModel(0.7, ONE, radial=mix)
    r = 5.0
    want = 0.25 * (r / 1.0) ** -0.7 + 0.75 * (r / 3.0) ** -0.7
    assert m.radius_survival(r) == pytest.approx(want)
    assert m.radius_survival(0.5) == 1.0


def test_norming_exact():
    m = JumpModel(1.5, ONE, x_m=2.0)
    assert m.norming_b(1000) == pytest.approx(2.0 * 1000.0 ** (2.0 / 3.0), rel=1e-14)
    assert m.norming_b(1) == pytest.approx(2.0)


def test_norming_mixture_solves_definition():
    mix = MixedScalePareto(scales=(0.5, 2.0), weights=(0.4, 0.6))
    m = JumpModel(1.2, ONE, radial=mix)
    for n in (10, 1000, 10 ** 6):
        b = m.norming_b(n)
        assert m.radius_survival(b) == pytest.approx(1.0 / n, rel=1e-9)


def test_norming_mixture_matches_exact_special_case():
    # a one-component mixture must agree with the closed form
    mix = MixedScalePareto(scales=(1.0,), weights=(1.0,))
    a = JumpModel(0.9, ONE, radial=mix)
    b = JumpModel(0.9, ONE)
    assert a.norming_b(12345) == pytest.approx(b.norming_b(12345), rel=1e-11)


def test_radius_sampling_ks():
    m = JumpModel(1.5, ONE, x_m=2.0)
    u = _rng(3).random(20000)
    r = np.sort(m._radius_from_uniform(u))
    cdf = 1.0 - m.radius_survival(r)
    i = np.arange(1, len(r) + 1)
    ks = np.max(np.abs(cdf - i / len(r)))
    assert ks <= 0.015
    assert r.min() >= 2.0


def test_mixture_sampling_ks():
    mix = MixedScalePareto(scales=(1.0, 4.0), weights=(0.5, 0.5))
    m = JumpModel(0.7, ONE, radial=mix)
    u = _rng(4).random(20000)
    r = np.sort(m._radius_from_uniform(u))
    cdf = 1.0 - m.radius_survival(r)
    i = np.arange(1, len(r) + 1)
    ks = np.max(np.abs(cdf - i / len(r)))
    assert ks <= 0.015


def _general_inverse(model, u):
    # the mixture inverse for any number of scales, copied from the sampler
    comp = np.minimum(np.searchsorted(model._cum, u, side="right"), len(model._cum) - 1)
    lo = np.concatenate(([0.0], model._cum))[comp]
    local = (u - lo) / model._probs[comp]
    return model._scales[comp] * (1.0 - local) ** (-1.0 / model.alpha)


@pytest.mark.parametrize("radial", ["exact_pareto", MixedScalePareto((1.0,), (1.0,))],
                         ids=["exact", "one_scale_mixture"])
@pytest.mark.parametrize("alpha", [0.7, 1.5])
def test_single_scale_radius_has_the_general_bits(radial, alpha):
    """The closed-form single-scale radius is the mixture inverse, bit for bit."""
    m = JumpModel(alpha, TWO, x_m=1.7, radial=radial)
    u = np.concatenate([[0.0, 0.5, np.nextafter(1.0, 0.0)], _rng(7).random(100000)])
    r = m._radius_from_uniform(u)
    assert np.array_equal(r, _general_inverse(m, u))
    assert np.all(np.isfinite(r))


@pytest.mark.parametrize("scales, weights", [((1.0,), (1.0 - 5e-10,)),
                                             ((1.0, 3.0), (0.5, 0.5 - 5e-10))],
                         ids=["one_scale", "two_scales"])
def test_mixture_radius_is_finite_when_weights_sum_just_short_of_one(scales, weights):
    """Weights may sum to 1 within 1e-9; the last uniforms still give a radius."""
    m = JumpModel(1.5, ONE, radial=MixedScalePareto(scales, weights))
    r = m._radius_from_uniform(np.array([1.0 - 1e-10, np.nextafter(1.0, 0.0)]))
    assert np.all(np.isfinite(r)) and np.all(r >= scales[-1])


def test_mean_radius_and_jump():
    m = JumpModel(1.5, TWO, x_m=2.0)
    assert m.mean_radius() == pytest.approx(3.0 * 2.0)  # alpha/(alpha-1) * x_m
    # E H = E R * (0.7 - 0.3) in one dimension
    assert m.mean_jump()[0] == pytest.approx(6.0 * 0.4)

    with pytest.raises(ValueError):
        JumpModel(0.7, TWO).mean_radius()
    with pytest.raises(ValueError):
        JumpModel(1.0, TWO).mean_radius()


def test_mixture_mean_radius():
    mix = MixedScalePareto(scales=(1.0, 3.0), weights=(0.5, 0.5))
    m = JumpModel(1.5, ONE, radial=mix)
    assert m.mean_radius() == pytest.approx(3.0 * 2.0)


def test_model_validation():
    with pytest.raises(ValueError):
        JumpModel(2.0, ONE)
    with pytest.raises(ValueError):
        JumpModel(0.0, ONE)
    with pytest.raises(ValueError):
        JumpModel(1.5, ONE, x_m=-1.0)
    with pytest.raises(TypeError):
        JumpModel(1.5, "not a measure")
    with pytest.raises(ValueError):
        JumpModel(1.5, ONE, radial="nope")
    with pytest.raises(ValueError):
        MixedScalePareto(scales=(1.0,), weights=(0.5,))
    with pytest.raises(ValueError):
        MixedScalePareto(scales=(), weights=())
    with pytest.raises(ValueError):
        MixedScalePareto(scales=(1.0, -2.0), weights=(0.5, 0.5))


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.1, 1.9), n=st.integers(1, 10 ** 7))
def test_norming_definition_property(alpha, n):
    m = JumpModel(alpha, ONE)
    b = m.norming_b(n)
    assert n * m.radius_survival(b) == pytest.approx(1.0, rel=1e-10)

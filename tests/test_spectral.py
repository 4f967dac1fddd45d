import numpy as np
import pytest

from temperedwalk import SpectralMeasure


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def test_basic_properties():
    sm = SpectralMeasure([[1.0], [-1.0]], [0.7, 0.3])
    assert sm.dimension == 1
    assert len(sm) == 2
    assert sm.total_mass() == pytest.approx(1.0)
    assert np.array_equal(sm.directions, [[1.0], [-1.0]])


def test_directions_are_normalized():
    with pytest.warns(UserWarning):
        sm = SpectralMeasure([[3.0, 4.0]], [2.0])
    assert np.allclose(sm.directions[0], [0.6, 0.8])
    assert sm.total_mass() == pytest.approx(2.0)


def test_duplicate_atoms_merge():
    sm = SpectralMeasure([[1.0], [1.0], [-1.0]], [0.25, 0.25, 0.5])
    assert len(sm) == 2
    assert sm.weights[0] == pytest.approx(0.5)


def test_rejections():
    with pytest.raises(ValueError):
        SpectralMeasure([[1.0]], [0.0])
    with pytest.raises(ValueError):
        SpectralMeasure([[1.0]], [-1.0])
    with pytest.raises(ValueError):
        SpectralMeasure([[0.0, 0.0]], [1.0])
    with pytest.raises(ValueError):
        SpectralMeasure([[1.0], [-1.0]], [1.0])
    with pytest.raises(ValueError):
        SpectralMeasure([[np.inf]], [1.0])


def test_from_atoms():
    sm = SpectralMeasure.from_atoms([([1.0, 0.0], 1.0), ([0.0, 1.0], 2.0)])
    assert sm.dimension == 2
    assert sm.total_mass() == pytest.approx(3.0)


def test_integrate_scalar_and_vector():
    sm = SpectralMeasure([[1.0, 0.0], [0.0, 1.0]], [2.0, 1.0])
    assert sm.integrate(lambda s: 1.0) == pytest.approx(3.0)
    vec = sm.integrate(lambda s: s)
    assert np.allclose(vec, [2.0, 1.0])


def test_sample_index_frequencies():
    """Index sampling reproduces the weights up to MC error."""
    sm = SpectralMeasure([[1.0], [-1.0]], [0.7, 0.3])
    rng = _rng(5)
    idx = sm._index_from_uniform(rng.random(100000))
    frac = np.mean(idx == 0)
    assert abs(frac - 0.7) < 0.005  # ~3.5 sigma at N=1e5


@pytest.mark.parametrize("weights", [[1.0], [0.7, 0.3], [0.5, 0.3, 0.2]], ids=["k1", "k2", "k3"])
def test_index_from_uniform_equals_searchsorted(weights):
    """The comparison shortcuts for k <= 2 pick the atoms searchsorted picks."""
    k = len(weights)
    sm = SpectralMeasure(np.eye(3)[:k], weights)
    cum = sm._cum
    edges = [0.0, cum[0], np.nextafter(cum[0], 0.0), np.nextafter(1.0, 0.0)]
    u = np.concatenate([edges, _rng(6).random(100000)])
    idx = sm._index_from_uniform(u)
    want = np.minimum(np.searchsorted(cum, u, side="right"), k - 1)
    assert idx.dtype == want.dtype
    assert np.array_equal(idx, want)


def test_equality_and_hash():
    a = SpectralMeasure([[1.0], [-1.0]], [0.7, 0.3])
    b = SpectralMeasure([[1.0], [-1.0]], [0.7, 0.3])
    c = SpectralMeasure([[1.0], [-1.0]], [0.5, 0.5])
    assert a == b and hash(a) == hash(b)
    assert a != c

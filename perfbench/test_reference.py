"""Tests of the benchmark's reference module: python -m pytest perfbench."""

import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from workloads import DEMO, ONE_SIDED_CE, ONE_SIDED_EXPQ, TWO_SIDED_EXPQ

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# (law, n, centering a_n): the walk, walk-small-n and limit-law inputs.
CASES = [
    (DEMO, 10_000, 0.0),
    (ONE_SIDED_EXPQ, 10_000, ref.truncated_center(ONE_SIDED_EXPQ, 10_000)),
    (ONE_SIDED_CE, 10, ref.jump_mean_center(ONE_SIDED_CE, 10)),
    (TWO_SIDED_EXPQ, 1000, 0.0),
]


@pytest.mark.parametrize("law, n, center", CASES)
def test_cf_is_one_at_zero(law, n, center):
    assert ref.rowsum_cf(law, n, [0.0], center=center)[0] == 1.0


@pytest.mark.parametrize("law, n, center", CASES)
def test_cf_slope_at_zero_is_the_mean(law, n, center):
    h = 1e-7
    lo, hi = ref.rowsum_cf(law, n, [-h, h], center=center)
    slope = (hi - lo) / (2j * h)
    mean = ref.rowsum_mean(law, n, center=center)
    assert abs(slope - mean) <= 1e-7 * max(1.0, abs(mean))


def test_gap_to_limit_decays_like_n_to_one_minus_two_over_alpha():
    lams = np.linspace(-5.0, 5.0, 41)
    limit = np.exp(ref.limit_exponent(ONE_SIDED_CE, "truncated", lams))
    ns = [10 ** 4, 10 ** 5, 10 ** 6]
    gaps = [np.abs(ref.rowsum_cf(ONE_SIDED_CE, n, lams,
                                 center=ref.truncated_center(ONE_SIDED_CE, n)) - limit).max()
            for n in ns]
    slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
    assert abs(slope - (1 - 2 / ONE_SIDED_CE.alpha)) <= 0.02


def _library(law):
    from temperedwalk.jumps import JumpModel
    from temperedwalk.spectral import SpectralMeasure
    from temperedwalk.tempering import TemperingSpec

    sigma = SpectralMeasure([[s] for s, _ in law.atoms], [w for _, w in law.atoms])
    family = {ref.CE: TemperingSpec.conditionally_exponential,
              ref.EXPQ: TemperingSpec.exponential_q}[law.family]
    return JumpModel(law.alpha, sigma), family(law.alpha, law.theta, sigma), sigma


@pytest.mark.parametrize("law, convention", [(ONE_SIDED_CE, "truncated"),
                                             (TWO_SIDED_EXPQ, "drift_free")])
def test_closed_form_exponent_matches_the_library_quadrature(law, convention):
    from temperedwalk.analytics import LevyExponent

    _, tempering, sigma = _library(law)
    lams = np.array([-4.0, -0.3, 0.0, 1.0, 5.0])
    quad = LevyExponent(law.alpha, sigma, tempering, convention).eval_grid(lams[:, None])
    assert np.abs(quad - ref.limit_exponent(law, convention, lams)).max() <= 1e-9


@pytest.mark.parametrize("law", [ONE_SIDED_CE, ONE_SIDED_EXPQ])
def test_truncated_center_matches_the_library_quadrature(law):
    from temperedwalk.engine import centering_truncated_mean

    model, tempering, _ = _library(law)
    n = 10_000
    got = centering_truncated_mean(model, tempering, n, n ** (1 / law.alpha)).value[0]
    assert got == pytest.approx(ref.truncated_center(law, n), rel=1e-8)


def test_sector_mass_matches_the_library_quadrature():
    from temperedwalk.analytics import levy_mass

    _, tempering, sigma = _library(DEMO)
    for r_lo, r_hi, atoms in [(0.5, np.inf, None), (1.0, 3.0, (0,))]:
        got = levy_mass(DEMO.alpha, sigma, tempering, r_lo, r_hi, atoms=atoms)
        assert got == pytest.approx(ref.sector_mass(DEMO, r_lo, r_hi, atoms), rel=1e-8)


def test_inverted_density_has_unit_mass():
    x = np.linspace(-30.0, 30.0, 1201)
    dens = ref.invert_density(lambda lam: ref.limit_exponent(ONE_SIDED_CE, "truncated", lam), x)
    assert abs(dens.sum() * (x[1] - x[0]) - 1.0) <= 1e-6

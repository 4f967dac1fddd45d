"""Heavy-tailed jump source: Pareto radius times a spectral direction.

A jump is H = R * s with R an (exact or mixed-scale) Pareto radius with tail
exponent alpha in (0, 2) and s drawn from the spectral measure independently
of R.  Exact Pareto tails make the norming sequence available in closed form;
the mixed-scale variant falls back to bisection on the survival function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralMeasure

__all__ = ["JumpModel", "MixedScalePareto", "EXACT_PARETO"]

EXACT_PARETO = "exact_pareto"


@dataclass(frozen=True)
class MixedScalePareto:
    """Mixture of Pareto radii sharing one tail exponent.

    ``scales`` multiply the model's base scale x_m; ``weights`` are mixture
    probabilities and must sum to 1.
    """

    scales: tuple
    weights: tuple

    def __post_init__(self):
        scales = tuple(float(c) for c in self.scales)
        weights = tuple(float(p) for p in self.weights)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "weights", weights)
        if len(scales) == 0 or len(scales) != len(weights):
            raise ValueError("need matching, non-empty scales and weights")
        if any(c <= 0 for c in scales):
            raise ValueError("scales must be positive")
        if any(p <= 0 for p in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("mixture weights must be positive and sum to 1")


class JumpModel:
    """Distribution of one raw (untempered) heavy-tailed jump."""

    def __init__(self, alpha, sigma, x_m=1.0, radial=EXACT_PARETO):
        if not 0.0 < alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if not (np.isfinite(x_m) and x_m > 0.0):
            raise ValueError("x_m must be positive")
        if not isinstance(sigma, SpectralMeasure):
            raise TypeError("sigma must be a SpectralMeasure")
        if radial != EXACT_PARETO and not isinstance(radial, MixedScalePareto):
            raise ValueError("radial must be 'exact_pareto' or a MixedScalePareto")
        self.alpha = float(alpha)
        self.x_m = float(x_m)
        self.sigma = sigma
        self.radial = radial
        if radial == EXACT_PARETO:
            self._scales = np.array([self.x_m])
            self._probs = np.array([1.0])
        else:
            self._scales = self.x_m * np.asarray(radial.scales)
            self._probs = np.asarray(radial.weights)
        cum = np.cumsum(self._probs)
        cum[-1] = 1.0
        self._cum = cum

    @property
    def radius_components(self):
        """(absolute Pareto scale, mixture weight) of each component of R."""
        return list(zip(self._scales.tolist(), self._probs.tolist()))

    def radius_survival(self, r):
        """P(R > r), vectorized."""
        r = np.asarray(r, dtype=float)
        ratios = np.minimum(1.0, (r[..., None] / self._scales) ** (-self.alpha))
        out = (ratios * self._probs).sum(axis=-1)
        return float(out) if out.ndim == 0 else out

    def _radius_from_uniform(self, u):
        """Inverse survival sampling of R from uniforms in [0, 1)."""
        u = np.asarray(u, dtype=float)
        if self._probs.tolist() == [1.0]:
            # one scale: lo = 0 and p = 1, so local == u and the bits are those below
            return self._scales[0] * (1.0 - u) ** (-1.0 / self.alpha)
        comp = np.minimum(np.searchsorted(self._cum, u, side="right"), len(self._cum) - 1)
        lo = np.concatenate(([0.0], self._cum))[comp]
        # Weights that sum to 1 only within 1e-9 let the last component's
        # local uniform pass 1; capped below 1, the power below is finite.
        local = np.minimum((u - lo) / self._probs[comp], np.nextafter(1.0, 0.0))
        return self._scales[comp] * (1.0 - local) ** (-1.0 / self.alpha)

    def norming_b(self, n):
        """Smallest b with P(R > b) <= 1/n.

        Exact tails invert in closed form to x_m * n^(1/alpha); mixtures are
        solved by bisection to relative width 1e-12.
        """
        if n < 1:
            raise ValueError("n must be at least 1")
        if self.radial == EXACT_PARETO:
            return self.x_m * float(n) ** (1.0 / self.alpha)
        target = 1.0 / float(n)
        lo = float(self._scales.min())
        if self.radius_survival(lo) <= target:
            return lo
        hi = float(self._scales.max()) * max(2.0, float(n) ** (1.0 / self.alpha))
        while self.radius_survival(hi) > target:
            hi *= 2.0
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            if self.radius_survival(mid) <= target:
                hi = mid
            else:
                lo = mid
        return hi

    def mean_radius(self):
        if self.alpha <= 1.0:
            raise ValueError("mean does not exist for alpha <= 1")
        return float(self.alpha / (self.alpha - 1.0) * (self._scales * self._probs).sum())

    def mean_jump(self):
        """E H = E R * (direction average); defined only for alpha > 1."""
        mean_r = self.mean_radius()
        avg_dir = self.sigma.integrate(lambda s: s) / self.sigma.total_mass()
        return mean_r * np.atleast_1d(avg_dir)

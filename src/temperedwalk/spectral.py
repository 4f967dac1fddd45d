"""Finite atomic measures on the unit sphere.

The angular part of every jump law in this package is a finite measure with
finitely many atoms on S^{d-1}.  Atoms are stored as unit row vectors with
strictly positive weights; the measure need not be normalized.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = ["SpectralMeasure"]

_MERGE_TOL = 1e-12
_NORM_WARN_TOL = 1e-6


class SpectralMeasure:
    """Atomic measure sum_i w_i * delta_{s_i} on the unit sphere.

    Directions are normalized on construction; inputs whose norm deviates
    from 1 by more than 1e-6 trigger a warning first.  Atoms closer than
    1e-12 coordinatewise are merged with their weights added.
    """

    def __init__(self, directions, weights):
        dirs = np.array(directions, dtype=float, ndmin=2)
        w = np.asarray(weights, dtype=float).ravel()
        if dirs.ndim != 2 or dirs.shape[0] == 0 or dirs.shape[1] == 0:
            raise ValueError("need at least one direction of dimension >= 1")
        if w.shape[0] != dirs.shape[0]:
            raise ValueError("one weight per direction required")
        if not np.all(np.isfinite(dirs)) or not np.all(np.isfinite(w)):
            raise ValueError("directions and weights must be finite")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("zero vector is not a direction")
        if np.any(np.abs(norms - 1.0) > _NORM_WARN_TOL):
            warnings.warn("direction norms deviate from 1; normalizing", stacklevel=2)
        dirs = dirs / norms[:, None]

        keep_dirs, keep_w = [], []
        for row, weight in zip(dirs, w):
            for j, seen in enumerate(keep_dirs):
                if np.max(np.abs(seen - row)) <= _MERGE_TOL:
                    keep_w[j] += weight
                    break
            else:
                keep_dirs.append(row)
                keep_w.append(weight)

        self._directions = np.array(keep_dirs)
        self._weights = np.array(keep_w)
        self._directions.flags.writeable = False
        self._weights.flags.writeable = False
        cum = np.cumsum(self._weights) / self._weights.sum()
        cum[-1] = 1.0  # guard the last bin against rounding
        self._cum = cum

    @classmethod
    def from_atoms(cls, atoms):
        """Build from an iterable of (direction, weight) pairs."""
        dirs = [np.atleast_1d(np.asarray(d, dtype=float)) for d, _ in atoms]
        weights = [w for _, w in atoms]
        return cls(np.vstack(dirs), weights)

    @property
    def directions(self):
        return self._directions

    @property
    def weights(self):
        return self._weights

    @property
    def dimension(self):
        return self._directions.shape[1]

    def __len__(self):
        return self._directions.shape[0]

    def __eq__(self, other):
        if not isinstance(other, SpectralMeasure):
            return NotImplemented
        return (
            self._directions.shape == other._directions.shape
            and np.array_equal(self._directions, other._directions)
            and np.array_equal(self._weights, other._weights)
        )

    def __hash__(self):
        return hash((self._directions.tobytes(), self._weights.tobytes()))

    def total_mass(self):
        return float(self._weights.sum())

    def _index_from_uniform(self, u):
        """Atom indices for uniforms in [0, 1); vectorized.  Equals
        min(searchsorted(cum, u, side="right"), k - 1), by comparison for k <= 2."""
        k = len(self)
        if k == 1:
            return np.zeros(np.shape(u), dtype=np.intp)
        if k == 2:
            return (u >= self._cum[0]).astype(np.intp)
        return np.minimum(np.searchsorted(self._cum, u, side="right"), k - 1)

    def integrate(self, f):
        """sum_i w_i * f(s_i); f may return a scalar or a vector."""
        values = [np.asarray(f(s), dtype=float) for s in self._directions]
        total = sum(w * v for w, v in zip(self._weights, values))
        arr = np.asarray(total, dtype=float)
        return float(arr) if arr.ndim == 0 else arr

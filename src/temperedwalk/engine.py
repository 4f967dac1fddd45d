"""Triangular-array walk engine.

Row n of the array consists of n i.i.d. tempered jumps: a raw heavy-tailed
jump H = R*s keeps its direction s while its radius is truncated to
min(R, v*T), where T is the tempering variable conditioned on s and v is the
row's tempering threshold.  The engine forms normalized row sums

    (1/v) * sum_{j<=n} Y_j  -  a_n

for one of three centerings (none, truncated mean, jump mean) and, in paths
mode, the partial-sum process (1/v) * S(floor(n*t)) - t*a_n on a time grid.

Randomness is counter-based: replicate i of a run with seed s consumes one
block of uniforms from the Philox stream keyed by (s, i), so results are
byte-identical regardless of how replicates are distributed over workers.
A stream's bits depend on its key alone, so each worker keeps one generator
and re-keys it per replicate instead of building a new one.  The one
auxiliary consumer, the vague-convergence diagnostic, draws from stream
2^63 + 2, out of reach of any realistic replicate count.

The truncated-mean centering a_n is exact for every family: one quadrature
per atom (``_truncated_moment``), which the UAN profile shares.

m jumps take one ``random((2 + spec.t_uniforms, m))`` block, filled row-major:
row 0 picks the atom, row 1 the raw radius R, rows 2 on the tempering
variable T.  ``RNG_LAYOUT`` 1 had three rows for every family; 2 gave
``exponential_q`` and ``custom_q`` a fourth (T = V * U^(1/alpha), V from
row 2, U from row 3); 3 gives ``no_tempering`` (T = +inf) two, which moves
only vague-convergence draws past the first chunk.

The walk fills one buffer per block of about ``_BLOCK_CELLS`` uniforms, a
slice per replicate stream; the jump source and one ``bincount`` per time
over the bins (replicate, atom) then serve the block.  ``bincount`` adds
each bin's weights in input order from 0.0, as a per-replicate sum does, so
the bits depend on neither block size nor threads (one contiguous range each).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .jumps import JumpModel
from .numerics import adaptive_quad
from .tempering import TemperingSpec

__all__ = [
    "RNG_LAYOUT",
    "WalkPlan",
    "SampleBatch",
    "TruncatedMeanResult",
    "CENTER_NONE",
    "CENTER_TRUNCATED_MEAN",
    "CENTER_JUMP_MEAN",
    "tempering_threshold",
    "centering_truncated_mean",
    "centering_vector",
    "simulate_rowsum",
    "simulate_paths",
]

CENTER_NONE = "none"
CENTER_TRUNCATED_MEAN = "truncated_mean"
CENTER_JUMP_MEAN = "jump_mean"

_CENTERINGS = (CENTER_NONE, CENTER_TRUNCATED_MEAN, CENTER_JUMP_MEAN)

# Version of the uniform layout of _tempered_jumps (see the module docstring).
RNG_LAYOUT = 3

# The stream of the vague-convergence draws, and the most jumps drawn from
# it in one block.
_AUX_STREAM = 2 ** 63 + 2
_AUX_CHUNK = 1_000_000

# Uniforms per block of replicates in the walk: a block's temporaries stay
# well under glibc's 128 KiB mmap threshold.  A longer replicate is a block.
_BLOCK_CELLS = 4096


def _stream_opener(seed):
    """A function stream -> generator at the start of the Philox stream keyed
    by (seed, stream).  It re-keys one generator, so opening a stream ends
    the previous one: one opener per thread."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    # a fresh Philox: counter 0, buffer_pos 4 (buffer spent), no uint32 held
    fresh = gen.bit_generator.state
    key = fresh["state"]["key"]

    def open_stream(stream):
        key[1] = stream
        gen.bit_generator.state = fresh
        return gen

    return open_stream


@dataclass(frozen=True)
class WalkPlan:
    """One row-sum experiment: row length, replication, centering, seed."""

    n: int
    replicates: int
    seed: int
    centering: str = CENTER_NONE
    v_override: float = None
    time_grid: tuple = None

    def __post_init__(self):
        if self.n < 1 or self.replicates < 1:
            raise ValueError("n and replicates must be positive")
        if self.seed < 0 or self.seed >= 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.centering not in _CENTERINGS:
            raise ValueError(f"unknown centering {self.centering!r}")
        if self.v_override is not None and not self.v_override > 0.0:
            raise ValueError("v_override must be positive")
        if self.time_grid is not None:
            grid = tuple(float(t) for t in self.time_grid)
            if len(grid) == 0:
                raise ValueError("time_grid must be non-empty")
            if any(t < 0.0 for t in grid) or any(
                b <= a for a, b in zip(grid, grid[1:])
            ):
                raise ValueError("time_grid must be non-negative and strictly increasing")
            object.__setattr__(self, "time_grid", grid)


@dataclass
class SampleBatch:
    """Replicate values plus the metadata needed to reproduce them."""

    values: np.ndarray
    n: int
    threshold: float
    center: np.ndarray  # the a_n vector; paths subtract t * center
    centering: str
    seed: int
    t: float = 1.0
    elapsed_seconds: float = 0.0

    @property
    def replicates(self):
        return self.values.shape[0]

    @property
    def dimension(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class TruncatedMeanResult:
    value: np.ndarray


def tempering_threshold(model: JumpModel, n, v_override=None):
    """Threshold v_n = b_n / mass^(1/alpha), or the explicit override."""
    if v_override is not None:
        return float(v_override)
    mass = model.sigma.total_mass()
    return model.norming_b(n) / mass ** (1.0 / model.alpha)


# --------------------------------------------------------------- centering


def centering_truncated_mean(model, spec, n, v):
    """Truncated-mean centering a_n = n * E[X 1(||X|| < 1)], X = Y/v, from
    E[Z 1(Z <= 1)] per atom by ``_truncated_moment``; no random draw."""
    spec.check_law(model.alpha, model.sigma)
    total = _over_atoms(model.sigma, lambda j: _truncated_moment(model, spec, v, j, 1, 1.0))
    return TruncatedMeanResult(n * total / model.sigma.total_mass())


def _over_atoms(sigma, radial, directions=None):
    # sum_j w_j radial(j) s_j in atom order, or with directions[j] for s_j:
    # the per-atom loop of a_n, the UAN profile and the limit law's moments
    s = sigma.directions if directions is None else directions
    return sum(sigma.weights[j] * radial(j) * s[j] for j in range(len(sigma)))


def _truncated_moment(model, spec, v, j, p, delta):
    """E[Z^p 1(Z <= delta)] of atom j, Z = min(R/v, T), with S_R the radius
    survival function:

        p int_0^delta u^(p-1) S_R(v u) pi(u, s_j) du - delta^p S_R(v delta) pi(delta, s_j),

    one quadrature broken at the kinks of S_R (the powers are exact at p = 1).
    """
    integral = adaptive_quad(
        lambda u: u ** (p - 1) * model.radius_survival(v * u) * spec.pi(u, j),
        0.0, delta, points=[float(c) / v for c in model.radius_scales],
    )
    return p * integral - delta ** p * model.radius_survival(v * delta) * spec.pi(delta, j)


def centering_vector(plan: WalkPlan, model, spec, v):
    """The a_n vector for the plan's centering mode."""
    d = model.sigma.dimension
    if plan.centering == CENTER_NONE:
        return np.zeros(d)
    if plan.centering == CENTER_JUMP_MEAN:
        return plan.n * model.mean_jump() / v
    return centering_truncated_mean(model, spec, plan.n, v).value


# ------------------------------------------------------------ jump source


def _tempered_jumps(model, spec, v, u, m=None):
    """Atom indices and tempered radii min(R, v*T): the only code that turns
    jump uniforms into jumps.  ``u`` holds the 2 + ``spec.t_uniforms`` rows
    (see above) on axis 0, any shape after, or is a generator to draw m jumps."""
    if m is not None:
        u = u.random((2 + spec.t_uniforms, m))
    idx = model.sigma._index_from_uniform(u[0])
    r = model._radius_from_uniform(u[1])
    if not spec.t_uniforms:
        return idx, r  # T = +inf
    # named, so v * t allocates: in place, it left malloc slower for later calls
    t = spec._t_from_uniform(u[2:], idx)
    return idx, np.minimum(r, v * t)


def _aux_jumps(model, spec, v, draws, seed):
    """``draws`` tempered jumps from the auxiliary stream, in blocks."""
    gen = _stream_opener(seed)(_AUX_STREAM)
    for start in range(0, int(draws), _AUX_CHUNK):
        yield _tempered_jumps(model, spec, v, gen, min(_AUX_CHUNK, int(draws) - start))


# --------------------------------------------------------------- simulation


def _atom_sums(idx, rad, k):
    return np.bincount(idx, weights=rad, minlength=k)


def _simulate(plan, model, spec, threads, times):
    """(1/v) S(floor(n t)) - t a_n per replicate and time, from one jump
    stream per replicate; also v, a_n and the elapsed time."""
    spec.check_law(model.alpha, model.sigma)
    started = time.perf_counter()
    v = tempering_threshold(model, plan.n, plan.v_override)
    center = centering_vector(plan, model, spec, v)
    sigma = model.sigma
    k, directions = len(sigma), sigma.directions
    cuts = [int(math.floor(plan.n * t)) for t in times]
    steps = list(enumerate(zip(cuts, [t * center for t in times])))
    n_jumps = max(max(cuts), 1)
    rows = 2 + spec.t_uniforms
    size = max(1, _BLOCK_CELLS // (rows * n_jumps))
    out = np.empty((plan.replicates, len(cuts), sigma.dimension))

    def run(first, stop):
        # replicates first..stop-1, size at a time, with this thread's generator and buffer
        open_stream = _stream_opener(plan.seed)
        block = np.empty((min(size, stop - first), rows, n_jumps))
        for lo in range(first, stop, size):
            b = min(size, stop - lo)
            for i in range(b):
                open_stream(lo + i).random(out=block[i])
            idx, rad = _tempered_jumps(model, spec, v, block[:b].transpose(1, 0, 2))
            if b > 1:
                idx = idx + k * np.arange(b)[:, None]  # bin of atom j in row i: i k + j
            for ci, (c, shift) in steps:
                sums = _atom_sums(idx[:, :c].ravel(), rad[:, :c].ravel(), b * k).reshape(b, k)
                out[lo:lo + b, ci] = sums @ directions / v - shift if c else -shift

    if threads <= 1:
        run(0, plan.replicates)
    else:
        edges = [plan.replicates * i // threads for i in range(threads + 1)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, edges[:-1], edges[1:]))
    return out, v, center, time.perf_counter() - started


def simulate_rowsum(plan: WalkPlan, model: JumpModel, spec: TemperingSpec, threads=1):
    """Normalized, centered row sums; one row of output per replicate."""
    out, v, center, elapsed = _simulate(plan, model, spec, threads, (1.0,))
    return SampleBatch(
        values=out[:, 0], n=plan.n, threshold=v, center=center,
        centering=plan.centering, seed=plan.seed, elapsed_seconds=elapsed,
    )


def simulate_paths(plan: WalkPlan, model: JumpModel, spec: TemperingSpec, threads=1):
    """Partial-sum paths on the plan's time grid, one SampleBatch per time.

    Values at successive grid times within a replicate share one jump
    stream, so each row is a genuine path skeleton.  At t = 1 the output
    is simulate_rowsum's under the same seed: both are one computation.
    """
    if plan.time_grid is None:
        raise ValueError("paths mode needs a time grid")
    out, v, center, elapsed = _simulate(plan, model, spec, threads, plan.time_grid)
    return [
        SampleBatch(
            values=out[:, ci].copy(), n=plan.n, threshold=v, center=center,
            centering=plan.centering, seed=plan.seed, t=t, elapsed_seconds=elapsed,
        )
        for ci, t in enumerate(plan.time_grid)
    ]

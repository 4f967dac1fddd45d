"""Triangular-array walk engine.

Row n of the array consists of n i.i.d. tempered jumps: a raw heavy-tailed
jump H = R*s keeps its direction s while its radius is truncated to
min(R, v*T), where T is the tempering variable conditioned on s and v is the
row's tempering threshold.  The engine forms normalized row sums

    (1/v) * sum_{j<=n} Y_j  -  a_n

for one of three centerings (none, truncated mean, jump mean) and, in paths
mode, the partial-sum process (1/v) * S(floor(n*t)) - t*a_n on a time grid.

Randomness is counter-based.  Under ``RNG_LAYOUT`` 4 a run with seed s reads
one Philox stream, keyed (s, 0): replicate i takes uniforms [i L, (i + 1) L),
L = (2 + ``spec.t_uniforms``) * (jumps per replicate), and a thread opens the
stream at its first replicate (``_open_stream``), so the bytes do not depend
on threads.  Layout 3 keyed a stream (s, i) per replicate, so replicate 0
keeps its bits, as do a_n and the vague-convergence draws from stream
(s, 2^63 + 2); README's "Tempered jumps" lists every layout.

m jumps take ``(2 + spec.t_uniforms, m)`` uniforms, filled row-major: row 0
picks the atom, row 1 the raw radius R, rows 2 on the tempering variable T.

The walk fills a block of about ``_BLOCK_CELLS`` uniforms, consecutive
replicates, with one call; the jump source and one ``bincount`` per time
over the bins (replicate, atom) then serve the block.  ``bincount`` adds
each bin's weights in input order from 0.0, as a per-replicate sum does, so
the bits depend on neither block size nor threads.

The truncated-mean centering a_n is exact for every family: two integrals
of pi per atom and radius component (``_truncated_moment``), closed forms
but for ``custom_q``, which the UAN profile shares.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .jumps import JumpModel
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

# Version of the rows of a jump and the streams of a run (module docstring).
RNG_LAYOUT = 4

# The stream of the vague-convergence draws, and the most jumps drawn from
# it in one block.
_AUX_STREAM = 2 ** 63 + 2
_AUX_CHUNK = 1_000_000

# Uniforms per block of replicates in the walk: a block's temporaries stay
# well under glibc's 128 KiB mmap threshold.  A longer replicate is a block.
_BLOCK_CELLS = 4096


def _open_stream(seed, stream, skip=0):
    """A generator at uniform ``skip`` of the Philox stream keyed (seed, stream).
    Philox makes 4 values per counter step, stepping before each 4."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    gen.bit_generator.advance(skip // 4)
    gen.random(skip % 4)
    return gen


class _Stopwatch(dict):
    """Seconds per stage of a walk; lap(stage) adds the time since the last lap."""

    def __init__(self):
        super().__init__(fill=0.0, transform=0.0, reduction=0.0, centering=0.0)
        self.start = self.last = time.perf_counter()

    def lap(self, stage):
        now = time.perf_counter()
        self[stage], self.last = self[stage] + now - self.last, now


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
            if grid[0] < 0.0 or any(b <= a for a, b in zip(grid, grid[1:])):
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
    stages: dict = None  # seconds per stage, see _Stopwatch

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

        p int_0^delta u^(p-1) S_R(v u) pi(u, s_j) du - delta^p S_R(v delta) pi(delta, s_j).

    A radius component (c, w) adds w min(1, (k/u)^alpha), k = c/v, to S_R(v u)
    and so w [I(p, 0, min(delta, k)) + k^alpha I(p - alpha, k, delta)] to the
    integral, the second term for k < delta only, I = ``spec.pi_integral``.
    """
    total = 0.0
    for c, w in model.radius_components:
        k = c / v
        total += w * spec.pi_integral(p, 0.0, min(delta, k), j)
        if k < delta:
            total += w * k ** model.alpha * spec.pi_integral(p - model.alpha, k, delta, j)
    return p * total - delta ** p * model.radius_survival(v * delta) * spec.pi(delta, j)


def centering_vector(plan: WalkPlan, model, spec, v):
    """The a_n vector for the plan's centering mode."""
    if plan.centering == CENTER_NONE:
        return np.zeros(model.sigma.dimension)
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
    gen = _open_stream(seed, _AUX_STREAM)
    for start in range(0, int(draws), _AUX_CHUNK):
        yield _tempered_jumps(model, spec, v, gen, min(_AUX_CHUNK, int(draws) - start))


# --------------------------------------------------------------- simulation


def _simulate(plan, model, spec, threads, times):
    """One SampleBatch per time of (1/v) S(floor(n t)) - t a_n, each replicate
    from its own slice of one jump stream."""
    spec.check_law(model.alpha, model.sigma)
    watch = _Stopwatch()
    v = tempering_threshold(model, plan.n, plan.v_override)
    center = centering_vector(plan, model, spec, v)
    watch.lap("centering")
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
        part = _Stopwatch()
        gen = _open_stream(plan.seed, 0, first * rows * n_jumps)
        block = np.empty((min(size, stop - first), rows, n_jumps))
        for lo in range(first, stop, size):
            b = min(size, stop - lo)
            gen.random(out=block[:b])
            part.lap("fill")
            idx, rad = _tempered_jumps(model, spec, v, block[:b].transpose(1, 0, 2))
            if b > 1:
                idx = idx + k * np.arange(b)[:, None]  # bin of atom j in row i: i k + j
            part.lap("transform")
            for ci, (c, shift) in steps:
                sums = np.bincount(idx[:, :c].ravel(), weights=rad[:, :c].ravel(),
                                   minlength=b * k).reshape(b, k)
                out[lo:lo + b, ci] = sums @ directions / v - shift if c else -shift
            part.lap("reduction")
        return part

    if threads <= 1:
        parts = [run(0, plan.replicates)]
    else:
        edges = [plan.replicates * i // threads for i in range(threads + 1)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, edges[:-1], edges[1:]))
    stages = {stage: sum(part[stage] for part in [watch, *parts]) for stage in watch}
    elapsed = time.perf_counter() - watch.start
    return [
        SampleBatch(
            values=out[:, ci].copy(), n=plan.n, threshold=v, center=center,
            centering=plan.centering, seed=plan.seed, t=t, elapsed_seconds=elapsed,
            stages=stages,
        )
        for ci, t in enumerate(times)
    ]


def simulate_rowsum(plan: WalkPlan, model: JumpModel, spec: TemperingSpec, threads=1):
    """Normalized, centered row sums; one row of output per replicate."""
    return _simulate(plan, model, spec, threads, (1.0,))[0]


def simulate_paths(plan: WalkPlan, model: JumpModel, spec: TemperingSpec, threads=1):
    """Partial-sum paths on the plan's time grid, one SampleBatch per time.

    Values at successive grid times within a replicate share one jump
    stream, so each row is a genuine path skeleton.  At t = 1 the output
    is simulate_rowsum's under the same seed: both are one computation.
    """
    if plan.time_grid is None:
        raise ValueError("paths mode needs a time grid")
    return _simulate(plan, model, spec, threads, plan.time_grid)

import math

import numpy as np
import pytest

import finite_n_law
from temperedwalk import (
    DRIFT_FREE,
    JumpModel,
    LevyExponent,
    MixedScalePareto,
    SpectralMeasure,
    TemperingSpec,
    WalkPlan,
    engine,
    levy_mass,
)

ONE = SpectralMeasure([[1.0]], [1.0])
TWO = SpectralMeasure([[1.0], [-1.0]], [0.7, 0.3])
AXES = SpectralMeasure([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])


def test_threshold_scaling():
    m = JumpModel(0.7, TWO, x_m=1.0)
    v = engine.tempering_threshold(m, 1000)
    # b_n / mass^{1/alpha} with mass 1 here
    assert v == pytest.approx(1000.0 ** (1.0 / 0.7), rel=1e-12)

    m2 = JumpModel(0.7, SpectralMeasure([[1.0], [-1.0]], [1.4, 0.6]))
    v2 = engine.tempering_threshold(m2, 1000)
    assert v2 == pytest.approx(1000.0 ** (1.0 / 0.7) / 2.0 ** (1.0 / 0.7), rel=1e-12)

    assert engine.tempering_threshold(m, 1000, v_override=17.0) == 17.0


def test_tempered_jump_reduces_to_raw_without_tempering():
    m = JumpModel(1.5, ONE)
    nt = TemperingSpec.no_tempering(1.5)
    rng1 = np.random.Generator(np.random.Philox(key=np.array([1, 0], dtype=np.uint64)))
    idx, rad = engine._tempered_jumps(m, nt, 100.0, rng1, 1000)
    assert idx.shape == rad.shape == (1000,)
    assert np.all(idx == 0)
    assert np.all(rad >= 1.0)  # never truncated, radius at least x_m

    # a threshold reaches the jump source only through the plan, which
    # rejects non-positive ones
    with pytest.raises(ValueError):
        WalkPlan(n=10, replicates=1, seed=1, v_override=-1.0)


def _philox(seed, stream):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def test_jump_source_row_layout():
    """Layout 2, rebuilt by hand from the Philox rows: atom from row 0
    (weights 0.7/0.3), R = (1 - u)^(-1/alpha) from row 1, then T from row 2
    (CE, E/lam) or V from row 2 and W from row 3 (exponential_q,
    T = V (1 - u3)^(1/alpha)).  The first three rows of a four-row block are
    the three-row block of layout 1."""
    alpha, v, m = 1.5, 3.0, 5000
    model = JumpModel(alpha, TWO)
    rates = np.array([0.5, 2.0])
    assert np.array_equal(_philox(5, 1).random((4, m))[:3], _philox(5, 1).random((3, m)))
    for spec, rows in ((TemperingSpec.conditionally_exponential(alpha, rates, TWO), 3),
                       (TemperingSpec.exponential_q(alpha, rates, TWO), 4)):
        u = _philox(5, 1).random((rows, m))
        atom = (u[0] >= 0.7).astype(np.int64)
        r = (1.0 - u[1]) ** (-1.0 / alpha)
        t = -np.log(1.0 - u[2]) / rates[atom]
        if rows == 4:
            t = t * (1.0 - u[3]) ** (1.0 / alpha)
        idx, rad = engine._tempered_jumps(model, spec, v, _philox(5, 1), m)
        assert np.array_equal(idx, atom)
        assert np.array_equal(rad, np.minimum(r, v * t))
        assert spec.t_uniforms == rows - 2


def test_no_tempering_draws_two_rows():
    """Layout 3: no_tempering reads the atom and R rows only, and its radii
    are R.  Rows are filled row-major, so a replicate's rows 0 and 1 are
    those of layout 2's three-row block."""
    alpha, m = 1.5, 5000
    model, spec = JumpModel(alpha, TWO), TemperingSpec.no_tempering(alpha)
    assert spec.t_uniforms == 0 and engine.RNG_LAYOUT == 3
    u = _philox(6, 1).random((2, m))
    assert np.array_equal(u, _philox(6, 1).random((3, m))[:2])
    idx, rad = engine._tempered_jumps(model, spec, 1e-300, _philox(6, 1), m)
    assert np.array_equal(idx, (u[0] >= 0.7).astype(np.int64))
    assert np.array_equal(rad, (1.0 - u[1]) ** (-1.0 / alpha))


def _draws(gen):
    # ends with an odd count of 32-bit draws and a part-used 64-bit buffer
    return gen.random(7), gen.integers(0, 2 ** 32, size=5, dtype=np.uint32)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_rekeyed_stream_is_a_fresh_philox(seed):
    """Re-keying one generator gives the draws of a new Philox(key=[seed, stream]),
    whatever the previous stream left in the buffer."""
    open_stream = engine._stream_opener(seed)
    for stream in (0, 5, engine._AUX_STREAM + 1, engine._AUX_STREAM + 2, 5):
        gen = open_stream(stream)
        for got, want in zip(_draws(gen), _draws(_philox(seed, stream))):
            assert np.array_equal(got, want)
        state = gen.bit_generator.state
        assert state["buffer_pos"] < 4 and state["has_uint32"] == 1


def test_aux_jumps_come_from_the_aux_stream():
    """The vague-convergence draws keep the bits of stream 2^63 + 2."""
    m = JumpModel(1.5, TWO)
    ce = TemperingSpec.conditionally_exponential(1.5, 1.0, TWO)
    (idx, rad), = engine._aux_jumps(m, ce, 7.0, 1001, 2 ** 64 - 1)
    want_idx, want_rad = engine._tempered_jumps(m, ce, 7.0, _philox(2 ** 64 - 1, 2 ** 63 + 2), 1001)
    assert np.array_equal(idx, want_idx) and np.array_equal(rad, want_rad)


@pytest.mark.parametrize("threads", [1, 3])
def test_replicates_draw_fresh_philox_streams(threads):
    """Replicate i's row sum is the one a new Philox keyed (seed, i) gives."""
    plan = WalkPlan(n=201, replicates=20, seed=2 ** 64 - 1)
    m = JumpModel(0.7, TWO)
    ce = TemperingSpec.conditionally_exponential(0.7, [0.5, 2.0], TWO)
    batch = engine.simulate_rowsum(plan, m, ce, threads=threads)
    v = batch.threshold
    for rep in range(plan.replicates):
        idx, rad = engine._tempered_jumps(m, ce, v, _philox(plan.seed, rep), plan.n)
        want = engine._atom_sums(idx, rad, 2) @ TWO.directions / v
        assert np.array_equal(batch.values[rep], want)


def _two_rate_q(r, s):
    return 0.7 * math.exp((-5.0 if s[0] > 0.0 else -0.2) * r)


THREE_2D = SpectralMeasure([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]], [0.5, 0.3, 0.2])

_BLOCK_LAWS = {
    "custom_q": (JumpModel(0.7, TWO), TemperingSpec.custom_q(0.7, _two_rate_q, TWO), "none"),
    "exponential_q_per_atom": (JumpModel(1.5, TWO),
                               TemperingSpec.exponential_q(1.5, [0.5, 2.0], TWO),
                               "truncated_mean"),
    "ce_per_atom": (JumpModel(0.7, TWO),
                    TemperingSpec.conditionally_exponential(0.7, [0.5, 2.0], TWO), "none"),
    "no_tempering": (JumpModel(1.5, TWO), TemperingSpec.no_tempering(1.5), "jump_mean"),
    "three_atoms_2d_mixed_scale": (
        JumpModel(1.2, THREE_2D, radial=MixedScalePareto((1.0, 3.0), (0.4, 0.6))),
        TemperingSpec.conditionally_exponential(1.2, 1.0, THREE_2D), "jump_mean"),
}


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("law", sorted(_BLOCK_LAWS))
def test_blocks_of_replicates_match_one_replicate_at_a_time(law, threads):
    """At small n a block holds many replicates, and 1000 replicates end in
    a partial block: every path value still equals the one its own Philox
    stream gives through the jump source, bincount and @ directions / v,
    bit for bit."""
    model, spec, centering = _BLOCK_LAWS[law]
    n, times = 7, (0.0, 0.3, 1.0)
    # a seed per thread count, so no run can read values an earlier one left
    plan = WalkPlan(n=n, replicates=1000, seed=2 ** 64 - 1 - threads, centering=centering,
                    time_grid=times)
    size = engine._BLOCK_CELLS // ((2 + spec.t_uniforms) * n)
    assert size > 1 and plan.replicates % size != 0
    batches = engine.simulate_paths(plan, model, spec, threads=threads)
    v, center = batches[0].threshold, batches[0].center
    directions, k = model.sigma.directions, len(model.sigma)
    for rep in range(plan.replicates):
        idx, rad = engine._tempered_jumps(model, spec, v, _philox(plan.seed, rep), n)
        for batch, t in zip(batches, times):
            c = math.floor(n * t)
            if c == 0:
                want = -(t * center)
            else:
                sums = np.bincount(idx[:c], weights=rad[:c], minlength=k)
                want = sums @ directions / v - t * center
            assert batch.values[rep].tobytes() == want.tobytes(), (rep, t)


def test_rowsum_batch_shape_and_meta():
    plan = WalkPlan(n=500, replicates=64, seed=3)
    m = JumpModel(0.7, TWO)
    ce = TemperingSpec.conditionally_exponential(0.7, 1.0, TWO)
    batch = engine.simulate_rowsum(plan, m, ce)
    assert batch.values.shape == (64, 1)
    assert batch.replicates == 64 and batch.dimension == 1
    assert batch.n == 500 and batch.seed == 3
    assert batch.t == 1.0
    assert batch.threshold == pytest.approx(engine.tempering_threshold(m, 500))
    assert np.all(np.isfinite(batch.values))


def test_rowsum_deterministic_in_seed():
    plan = WalkPlan(n=300, replicates=32, seed=11)
    m = JumpModel(1.5, TWO)
    ce = TemperingSpec.conditionally_exponential(1.5, 1.0, TWO)
    a = engine.simulate_rowsum(plan, m, ce)
    b = engine.simulate_rowsum(plan, m, ce)
    assert np.array_equal(a.values, b.values)

    other = engine.simulate_rowsum(WalkPlan(n=300, replicates=32, seed=12), m, ce)
    assert not np.array_equal(a.values, other.values)


def test_rowsum_thread_count_does_not_change_values():
    plan = WalkPlan(n=400, replicates=50, seed=21)
    m = JumpModel(0.7, TWO)
    ce = TemperingSpec.conditionally_exponential(0.7, 2.0, TWO)
    single = engine.simulate_rowsum(plan, m, ce, threads=1)
    multi = engine.simulate_rowsum(plan, m, ce, threads=3)
    assert np.array_equal(single.values, multi.values)


def test_paths_endpoint_equals_rowsum():
    """The t=1 skeleton slice is the row sum, sample for sample."""
    plan = WalkPlan(n=250, replicates=40, seed=9, time_grid=(0.25, 0.5, 1.0))
    m = JumpModel(0.7, TWO)
    ce = TemperingSpec.conditionally_exponential(0.7, 1.0, TWO)
    batches = engine.simulate_paths(plan, m, ce)
    assert [b.t for b in batches] == [0.25, 0.5, 1.0]

    rows = engine.simulate_rowsum(
        WalkPlan(n=250, replicates=40, seed=9), m, ce)
    assert np.array_equal(batches[-1].values, rows.values)


def test_paths_thread_invariance():
    plan = WalkPlan(n=200, replicates=30, seed=4, time_grid=(0.5, 1.0))
    m = JumpModel(1.5, ONE)
    ce = TemperingSpec.conditionally_exponential(1.5, 1.0, ONE)
    a = engine.simulate_paths(plan, m, ce, threads=1)
    b = engine.simulate_paths(plan, m, ce, threads=4)
    for x, y in zip(a, b):
        assert np.array_equal(x.values, y.values)


def test_2d_rowsum():
    plan = WalkPlan(n=300, replicates=16, seed=2)
    m = JumpModel(1.2, AXES)
    nt = TemperingSpec.no_tempering(1.2)
    batch = engine.simulate_rowsum(plan, m, nt)
    assert batch.values.shape == (16, 2)


# ----------------------------------------------------------------- centering


def test_truncated_mean_closed_form_no_tempering():
    # alpha=0.7, one-sided, x_m=1, no tempering: the centering reduces to
    # a_n = (7/3) * (1 - n/v) with v = n^{1/0.7}
    n = 1000
    m = JumpModel(0.7, ONE)
    nt = TemperingSpec.no_tempering(0.7)
    v = engine.tempering_threshold(m, n)
    res = engine.centering_truncated_mean(m, nt, n, v)
    want = (0.7 / 0.3) * (1.0 - n / v)
    assert res.value[0] == pytest.approx(want, rel=1e-8)


def test_truncated_mean_two_sided_signs():
    n = 500
    m = JumpModel(0.7, TWO)
    ce = TemperingSpec.conditionally_exponential(0.7, 1.0, TWO)
    v = engine.tempering_threshold(m, n)
    res = engine.centering_truncated_mean(m, ce, n, v)
    one_sided = engine.centering_truncated_mean(
        JumpModel(0.7, ONE), TemperingSpec.conditionally_exponential(0.7, 1.0, ONE), n, v)
    # weights 0.7 and 0.3 pull in opposite directions
    assert res.value[0] == pytest.approx(0.4 * one_sided.value[0], rel=1e-9)


@pytest.mark.parametrize("alpha", [0.7, 1.5])
def test_truncated_mean_custom_q_matches_exponential_q(alpha, monkeypatch):
    """custom_q takes the same quadrature as the built-ins, with pi itself a
    quadrature, and draws nothing: two atoms, per-atom rates, two scales."""
    n, rates = 1000, [0.5, 2.0]
    m = JumpModel(alpha, TWO, radial=MixedScalePareto((1.0, 3.0), (0.4, 0.6)))
    v = engine.tempering_threshold(m, n)
    built = engine.centering_truncated_mean(m, TemperingSpec.exponential_q(alpha, rates, TWO), n, v)
    monkeypatch.setattr(engine, "_stream_opener", None)  # any draw fails
    custom = TemperingSpec.custom_q(  # q = alpha exp(-theta_j r) on atom j of TWO
        alpha, lambda r, s: alpha * math.exp(-(rates[0] if s[0] > 0.0 else rates[1]) * r), TWO)
    got = engine.centering_truncated_mean(m, custom, n, v)
    assert got.value[0] == pytest.approx(built.value[0], rel=1e-7)


def test_jump_mean_centering_closed_form():
    n = 2000
    m = JumpModel(1.5, ONE)
    ce = TemperingSpec.conditionally_exponential(1.5, 1.0, ONE)
    plan = WalkPlan(n=n, replicates=1, seed=0, centering="jump_mean")
    v = engine.tempering_threshold(m, n)
    center = engine.centering_vector(plan, m, ce, v)
    assert center[0] == pytest.approx(n * 3.0 / v, rel=1e-12)  # E R = 3 at alpha=1.5


def test_centering_none_is_zero():
    m = JumpModel(0.7, TWO)
    ce = TemperingSpec.conditionally_exponential(0.7, 1.0, TWO)
    plan = WalkPlan(n=100, replicates=1, seed=0)
    center = engine.centering_vector(plan, m, ce, 10.0)
    assert np.all(center == 0.0)


def test_jump_mean_needs_finite_mean():
    m = JumpModel(0.7, TWO)
    ce = TemperingSpec.conditionally_exponential(0.7, 1.0, TWO)
    plan = WalkPlan(n=100, replicates=8, seed=0, centering="jump_mean")
    with pytest.raises(ValueError, match="mean does not exist"):
        engine.simulate_rowsum(plan, m, ce)


def test_alpha_mismatch_rejected():
    m = JumpModel(0.7, TWO)
    ce = TemperingSpec.conditionally_exponential(0.8, 1.0, TWO)
    plan = WalkPlan(n=100, replicates=8, seed=0)
    with pytest.raises(ValueError, match="alpha"):
        engine.simulate_rowsum(plan, m, ce)


def test_plan_validation():
    with pytest.raises(ValueError):
        WalkPlan(n=0, replicates=10, seed=1)
    with pytest.raises(ValueError):
        WalkPlan(n=10, replicates=0, seed=1)
    with pytest.raises(ValueError):
        WalkPlan(n=10, replicates=5, seed=1, centering="bogus")
    with pytest.raises(ValueError):
        WalkPlan(n=10, replicates=5, seed=1, time_grid=(1.0, 0.5))
    with pytest.raises(ValueError):
        WalkPlan(n=10, replicates=5, seed=1, time_grid=(-0.5, 1.0))


def test_centered_rowsum_mean_tracks_jump_mean():
    """With jump-mean centering the batch mean sits at the exact finite-n
    mean of the row sum rather than near n*E(H)/v, which grows without
    bound."""
    m = JumpModel(1.5, ONE)
    ce = TemperingSpec.conditionally_exponential(1.5, 1.0, ONE)
    plan = WalkPlan(n=4000, replicates=4000, seed=17, centering="jump_mean")
    batch = engine.simulate_rowsum(plan, m, ce, threads=2)
    emp = float(batch.values.mean())
    exact = finite_n_law.jump_mean_rowsum_mean(plan.n, 1.5, 1.0)
    se = float(batch.values.std(ddof=1)) / math.sqrt(plan.replicates)
    assert abs(emp - exact) <= 4.0 * se


# ------------------------------------------------------------ sigma binding


@pytest.mark.parametrize("bound", [
    TemperingSpec.conditionally_exponential(0.7, [1.0, 4.0], TWO),
    TemperingSpec.custom_q(0.7, _two_rate_q, TWO),
], ids=["per_atom_rates", "custom_q"])
def test_sigma_bound_tempering_rejects_another_sigma(bound):
    flipped = SpectralMeasure([[-1.0], [1.0]], [0.3, 0.7])  # same law, atoms swapped
    plan = WalkPlan(n=50, replicates=4, seed=5)
    with pytest.raises(ValueError, match="spectral measure"):
        engine.simulate_rowsum(plan, JumpModel(0.7, flipped), bound)
    with pytest.raises(ValueError, match="spectral measure"):
        LevyExponent(0.7, flipped, bound, DRIFT_FREE)
    with pytest.raises(ValueError, match="spectral measure"):
        levy_mass(0.7, flipped, bound, 1.0, 2.0)
    # an equal measure built separately is the same sigma
    equal = SpectralMeasure([[1.0], [-1.0]], [0.7, 0.3])
    a = engine.simulate_rowsum(plan, JumpModel(0.7, equal), bound)
    b = engine.simulate_rowsum(plan, JumpModel(0.7, TWO), bound)
    assert np.array_equal(a.values, b.values)


def test_scalar_rate_without_sigma_runs_on_two_atoms():
    plan = WalkPlan(n=400, replicates=50, seed=21)
    m = JumpModel(0.7, TWO)
    free = TemperingSpec.conditionally_exponential(0.7, 2.0)
    given = TemperingSpec.conditionally_exponential(0.7, 2.0, TWO)
    a = engine.simulate_rowsum(plan, m, free)
    assert np.array_equal(a.values, engine.simulate_rowsum(plan, m, given).values)
    grid = np.linspace(-3.0, 3.0, 7)[:, None]
    assert np.array_equal(LevyExponent(0.7, TWO, free, DRIFT_FREE).eval_grid(grid),
                          LevyExponent(0.7, TWO, given, DRIFT_FREE).eval_grid(grid))

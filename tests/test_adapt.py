import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from quantvi import adapt
from quantvi.adapt import (
    AllZeroSamples,
    BudgetTooLarge,
    DegenerateSample,
    InvalidCdf,
    StepCdf,
    TruncNormCdf,
    UniformCdf,
    estimate_level_probs,
    fit_truncated_normal,
    mqv_objective,
    optimize_levels,
    pooled_cdf,
    quantization_cost,
    weighted_cdf,
)
from quantvi.levels import LevelFamily, LevelSequence
import reference


def _fam_two(d=4, q=2):
    assign = np.array([0] * (d // 2) + [1] * (d - d // 2))
    return LevelFamily(
        [LevelSequence([0.0, 0.5, 1.0]), LevelSequence([0.0, 1.0])], assign, q=q
    )


def test_uniform_cdf_moments():
    u = UniformCdf()
    assert np.allclose(u.moments_below(1.0), [1.0, 0.5, 1.0 / 3.0])
    assert np.allclose(u.moments_below(0.5), [0.5, 0.125, 1.0 / 24.0])
    assert np.allclose(u.moments_below(-2.0), [0.0, 0.0, 0.0])
    assert np.allclose(u.moments_below(5.0), u.moments_below(1.0))


def test_step_cdf_merges_duplicates_and_normalizes():
    c = StepCdf([0.2, 0.2, 0.8], [1.0, 1.0, 2.0])
    assert c.points.tolist() == [0.2, 0.8]
    assert np.allclose(c.weights, [0.5, 0.5])
    assert np.allclose(c.moments_below(1.0), [1.0, 0.5, 0.5 * 0.04 + 0.5 * 0.64])
    # moments_below is exclusive of the query point itself
    assert np.allclose(c.moments_below(0.8), [0.5, 0.1, 0.02])
    assert np.allclose(c.moments_below(0.81), c.moments_below(1.0))


def test_step_cdf_counts_an_atom_at_one_from_one_on():
    # The quantizer puts u = 1 in the last level interval, so the atom at 1
    # is below x = 1 but not below any smaller x.
    c = StepCdf([0.5, 1.0], [1.0, 1.0])
    assert c.moments_below(1.0).tolist() == [1.0, 0.75, 0.625]
    assert c.moments_below(np.nextafter(1.0, 0.0)).tolist() == [0.5, 0.25, 0.125]
    assert c.moments_below(np.array([1.0, 2.0])).tolist() == [[1.0, 0.75, 0.625]] * 2


def test_estimate_level_probs_rejects_invalid_cdfs():
    seq = LevelSequence([0.0, 0.5, 1.0])

    class Scaled:
        # Uniform moments times a factor: total mass 0.9.
        def moments_below(self, x):
            return 0.9 * UniformCdf().moments_below(x)

    class Decreasing:
        # Mass 1.5 below 0.5 but only 1 below 1.
        def moments_below(self, x):
            x = np.asarray(x, dtype=np.float64)
            mass = np.where(x >= 1.0, 1.0, np.where(x >= 0.5, 1.5, x))
            return np.stack([mass, mass / 2, mass / 3], axis=-1)

    with pytest.raises(InvalidCdf, match="total mass"):
        estimate_level_probs(Scaled(), seq)
    with pytest.raises(InvalidCdf, match="decreasing"):
        estimate_level_probs(Decreasing(), seq)


def test_step_cdf_rejects_bad_input():
    with pytest.raises(ValueError):
        StepCdf([], [])
    with pytest.raises(ValueError):
        StepCdf([0.5], [-1.0])
    with pytest.raises(ValueError):
        StepCdf([1.5], [1.0])
    with pytest.raises(ValueError):
        StepCdf([0.5], [0.0])


def test_truncnorm_moments_match_numerical_integration():
    for mu, sigma in [(0.3, 0.2), (0.9, 0.5), (-0.2, 0.4)]:
        c = TruncNormCdf(mu, sigma)
        z = stats.norm.cdf((1 - mu) / sigma) - stats.norm.cdf((0 - mu) / sigma)

        def pdf(u):
            return stats.norm.pdf((u - mu) / sigma) / (sigma * z)

        for x in (0.25, 0.6, 1.0):
            m = c.moments_below(x)
            for k in range(3):
                ref = integrate.quad(lambda u: u ** k * pdf(u), 0.0, x)[0]
                assert m[k] == pytest.approx(ref, abs=1e-9)
    with pytest.raises(ValueError):
        TruncNormCdf(0.5, 0.0)


def test_weighted_cdf_weights_by_squared_norm():
    fam = _fam_two(d=4)
    samples = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    assert np.allclose(adapt._sample_weights(samples, fam)[1], [0.2, 0.8])
    assert len(weighted_cdf(samples, fam)) == 2


def test_weighted_cdf_all_zero_raises():
    fam = _fam_two(d=4)
    with pytest.raises(AllZeroSamples):
        weighted_cdf(np.zeros((3, 4)), fam)


def test_weighted_cdf_zero_sample_row_is_ignored():
    fam = _fam_two(d=4)
    samples = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    assert np.allclose(adapt._sample_weights(samples, fam)[1], [1.0, 0.0])
    # each type still sees mass 1 from the surviving sample
    for c in weighted_cdf(samples, fam):
        assert c.moments_below(1.0)[0] == pytest.approx(1.0)


def test_weighted_cdf_dimension_check():
    fam = _fam_two(d=4)
    with pytest.raises(ValueError):
        weighted_cdf(np.ones((2, 5)), fam)


def test_fit_truncated_normal_dimension_check():
    # Wider samples used to give fits from norms over every column, and
    # narrower ones a bare IndexError.
    fam = _fam_two(d=6)
    rng = np.random.default_rng(3)
    for cols in (9, 4):
        with pytest.raises(ValueError, match="sample dimension does not match"):
            fit_truncated_normal(np.abs(rng.standard_normal((5, cols))), fam)


def test_fit_truncated_normal_recovers_moments():
    rng = np.random.default_rng(8)
    fam = LevelFamily([LevelSequence([0.0, 1.0])], np.zeros(400, dtype=np.int64))
    samples = np.abs(rng.normal(0.04, 0.015, size=(1, 400)))
    (c,) = fit_truncated_normal(samples, fam)
    assert isinstance(c, TruncNormCdf)
    mean, var = c.mean_var()
    u = np.abs(samples[0]) / np.linalg.norm(samples[0])
    assert mean == pytest.approx(u.mean(), rel=1e-6)
    assert var == pytest.approx(u.var(), rel=1e-5)


def test_fit_truncated_normal_degenerate_falls_back():
    fam = LevelFamily([LevelSequence([0.0, 1.0])], np.zeros(4, dtype=np.int64))
    samples = np.full((2, 4), 0.5)  # all normalized magnitudes identical
    with pytest.warns(DegenerateSample):
        (c,) = fit_truncated_normal(samples, fam)
    assert isinstance(c, StepCdf)


def test_quantization_cost_uniform_frozen():
    # integral of u(1-u) du = 1/6 for the bare grid; the midpoint level
    # cuts that to 2 * integral_0^0.5 u(0.5 - u) du = 1/24.
    assert quantization_cost(UniformCdf(), LevelSequence([0.0, 1.0])) == pytest.approx(1 / 6)
    assert quantization_cost(UniformCdf(), LevelSequence([0.0, 0.5, 1.0])) == pytest.approx(
        1 / 24
    )


def test_quantization_cost_zero_on_support_points():
    # A CDF concentrated on the levels themselves costs nothing.
    c = StepCdf([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
    assert quantization_cost(c, LevelSequence([0.0, 0.5, 1.0])) == pytest.approx(0.0, abs=1e-15)


def test_optimize_levels_uniform_midpoint():
    seq = optimize_levels(UniformCdf(), 1, 512)
    assert np.allclose(seq.levels, [0.0, 0.5, 1.0])
    seq = optimize_levels(UniformCdf(), 3, 512)
    assert np.allclose(seq.levels, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_optimize_levels_budget_zero_and_errors():
    assert optimize_levels(UniformCdf(), 0, 64).levels.tolist() == [0.0, 1.0]
    with pytest.raises(ValueError):
        optimize_levels(UniformCdf(), -1, 64)
    with pytest.raises(BudgetTooLarge):
        optimize_levels(UniformCdf(), 64, 64)
    with pytest.raises(ValueError):
        optimize_levels(UniformCdf(), 1, 1)


def test_optimize_levels_cost_decreases_with_budget():
    c = StepCdf(np.linspace(0.01, 0.99, 37), np.arange(1.0, 38.0))
    costs = [quantization_cost(c, optimize_levels(c, a, 128)) for a in range(4)]
    assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))


def test_optimize_levels_tracks_concentrated_mass():
    # Nearly all mass near 0.1: the single interior level should land there.
    c = StepCdf([0.1, 0.9], [0.99, 0.01])
    seq = optimize_levels(c, 1, 100)
    assert abs(seq.levels[1] - 0.1) <= 0.05


def test_optimize_levels_matches_exhaustive_small_grid():
    rng = np.random.default_rng(17)
    for _ in range(8):
        pts = rng.random(6)
        c = StepCdf(pts, rng.random(6) + 0.1)
        for alpha in (1, 2):
            best = min(
                quantization_cost(c, [0.0, *(i / 12 for i in comb), 1.0])
                for comb in itertools.combinations(range(1, 12), alpha)
            )
            got = quantization_cost(c, optimize_levels(c, alpha, 12))
            assert got == pytest.approx(best, abs=1e-12)


def _dense_optimize_levels(cdf, alpha, grid):
    """Reference: the level-placement DP over the dense (G+1)^2 cost matrix."""
    xs = np.arange(grid + 1) / grid
    below = np.stack([np.asarray(cdf.moments_below(x), dtype=np.float64) for x in xs])
    below[grid] = cdf.moments_below(1.0)
    b0, b1, b2 = below[:, 0], below[:, 1], below[:, 2]
    m0 = b0[None, :] - b0[:, None]
    m1 = b1[None, :] - b1[:, None]
    m2 = b2[None, :] - b2[:, None]
    cost = -m2 + (xs[:, None] + xs[None, :]) * m1 - (xs[:, None] * xs[None, :]) * m0
    cost[np.tril_indices(grid + 1)] = np.inf
    fprev = np.full(grid + 1, np.inf)
    fprev[0] = 0.0
    parents = []
    for _ in range(alpha + 1):
        cand = fprev[:, None] + cost
        par = np.argmin(cand, axis=0)
        fprev = cand[par, np.arange(grid + 1)]
        parents.append(par)
    positions = [grid]
    for par in reversed(parents):
        positions.append(int(par[positions[-1]]))
    return xs[positions[::-1]]


def _random_step_cdfs(rng, grid, count):
    """Step CDFs with continuous support, mass on grid points, and repeats."""
    for k in range(count):
        n = int(rng.integers(10, 80))
        if k % 3 == 0:
            pts = rng.random(n)
        elif k % 3 == 1:
            pts = rng.integers(0, grid + 1, n) / grid  # exact ties with grid points
        else:
            pts = np.abs(rng.normal(0.1, 0.08, n)).clip(0.0, 1.0)
        weights = np.ones(n) if k % 2 else rng.random(n) + 0.05
        yield StepCdf(pts, weights)


def _interior_support(cdf):
    return int(np.sum((cdf.points > 0.0) & (cdf.points < 1.0)))


@pytest.mark.parametrize("grid", [2, 3, 12, 64, 256, 512])
def test_optimize_levels_equals_dense_dp(grid):
    rng = np.random.default_rng(400 + grid)
    cdfs = [UniformCdf(), TruncNormCdf(0.3, 0.2), TruncNormCdf(-0.2, 0.05)]
    cdfs += list(_random_step_cdfs(rng, grid, {256: 6, 512: 4}.get(grid, 12)))
    for cdf in cdfs:
        for alpha in range(min(8, grid - 1) + 1):
            if isinstance(cdf, StepCdf) and alpha >= _interior_support(cdf):
                continue  # zero-cost optima are not unique; see the next test
            got = optimize_levels(cdf, alpha, grid).levels
            assert np.array_equal(got, _dense_optimize_levels(cdf, alpha, grid))


@st.composite
def _dp_case(draw):
    """(cdf, alpha, grid): uniform, truncated-normal and step CDFs, ties included.

    The "tie" CDFs put 1 to alpha + 1 support points on a coarse grid, so
    that alpha often covers every interior support point and many
    placements cost zero; rounding decides among them.
    """
    alpha = draw(st.integers(0, 8))
    grid = max(2, draw(st.sampled_from([alpha + 1, 12, 64, 2048])))
    kind = draw(st.sampled_from(["uniform", "truncnorm", "step", "tie"]))
    if kind == "uniform":
        cdf = UniformCdf()
    elif kind == "truncnorm":
        cdf = TruncNormCdf(draw(st.floats(-0.3, 1.3)), draw(st.floats(0.05, 1.0)))
    else:
        n = draw(st.integers(1, alpha + 1 if kind == "tie" else 60))
        if kind == "tie":
            coarse = draw(st.sampled_from([1, 2, 3, 4, 8, 12]))
            pts = np.array(draw(st.lists(st.integers(0, coarse), min_size=n, max_size=n)))
            pts = pts / coarse
        else:
            pts = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
        cdf = StepCdf(pts, weights)
    return cdf, alpha, grid


@given(_dp_case())
@settings(max_examples=150, deadline=None)
def test_optimize_levels_equals_the_full_layer_reference(case):
    # Only the alpha - 1 middle layers run the divide and conquer; the first
    # layer is closed-form and the last replays one chain.  The levels must
    # be those of running every layer in full, ties included.
    cdf, alpha, grid = case
    with mock.patch.object(adapt, "_layer_min", wraps=adapt._layer_min) as layer_min:
        got = optimize_levels(cdf, alpha, grid).levels
    assert np.array_equal(got, reference.optimize_levels(cdf, alpha, grid))
    assert layer_min.call_count == max(alpha - 1, 0)


def test_optimize_levels_with_more_levels_than_support_costs_zero():
    # With a level on every interior support point the cost is exactly zero
    # in exact arithmetic, and so is that of every placement that covers the
    # support.  Which of them the dense DP picks is decided by rounding
    # noise, so here only the costs are compared.
    rng = np.random.default_rng(41)
    for grid in (12, 64, 256):
        for _ in range(6):
            pts = rng.integers(0, grid + 1, int(rng.integers(1, 5))) / grid
            cdf = StepCdf(pts, rng.random(pts.size) + 0.05)
            for alpha in range(_interior_support(cdf), min(8, grid - 1) + 1):
                got = quantization_cost(cdf, optimize_levels(cdf, alpha, grid))
                ref = quantization_cost(cdf, _dense_optimize_levels(cdf, alpha, grid))
                assert abs(got) <= 1e-15 and abs(ref) <= 1e-15


def test_interval_cost_is_monge():
    # optimize_levels finds each DP layer by divide and conquer, which is
    # exact only because the interval cost satisfies the quadrangle
    # inequality c(i,j) + c(i',j') <= c(i,j') + c(i',j) for i < i' < j < j'
    # (so the leftmost optimal predecessor is monotone in j).
    rng = np.random.default_rng(5)
    grid = 16
    xs = np.arange(grid + 1) / grid
    quads = np.array(list(itertools.combinations(range(grid + 1), 4))).T
    slack = 8 * np.finfo(np.float64).eps  # terms are O(1): mass 1 on [0, 1]
    for cdf in _random_step_cdfs(rng, grid, 60):
        below = cdf.moments_below(xs)
        below[grid] = cdf.moments_below(1.0)
        m = below[None, :, :] - below[:, None, :]
        cost = -m[..., 2] + (xs[:, None] + xs[None, :]) * m[..., 1] - (
            xs[:, None] * xs[None, :]
        ) * m[..., 0]
        i, i2, j, j2 = quads
        assert np.all(cost[i, j] + cost[i2, j2] <= cost[i, j2] + cost[i2, j] + slack)


def test_optimize_levels_memory_is_linear_in_grid():
    rng = np.random.default_rng(9)
    cdf = StepCdf(np.abs(rng.normal(0.05, 0.04, 4000)).clip(0.0, 1.0), rng.random(4000))
    tracemalloc.start()
    try:
        seq = optimize_levels(cdf, 7, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # a dense cost matrix would need 3.2 GB
    assert seq.levels.size == 9
    assert np.all(np.isin(seq.levels, np.arange(20001) / 20000))


def test_moments_below_takes_an_array_of_points():
    rng = np.random.default_rng(12)
    step = StepCdf(rng.random(50), rng.random(50))
    xs = np.concatenate([[-0.5, 0.0, 1.0, 1.5], step.points[::7], rng.random(40)])
    for cdf in (step, UniformCdf(), TruncNormCdf(0.3, 0.2), TruncNormCdf(1.4, 0.6)):
        rows = cdf.moments_below(xs)
        assert rows.shape == (xs.size, 3)
        assert np.array_equal(rows, np.stack([cdf.moments_below(x) for x in xs]))
        assert cdf.moments_below(0.5).shape == (3,)
    # The uniform moments keep the scalar formula bit for bit.
    u = UniformCdf().moments_below(xs)
    for x, row in zip(xs, u):
        x = min(max(float(x), 0.0), 1.0)
        assert row.tolist() == [x, x**2 / 2.0, x**3 / 3.0]


def test_mqv_objective_weights_types_by_proportion():
    fam = _fam_two(d=4)
    val = mqv_objective(fam, [UniformCdf(), UniformCdf()])
    assert val == pytest.approx(0.5 / 24 + 0.5 / 6)
    # A type without a CDF contributes nothing.
    assert mqv_objective(fam, [UniformCdf(), None]) == pytest.approx(0.5 / 24)


def test_pooled_cdf_mixes_types_by_proportion():
    fam = _fam_two(d=4)
    samples = np.array([[0.6, 0.6, 0.2, 0.2]])
    w = weighted_cdf(samples, fam)
    pooled = pooled_cdf(w, fam)
    total = pooled.moments_below(1.0)
    assert total[0] == pytest.approx(1.0)
    # Support is the union of both types' normalized magnitudes.
    norm = np.linalg.norm(samples[0])
    assert np.allclose(np.unique(pooled.points), np.unique(np.abs(samples[0]) / norm))


def test_layerwise_optimum_never_worse_than_pooled():
    rng = np.random.default_rng(23)
    for _ in range(5):
        fam = _fam_two(d=8)
        samples = rng.standard_normal((6, 8)) * np.array([3, 3, 3, 3, 1, 1, 1, 1])
        cdfs = weighted_cdf(samples, fam)
        budget = 2
        per_type = [optimize_levels(cdfs[m], budget, 64) for m in range(2)]
        layer = sum(
            fam.proportions[m] * quantization_cost(cdfs[m], per_type[m])
            for m in range(2)
        )
        shared = optimize_levels(pooled_cdf(cdfs, fam), budget, 64)
        pooled = sum(
            fam.proportions[m] * quantization_cost(cdfs[m], shared)
            for m in range(2)
        )
        assert layer <= pooled + 1e-12


def _loop_cost(cdf, ell):
    """Reference: the rounding-variance integral summed interval by interval."""
    total, below = cdf.moments_below(1.0), cdf.moments_below(ell)
    cost = 0.0
    for j in range(len(ell) - 1):
        m0, m1, m2 = (total if j == len(ell) - 2 else below[j + 1]) - below[j]
        cost += -m2 + (ell[j] + ell[j + 1]) * m1 - ell[j] * ell[j + 1] * m0
    return float(cost)


def _loop_level_probs(cdf, ell):
    """Reference: each interval's mass split between its two levels, one at a time."""
    total, below = cdf.moments_below(1.0), cdf.moments_below(ell)
    row = np.zeros(len(ell))
    for j in range(len(ell) - 1):
        m0, m1, _ = (total if j == len(ell) - 2 else below[j + 1]) - below[j]
        w_up = min(max((m1 - ell[j] * m0) / (ell[j + 1] - ell[j]), 0.0), max(m0, 0.0))
        row[j] += m0 - w_up
        row[j + 1] += w_up
    return np.clip(row, 0.0, None)


def test_vectorized_interval_sums_equal_the_loops_bit_for_bit():
    rng = np.random.default_rng(21)
    for trial in range(300):
        k = rng.integers(1, 30)
        cdf = [StepCdf(rng.integers(0, 5, k) / 4 if trial % 6 == 0 else rng.random(k),
                       rng.random(k)),
               UniformCdf(),
               TruncNormCdf(rng.normal(0.3, 0.3), rng.uniform(0.1, 2.0))][trial % 3]
        interior = np.sort(rng.random(rng.integers(0, 8)))
        seq = LevelSequence(np.unique(np.concatenate(([0.0], interior, [1.0]))))
        assert quantization_cost(cdf, seq) == _loop_cost(cdf, seq.levels)
        got = adapt.estimate_level_probs(cdf, seq)
        assert got.tobytes() == _loop_level_probs(cdf, seq.levels).tobytes()


def test_weighted_cdf_points_follow_sample_then_coordinate_order():
    # Type 1 has no coordinates, and sample 1 has zero weight.
    fam = LevelFamily([LevelSequence([0.0, 1.0])] * 3, np.array([2, 0, 2, 0, 0]))
    S = np.array([[1.0, -2.0, 0.5, 0.0, 3.0], [0.0] * 5, [-1.0, 1.0, 1.0, 2.0, -0.5]])
    assert weighted_cdf(S, fam)[1] is None
    norms, lam = adapt._sample_weights(S, fam)
    pts, wts = adapt._type_points(S, norms, lam, fam, 0)
    expect = [abs(S[z, i]) / norms[z] for z in (0, 2) for i in (1, 3, 4)]
    assert pts.tolist() == expect
    assert wts.tolist() == [lam[z] / 3 for z in (0, 2) for _ in range(3)]

import sys
import threading
import warnings

import numpy as np
import pytest

from quantvi import vi
from quantvi.quantizer import DimensionMismatch
from quantvi.vi import (
    AbsoluteNoise,
    AffineOperator,
    AlmostSureClip,
    BadDimension,
    RelativeNoise,
    is_relative,
    make_problem,
)
from reference import whole_matrix_skew_split


def test_affine_operator_skew_and_norm():
    op = AffineOperator(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, 2.0]))
    assert op.is_skew
    assert op.L == pytest.approx(1.0)


def test_affine_operator_rejects_non_monotone():
    with pytest.raises(ValueError):
        AffineOperator(-np.eye(3))
    with pytest.raises(BadDimension):
        AffineOperator(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        AffineOperator(np.eye(2), c=np.zeros(3))


def _count_factorizations(monkeypatch):
    """Count spectral norms, SVDs (those inside np.linalg.norm(M, 2) included) and eigensolves."""
    counts = {"spectral_norm": 0, "svd": 0, "eigvalsh": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(vi, "spectral_norm", counting("spectral_norm", vi.spectral_norm))
    svd = counting("svd", np.linalg.svd)
    monkeypatch.setattr(np.linalg, "svd", svd)
    # norm looks svd up in the globals of the module that defines it.
    monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, "svd", svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    return counts


def _assert_is_norm(L, B, block=None):
    """L is exactly spectral_norm(B), or spectral_norm(block) for a block
    with B's norm, and the SVD's norm of B to within 8 eps."""
    assert L == vi.spectral_norm(B if block is None else block)
    assert L == pytest.approx(np.linalg.norm(B, 2), rel=8 * np.finfo(float).eps, abs=0.0)


def test_skew_split_factorizes_only_what_the_problem_uses(monkeypatch):
    counts = _count_factorizations(monkeypatch)
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: shapes.append(A.shape) or eigvalsh(A))
    p = make_problem("bilinear", d=8, K=4, seed=0)
    # _unit_spectral of the h x h saddle block, and the global L from the
    # normalized block; no SVD, and the exactly skew global operator needs
    # no eigensolve of B + B^T.  The deltas are scaled by their Frobenius
    # norms, and the node matrices are never factorized.
    assert counts == {"spectral_norm": 2, "svd": 0, "eigvalsh": 2}
    assert shapes == [(4, 4), (4, 4)]
    _assert_is_norm(p.L, p.op.B, block=p.op.B[:4, 4:])


@pytest.mark.parametrize("kind, skew_part", [("cocoercive", 0), ("strongly_monotone", 1)])
def test_non_skew_split_factorizes_only_the_global_operator(monkeypatch, kind, skew_part):
    counts = _count_factorizations(monkeypatch)
    K = 4
    p = make_problem(kind, d=40, K=K, seed=0)
    # _unit_spectral of strongly_monotone's skew part, then the global L and
    # one eigensolve of B + B^T; none per node or per delta.
    norms = skew_part + 1
    assert counts == {"spectral_norm": norms, "svd": 0, "eigvalsh": norms + 1}
    _assert_is_norm(p.L, p.op.B)


def test_operator_norm_is_computed_once_at_construction(monkeypatch):
    counts = _count_factorizations(monkeypatch)
    skew = np.array([[0.0, 2.0], [-2.0, 0.0]])
    skew_op = AffineOperator(skew)
    # An exactly skew operator needs the norm but no eigensolve of B + B^T.
    assert counts == {"spectral_norm": 1, "svd": 0, "eigvalsh": 1}
    # A non-skew operator shares its norm with its monotonicity tolerance.
    B = np.array([[2.0, 1.0], [1.0, 3.0]])
    op = AffineOperator(B)
    assert counts == {"spectral_norm": 2, "svd": 0, "eigvalsh": 3}
    assert skew_op.L > 0 and op.L > 0  # reading L factorizes nothing
    assert counts == {"spectral_norm": 2, "svd": 0, "eigvalsh": 3}
    _assert_is_norm(skew_op.L, skew)
    _assert_is_norm(op.L, B)


def test_nearly_skew_operator_takes_the_eigensolve(monkeypatch):
    counts = _count_factorizations(monkeypatch)
    B = np.array([[0.0, 1.0, 1e-13], [-1.0, 0.0, 0.0], [1e-13, 0.0, 0.0]])
    op = AffineOperator(B)  # B + B^T is nonzero, with eigenvalues +-1e-13
    # One norm (one eigensolve of B^T B) and one eigensolve of B + B^T.
    assert counts == {"spectral_norm": 1, "svd": 0, "eigvalsh": 2}
    assert op.is_skew
    with pytest.raises(ValueError):
        AffineOperator(-np.eye(3))
    assert counts == {"spectral_norm": 2, "svd": 0, "eigvalsh": 4}


def _norm_test_matrices(rng):
    yield np.zeros((3, 3))
    for n in (1, 2, 7, 40, 101):
        G = rng.standard_normal((n, n))
        yield G
        yield G - G.T  # skew
        yield G + G.T  # symmetric, indefinite
        yield np.outer(rng.standard_normal(n), rng.standard_normal(n))  # rank one
        yield G * np.logspace(0, -12, n)  # graded columns
        yield rng.standard_normal((n, n + 3))  # rectangular


def test_spectral_norm_matches_the_svd():
    # Both norms carry rounding error of order n * eps; up to n = 101 the two
    # differ by at most 12 eps over 30 seeds of these matrices.
    eps = np.finfo(float).eps
    for M in _norm_test_matrices(np.random.default_rng(5)):
        svd_norm = np.linalg.norm(M, 2)
        assert vi.spectral_norm(M) == pytest.approx(svd_norm, rel=32 * eps, abs=0.0)
    assert vi.spectral_norm([[-3.0]]) == 3.0


def test_spectral_norm_is_exact_under_power_of_two_scaling():
    """Entries near 1e160 or 1e-170 would overflow or underflow once squared."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in _norm_test_matrices(np.random.default_rng(6)):
            norm = vi.spectral_norm(M)
            for k in (531, -565):  # 2^531 ~ 1e160, 2^-565 ~ 1e-170
                assert vi.spectral_norm(np.ldexp(M, k)) == np.ldexp(norm, k)


def test_absolute_noise_mean_and_power():
    rng = np.random.default_rng(0)
    noise = AbsoluteNoise(0.3)
    ax = np.array([1.0, -2.0, 0.5, 0.0])
    draws = np.stack([noise.sample_batch(ax, rng) for _ in range(20000)])
    err = draws - ax
    assert np.abs(err.mean(axis=0)).max() < 0.01
    assert np.einsum("ij,ij->i", err, err).mean() == pytest.approx(0.09, rel=0.05)
    with pytest.raises(ValueError):
        AbsoluteNoise(-1.0)


def test_relative_noise_scales_with_operator():
    rng = np.random.default_rng(1)
    noise = RelativeNoise(0.5)
    ax = np.array([2.0, 0.0, -1.0])
    draws = np.stack([noise.sample_batch(ax, rng) for _ in range(20000)])
    err = draws - ax
    assert np.abs(err.mean(axis=0)).max() < 0.02
    power = np.einsum("ij,ij->i", err, err).mean()
    assert power == pytest.approx(0.5 * float(ax @ ax), rel=0.05)
    # Exactly zero at a solution, so runs can converge past the noise floor.
    assert noise.sample_batch(np.zeros(3), rng).tolist() == [0.0, 0.0, 0.0]


def test_noise_batch_matches_distribution():
    rng = np.random.default_rng(2)
    AX = np.tile(np.array([1.0, -1.0]), (5000, 1))
    for noise in (AbsoluteNoise(0.2), RelativeNoise(0.3)):
        batch = noise.sample_batch(AX, rng)
        err = batch - AX
        assert np.abs(err.mean(axis=0)).max() < 0.02
    assert AbsoluteNoise(0.0).sample_batch(AX, rng).tolist() == AX.tolist()


def test_clip_bounds_every_sample_norm():
    rng = np.random.default_rng(3)
    clip = AlmostSureClip(0.75, AbsoluteNoise(5.0))
    ax = np.array([0.1, 0.1])
    for _ in range(200):
        assert np.linalg.norm(clip.sample_batch(ax, rng)) <= 0.75 + 1e-12
    batch = clip.sample_batch(np.tile(ax, (300, 1)), rng)
    assert np.all(np.linalg.norm(batch, axis=1) <= 0.75 + 1e-12)
    # Samples already inside the ball pass through untouched.
    quiet = AlmostSureClip(100.0, AbsoluteNoise(0.0))
    assert quiet.sample_batch(ax, rng).tolist() == ax.tolist()
    with pytest.raises(ValueError):
        AlmostSureClip(0.0, AbsoluteNoise(1.0))


def test_is_relative_unwraps_clip():
    assert is_relative(RelativeNoise(0.1))
    assert is_relative(AlmostSureClip(1.0, RelativeNoise(0.1)))
    assert not is_relative(AbsoluteNoise(0.1))
    assert not is_relative(AlmostSureClip(1.0, AbsoluteNoise(0.1)))
    assert not is_relative(None)


def test_domain_rejects_non_positive_radius():
    assert vi.TestDomain(np.zeros(2), 1.0).radius == 1.0
    with pytest.raises(ValueError):
        vi.TestDomain(np.zeros(2), 0.0)


def test_make_problem_bilinear_structure():
    p = make_problem("bilinear", d=6, K=3, seed=5)
    assert p.d == 6 and p.K == 3
    assert p.op.is_skew
    assert p.L == pytest.approx(1.0)
    # The node operators are a zero-sum split of the global operator.
    assert p.node_B.shape == (3, 6, 6) and p.node_c.shape == (3, 6)
    assert np.allclose(p.node_B.mean(axis=0), p.op.B, rtol=0.0, atol=1e-15)
    assert np.array_equal(p.node_c, np.tile(p.op.c, (3, 1)))
    # The planted solution is a zero of the operator.
    assert np.allclose(p.op.B @ p.x_star + p.op.c, 0.0)
    with pytest.raises(BadDimension):
        make_problem("bilinear", d=5, K=2, seed=0)


def test_make_problem_is_deterministic():
    a = make_problem("bilinear", d=6, K=2, seed=9)
    b = make_problem("bilinear", d=6, K=2, seed=9)
    c = make_problem("bilinear", d=6, K=2, seed=10)
    assert np.array_equal(a.op.B, b.op.B)
    assert not np.array_equal(a.op.B, c.op.B)


def test_make_problem_strongly_monotone():
    p = make_problem("strongly_monotone:0.5", d=6, K=2, seed=1)
    rng = np.random.default_rng(0)
    worst = np.inf
    for _ in range(300):
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        gain = float((p.op.B @ (x - y)) @ (x - y))
        worst = min(worst, gain / float((x - y) @ (x - y)))
    assert worst >= 0.5 - 1e-9
    with pytest.raises(ValueError):
        make_problem("strongly_monotone:2.0", d=4, K=1, seed=0)


def test_make_problem_cocoercive():
    p = make_problem("cocoercive:0.5,2.0", d=6, K=2, seed=1)
    eigs = np.linalg.eigvalsh(p.op.B)
    assert eigs[0] == pytest.approx(0.5) and eigs[-1] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        make_problem("cocoercive:2.0,0.5", d=4, K=1, seed=0)
    with pytest.raises(ValueError):
        make_problem("octonion", d=4, K=1, seed=0)


def test_node_split_identical_under_relative_noise():
    # Every node's matrix is B itself: a view of op.B, no copy.  A clip
    # around relative noise keeps it relative.
    p = make_problem("bilinear", d=4, K=3, seed=2, noise=RelativeNoise(0.5))
    q = make_problem("bilinear", d=4, K=3, seed=2,
                     noise=AlmostSureClip(10.0, RelativeNoise(0.5)))
    for r in (p, q):
        assert r.node_B.shape == (3, 4, 4) and np.shares_memory(r.node_B, r.op.B)
        assert all(np.array_equal(Bk, r.op.B) for Bk in r.node_B)
    assert not np.shares_memory(make_problem("bilinear", d=4, K=3, seed=2).node_B, p.op.B)


def test_bilinear_skew_split_is_exactly_antisymmetric():
    p = make_problem("bilinear", d=8, K=4, seed=0)
    assert p.op.is_skew
    for Bk in p.node_B:
        assert np.array_equal(Bk, -Bk.T)
        assert not np.array_equal(Bk, p.op.B)


@pytest.mark.parametrize("d, spectral_median", [(20, 0.216), (200, 0.217)])
def test_skew_delta_scale_matches_the_spectral_scale(d, spectral_median):
    # Deltas are scaled by their Frobenius norms; the median spectral norm of
    # the centred deltas stays within 10% of its value when each delta was
    # scaled to spectral norm 0.25 (spectral_median, seeds 0-9, K = 4).
    norms = []
    for seed in range(10):
        p = make_problem("bilinear", d=d, K=4, seed=seed)
        for Bk in p.node_B:
            delta = Bk - p.op.B
            assert np.array_equal(delta, -delta.T)
            norms.append(np.linalg.norm(delta, 2))
    assert 0.9 * spectral_median <= np.median(norms) <= 1.1 * spectral_median


@pytest.mark.parametrize("K", [2, 4, 5])
@pytest.mark.parametrize("d", [2, 20, 130, 256, 258, 1000])
def test_skew_split_in_blocks_is_the_whole_matrix_split(d, K):
    # Dimensions whose row blocks come out ragged and exact.  The reference
    # draws from the generator where make_problem does, after the saddle
    # block and the solution.
    p = make_problem("bilinear", d=d, K=K, seed=d + K, noise=AbsoluteNoise(0.1))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=d + K, spawn_key=(7,)))
    rng.standard_normal((d // 2, d // 2))
    rng.standard_normal(d)
    assert np.array_equal(p.node_B, whole_matrix_skew_split(rng, p.op.B, K, vi._DELTA_FROB))


@pytest.mark.parametrize("kind", ["cocoercive", "strongly_monotone"])
def test_skew_split_nodes_are_monotone(kind):
    # Skew deltas leave each node's symmetric part that of B, up to rounding.
    for seed in range(3):
        p = make_problem(kind, d=30, K=4, seed=seed)
        for Bk in p.node_B:
            assert np.linalg.eigvalsh(Bk + Bk.T)[0] >= -1e-9 * p.L


def test_explicit_solution_override():
    target = np.full(4, 0.5)
    p = make_problem("strongly_monotone:0.3", d=4, K=1, seed=0, x_star=target)
    assert np.allclose(p.x_star, target)
    assert np.allclose(p.op.B @ target + p.op.c, 0.0)


def certify_monotone(op, rng, pairs=10000):
    """Minimum of <A(x) - A(y), x - y> over random pairs (should be >= -1e-9)."""
    worst = np.inf
    for _ in range(pairs):
        x = rng.standard_normal(op.d)
        y = rng.standard_normal(op.d)
        worst = min(worst, float(((op.B @ x + op.c) - (op.B @ y + op.c)) @ (x - y)))
    return worst


def certify_lipschitz(op, rng, pairs=10000):
    """Maximum of ||A(x) - A(y)|| / ||x - y|| over random pairs."""
    worst = 0.0
    for _ in range(pairs):
        x = rng.standard_normal(op.d)
        y = rng.standard_normal(op.d)
        nd = np.linalg.norm(x - y)
        if nd == 0:
            continue
        worst = max(worst, float(np.linalg.norm((op.B @ x + op.c) - (op.B @ y + op.c)) / nd))
    return worst


def test_certifiers_agree_with_construction():
    rng = np.random.default_rng(4)
    p = make_problem("bilinear", d=6, K=1, seed=3)
    assert certify_monotone(p.op, rng, pairs=500) >= -1e-9
    assert certify_lipschitz(p.op, rng, pairs=500) <= p.L + 1e-9


def test_gap_zero_at_solution_positive_elsewhere():
    for kind in ("bilinear", "strongly_monotone:0.4", "cocoercive:0.5,2.0"):
        p = make_problem(kind, d=6, K=2, seed=11)
        assert p.gap(p.x_star) == pytest.approx(0.0, abs=1e-7)
        away = p.x_star + 0.5 * np.ones(6)
        assert p.gap(away) > 1e-3


def test_gap_linear_closed_form_for_skew():
    # For skew B the objective is linear in x, so the supremum over the ball
    # has a closed form we can recompute directly.
    p = make_problem("bilinear", d=4, K=1, seed=6)
    x_hat = p.x_star + np.array([0.3, -0.2, 0.1, 0.4])
    g = p.op.B.T @ x_hat - p.op.c
    expect = float(p.domain.center @ g) + p.domain.radius * float(np.linalg.norm(g))
    expect += float(p.op.c @ x_hat)
    assert p.gap(x_hat) == pytest.approx(expect, rel=1e-12)


def test_gap_rejects_non_finite_point():
    p = make_problem("bilinear", d=4, K=1, seed=6)
    with pytest.raises(ValueError):
        p.gap(np.array([np.nan, 0.0, 0.0, 0.0]))


def test_restricted_gap_dominates_inner_products():
    # gap(x_hat) is a supremum, so it dominates <A(x), x_hat - x> at any
    # sampled x in the ball.
    p = make_problem("cocoercive:0.5,2.0", d=5, K=1, seed=13)
    rng = np.random.default_rng(5)
    x_hat = p.x_star + 0.3 * rng.standard_normal(5)
    val = p.gap(x_hat)
    for _ in range(100):
        direction = rng.standard_normal(5)
        direction /= np.linalg.norm(direction)
        x = p.domain.center + p.domain.radius * rng.random() * direction
        assert val >= float((p.op.B @ x + p.op.c) @ (x_hat - x)) - 1e-8


def _ascent_gap(x_hat, op, dom, tol=1e-6, restarts=3, max_iter=20000):
    """Reference gap by projected gradient ascent from the ball center plus
    ``restarts`` seeded random starts.  Every iterate is feasible, so the
    result is a lower bound on the gap."""

    def project(x):
        delta = x - dom.center
        norm = np.linalg.norm(delta)
        return x if norm <= dom.radius else dom.center + delta * (dom.radius / norm)

    g = op.B.T @ x_hat - op.c
    const = float(op.c @ x_hat)
    S2 = op.B + op.B.T
    step = 1.0 / max(np.linalg.eigvalsh(S2)[-1], 1e-12)

    def value(x):
        return float(x @ g) - float(x @ (S2 @ x)) / 2.0 + const

    def ascend(x):
        for _ in range(max_iter):
            x_new = project(x + step * (g - S2 @ x))
            if np.linalg.norm(x_new - x) <= tol * step:
                return x_new, True
            x = x_new
        return x, False

    local = np.random.default_rng(1729)
    starts = [dom.center.copy()]
    for _ in range(restarts):
        direction = local.standard_normal(op.d)
        direction /= max(np.linalg.norm(direction), 1e-12)
        starts.append(dom.center + dom.radius * local.random() * direction)
    best, converged = -np.inf, False
    for x0 in starts:
        x_end, ok = ascend(x0)
        converged = converged or ok
        best = max(best, value(x_end))
    assert converged
    return best


def _assert_matches_ascent(new, ref):
    scale = max(1.0, abs(ref))
    assert new >= ref - 1e-13 * scale
    assert new - ref <= 1e-10 * scale


@pytest.mark.parametrize("kind", ["cocoercive", "strongly_monotone"])
@pytest.mark.parametrize("d", [5, 20, 200])
def test_restricted_gap_matches_projected_ascent(kind, d):
    p = make_problem(kind, d=d, K=1, seed=d)
    rng = np.random.default_rng(d)
    H = p.op.B + p.op.B.T
    boundary = 0
    for i in range(30):
        # Half the points on the problem's own ball, half on a ball with a
        # random centre and radius; distances span interior and boundary maxima.
        dom = p.domain if i % 2 else vi.TestDomain(
            p.x_star + 0.5 * rng.standard_normal(d) / np.sqrt(d), rng.uniform(0.3, 3.0))
        x_hat = p.x_star + 10 ** rng.uniform(-2, 2) * rng.standard_normal(d) / np.sqrt(d)
        gap = vi.restricted_gap(x_hat, p.op, dom)
        ref = _ascent_gap(x_hat, p.op, dom)
        _assert_matches_ascent(gap, ref)
        h = p.op.B.T @ (x_hat - dom.center) - (p.op.B @ dom.center + p.op.c)
        boundary += np.linalg.norm(np.linalg.solve(H, h)) > dom.radius
    assert 5 <= boundary <= 25  # both kinds of maximum were checked


def test_restricted_gap_is_exact_for_a_scaled_identity():
    # With B = mu I + skew, H = 2 mu I and the maximum over the ball has a
    # closed form in ||h||: interior below 2 mu r, on the sphere above it.
    rng = np.random.default_rng(21)
    d, mu, r = 7, 0.3, 1.5
    G = rng.standard_normal((d, d))
    B = mu * np.eye(d) + (G - G.T)
    dom = vi.TestDomain(rng.standard_normal(d), r)
    op = AffineOperator(B, c=0.01 * rng.standard_normal(d) - B @ dom.center)
    a0 = op.B @ dom.center + op.c
    inside = 0
    for scale in np.geomspace(1e-3, 1e2, 30):
        x_hat = dom.center + scale * rng.standard_normal(d)
        n = np.linalg.norm(op.B.T @ (x_hat - dom.center) - a0)
        inside += n <= 2 * mu * r
        best = n * n / (4 * mu) if n <= 2 * mu * r else r * n - mu * r * r
        exact = float(a0 @ (x_hat - dom.center)) + best
        assert vi.restricted_gap(x_hat, op, dom) == pytest.approx(exact, rel=1e-14, abs=1e-14)
    assert 0 < inside < 30


@pytest.mark.filterwarnings("error")  # no division by zero on a singular H
def test_restricted_gap_hard_case_is_exact():
    # H = diag(2, 0) is singular and h = (1, 0) has no component along its
    # null vector; the maximizer z = (1/2, 0) lies inside the ball.
    op = AffineOperator(np.diag([1.0, 0.0]))
    dom = vi.TestDomain(np.zeros(2), 2.0)
    assert abs(vi.restricted_gap(np.array([1.0, 0.7]), op, dom) - 0.25) <= 1e-15
    # With a component along the null vector the maximum is on the sphere;
    # a slightly negative eigenvalue, inside the monotonicity tolerance,
    # shifts the search interval.
    shifted = AffineOperator(np.diag([1.0, 0.0]), c=np.array([0.0, 0.3]))
    tilted = AffineOperator(np.diag([1.0, -1e-12]))
    for op in (shifted, tilted):
        for x_hat in ([1.0, 0.7], [-0.4, 2.0], [3.0, -1.0]):
            x_hat = np.array(x_hat)
            _assert_matches_ascent(vi.restricted_gap(x_hat, op, dom),
                                   _ascent_gap(x_hat, op, dom))


def test_gap_eigendecomposes_each_non_skew_operator_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or eigh(M))
    rng = np.random.default_rng(0)
    for kind in ("cocoercive", "strongly_monotone:0.3"):
        p = make_problem(kind, d=6, K=2, seed=1)
        for _ in range(4):
            p.gap(p.x_star + rng.standard_normal(6))
    assert calls == [(6, 6), (6, 6)]
    near_skew = AffineOperator(np.array([[0.0, 1.0], [-1.0, 1e-13]]))
    for op in (make_problem("bilinear", d=6, K=1, seed=1).op, near_skew):
        assert op.is_skew
        for _ in range(3):
            vi.restricted_gap(rng.standard_normal(op.d), op, vi.TestDomain(np.zeros(op.d), 1.0))
    assert len(calls) == 2


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("noise", [AbsoluteNoise(0.1), RelativeNoise(0.1)])
@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_node_evaluator_is_the_stacked_product_bit_for_bit(monkeypatch, K, noise, split):
    # Three usable CPUs cut K = 4 and 5 into chunks of unequal sizes.  At
    # d = 20 only a lowered threshold takes the concurrent path.
    monkeypatch.setattr(vi, "_usable_cpus", lambda: 3)
    if split:
        monkeypatch.setattr(vi, "_SPLIT_BYTES", 0)
    p = make_problem("bilinear", d=20, K=K, seed=K, noise=noise)
    identical = K == 1 or is_relative(noise)
    rng = np.random.default_rng(0)
    before = threading.active_count()
    with vi.node_evaluator(p) as node_values:
        for _ in range(20):
            x = rng.standard_normal(p.d)
            assert np.array_equal(node_values(x), p.node_B @ x + p.node_c)
        # Only a skew split on the concurrent path hands chunks to threads.
        assert (threading.active_count() > before) == (split and not identical)
    assert threading.active_count() == before


def test_node_evaluator_under_thread_contention(monkeypatch):
    # Eight chunks, more than the CPUs, and a short switch interval: each
    # worker writes only its own rows, so every call is still exact.
    monkeypatch.setattr(vi, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(vi, "_usable_cpus", lambda: 8)
    p = make_problem("bilinear", d=20, K=8, seed=1, noise=AbsoluteNoise(0.1))
    rng = np.random.default_rng(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with vi.node_evaluator(p) as node_values:
            for _ in range(200):
                x = rng.standard_normal(p.d)
                assert np.array_equal(node_values(x), p.node_B @ x + p.node_c)
    finally:
        sys.setswitchinterval(interval)

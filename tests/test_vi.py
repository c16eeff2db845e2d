import tracemalloc
import warnings

import numpy as np
import pytest

from quantvi import solver, vi
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
from reference import factored_skew_split


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


def _assert_is_norm(L, B):
    """L is spectral_norm(B) to within 16 eps, and the SVD's norm of B to within 8 eps."""
    eps = np.finfo(float).eps
    assert L == pytest.approx(vi.spectral_norm(B), rel=16 * eps, abs=0.0)
    assert L == pytest.approx(np.linalg.norm(B, 2), rel=8 * eps, abs=0.0)


@pytest.mark.parametrize("d", [2, 20, 200, 1000])
def test_bilinear_L_is_one_by_construction(d):
    # The saddle block is divided by its spectral norm, so ||B||_2 = 1.  A
    # second eigensolve would only add its own rounding: the computed norms
    # of B and of the scaled block stray from 1 by up to 14 eps at d = 1000.
    eps = np.finfo(float).eps
    for seed in range(3):
        p = make_problem("bilinear", d=d, K=2, seed=seed)
        assert p.L == p.op.L == 1.0
        assert abs(p.L - vi.spectral_norm(p.op.matrix())) <= 16 * eps
        assert abs(p.L - np.linalg.norm(p.op.M, 2)) <= 16 * eps


def test_skew_split_factorizes_only_what_the_problem_uses(monkeypatch):
    counts = _count_factorizations(monkeypatch)
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: shapes.append(A.shape) or eigvalsh(A))
    p = make_problem("bilinear", d=8, K=4, seed=0)
    # _unit_spectral of the h x h saddle block, which makes L = 1, and one
    # stacked eigensolve of the K 2r x 2r cores of the deltas; no SVD, no
    # d x d eigensolve, and the operator, skew by its structure, forms no
    # B + B^T and has no d x d B at all.
    assert counts == {"spectral_norm": 1, "svd": 0, "eigvalsh": 2}
    assert shapes == [(4, 4), (4, 8, 8)]
    assert isinstance(p.op, vi.SaddleOperator) and p.op.M.shape == (4, 4)
    assert not hasattr(p.op, "B")
    assert p.L == 1.0


@pytest.mark.parametrize("kind, skew_part", [("cocoercive", 0), ("strongly_monotone", 1)])
def test_non_skew_split_factorizes_only_the_global_operator(monkeypatch, kind, skew_part):
    counts = _count_factorizations(monkeypatch)
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: eighs.append(A.shape) or eigh(A))
    K = 4
    p = make_problem(kind, d=40, K=K, seed=0)
    p.gap(p.x_star + 1.0)
    # _unit_spectral of strongly_monotone's skew part, plus one stacked
    # eigensolve of the deltas' 2r x 2r cores.  L, the monotonicity
    # certificate and the gap's eigenpairs come from the construction: no
    # norm of B, no eigensolve of B + B^T and no eigh, at set-up or at the
    # first gap.
    assert counts == {"spectral_norm": skew_part, "svd": 0, "eigvalsh": skew_part + 1}
    assert eighs == []
    # lmax = 1 by default; mu = 0.1 plus a unit skew part times 0.9.
    assert p.L == (np.sqrt(0.1**2 + 0.9**2) if skew_part else 1.0)
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
    assert skew_op.L == vi.spectral_norm(skew) and op.L == vi.spectral_norm(B)
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
    # The node operators are a zero-sum split of the global operator, from
    # rank-3 factors [U W] per node.
    assert p.factors.shape == (3, 6, 6)
    node_B = p.node_matrices()
    assert node_B.shape == (3, 6, 6)
    B = p.op.matrix()
    assert np.allclose(node_B.mean(axis=0), B, rtol=0.0, atol=1e-15)
    assert np.array_equal(B[:3, 3:], p.op.M) and np.array_equal(B[3:, :3], -p.op.M.T)
    assert not B[:3, :3].any() and not B[3:, 3:].any()
    # The planted solution is a zero of the operator.
    assert np.allclose(B @ p.x_star + p.op.c, 0.0)
    with pytest.raises(BadDimension):
        make_problem("bilinear", d=5, K=2, seed=0)


def test_make_problem_is_deterministic():
    a = make_problem("bilinear", d=6, K=2, seed=9)
    b = make_problem("bilinear", d=6, K=2, seed=9)
    c = make_problem("bilinear", d=6, K=2, seed=10)
    assert np.array_equal(a.op.M, b.op.M)
    assert not np.array_equal(a.op.M, c.op.M)


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
    # No factors, and every node's matrix is B itself: one B, broadcast over
    # the nodes with no copy.  A clip around relative noise keeps it
    # relative.
    p = make_problem("bilinear", d=4, K=3, seed=2, noise=RelativeNoise(0.5))
    q = make_problem("bilinear", d=4, K=3, seed=2,
                     noise=AlmostSureClip(10.0, RelativeNoise(0.5)))
    for r in (p, q):
        node_B = r.node_matrices()
        assert r.factors is None
        assert node_B.shape == (3, 4, 4) and node_B.strides[0] == 0
        assert all(np.array_equal(Bk, r.op.matrix()) for Bk in node_B)
    coco = make_problem("cocoercive", d=4, K=3, seed=2, noise=RelativeNoise(0.5))
    assert np.shares_memory(coco.node_matrices(), coco.op.B)
    skew = make_problem("bilinear", d=4, K=3, seed=2)
    assert skew.factors is not None
    assert skew.node_matrices().strides[0] != 0


def test_bilinear_skew_split_is_exactly_antisymmetric():
    p = make_problem("bilinear", d=8, K=4, seed=0)
    assert p.op.is_skew
    for Bk in p.node_matrices():
        assert np.array_equal(Bk, -Bk.T)
        assert not np.array_equal(Bk, p.op.matrix())


@pytest.mark.parametrize("d, spectral_median", [(20, 0.216), (200, 0.217), (1000, 0.216)])
def test_skew_delta_scale_matches_the_spectral_scale(d, spectral_median):
    # Each rank-2r delta is scaled to spectral norm _DELTA_NORM before
    # centring; the median spectral norm of the centred deltas stays within
    # 10% of its value when each dense delta was scaled to spectral norm 0.25
    # (spectral_median, seeds 0-9, K = 4; two seeds at d = 1000).
    norms = []
    for seed in range(10 if d < 1000 else 2):
        p = make_problem("bilinear", d=d, K=4, seed=seed)
        B = p.op.matrix()
        for Bk in p.node_matrices():
            delta = Bk - B
            assert np.array_equal(delta, -delta.T)
            norms.append(np.linalg.norm(delta, 2))
    assert 0.9 * spectral_median <= np.median(norms) <= 1.1 * spectral_median


@pytest.mark.parametrize("K", [2, 4, 5])
@pytest.mark.parametrize("d", [2, 20, 130, 256, 258, 1000])
def test_skew_split_in_blocks_is_the_whole_matrix_split(d, K):
    # The split is built from d x 2r factor blocks and scaled through a
    # 2r x 2r core; the reference builds each d x d delta and scales it by
    # its SVD norm.  It draws from the generator where make_problem does,
    # after the saddle block and the solution.
    p = make_problem("bilinear", d=d, K=K, seed=d + K, noise=AbsoluteNoise(0.1))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=d + K, spawn_key=(7,)))
    rng.standard_normal((d // 2, d // 2))
    rng.standard_normal(d)
    ref = factored_skew_split(rng, p.op.matrix(), K, min(vi._RANK, d // 2), vi._DELTA_NORM)
    assert np.abs(p.node_matrices() - ref).max() <= 1e-14
    node_values = vi.node_evaluator(p)
    x = np.random.default_rng(d).standard_normal(d)
    assert np.abs(node_values(x) - (ref @ x + p.op.c)).max() <= 1e-13 * np.linalg.norm(x)


@pytest.mark.parametrize("kind", ["cocoercive", "strongly_monotone"])
def test_skew_split_nodes_are_monotone(kind):
    # Skew deltas leave each node's symmetric part that of B, up to rounding.
    for seed in range(3):
        p = make_problem(kind, d=30, K=4, seed=seed)
        for Bk in p.node_matrices():
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
        worst = min(worst, float(((op.product(x) + op.c) - (op.product(y) + op.c)) @ (x - y)))
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
        gain = np.linalg.norm((op.product(x) + op.c) - (op.product(y) + op.c))
        worst = max(worst, float(gain / nd))
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
    g = p.op.matrix().T @ x_hat - p.op.c
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
        by_hand = AffineOperator(p.op.B, p.op.c)
        for _ in range(4):
            x_hat = p.x_star + rng.standard_normal(6)
            # A built problem has its eigenpairs from the construction.
            want = vi.restricted_gap(x_hat, by_hand, p.domain)
            assert p.gap(x_hat) == pytest.approx(want, rel=1e-13, abs=0.0)
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
    # At d = 20 the node matrices are materialized and multiplied stacked;
    # with the size threshold lowered to 0 the split is evaluated through its
    # factors, as a stacked product of [U W] and [W -U]^T x and the saddle
    # block.  Either way the result is the written-out product bit for bit,
    # and the two agree to rounding.
    p = make_problem("bilinear", d=20, K=K, seed=K, noise=noise)
    assert (p.factors is None) == (K == 1 or is_relative(noise))
    node_B = p.node_matrices()
    if split:
        monkeypatch.setattr(vi, "_DENSE_BYTES", 0)
    node_values = vi.node_evaluator(p)
    M, c = p.op.M, p.op.c
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(p.d)
        got = node_values(x)
        dense = node_B @ x + c
        if not split:
            assert np.array_equal(got, dense)
            continue
        Bx = np.concatenate((M @ x[10:], -(M.T @ x[:10])))
        if p.factors is None:
            want = np.tile(Bx + c, (K, 1))
        else:
            F, r = p.factors, p.factors.shape[2] // 2
            QT = np.swapaxes(np.concatenate((F[..., r:], -F[..., :r]), axis=2), 1, 2)
            Z = (F @ (QT.reshape(-1, p.d) @ x).reshape(K, -1, 1))[..., 0]
            Z -= Z.mean(axis=0)
            want = Z + (Bx + c)
        assert np.array_equal(got, want)
        assert np.abs(got - dense).max() <= 1e-14 * np.linalg.norm(x)


@pytest.mark.parametrize("K", [2, 4, 5])
@pytest.mark.parametrize("d", [2, 20, 200, 512, 1000])
def test_factored_split_is_a_zero_sum_skew_split(d, K):
    # Every node matrix minus B is exactly skew, so every node of a bilinear
    # problem is monotone, and the nodes average to the global operator.
    p = make_problem("bilinear", d=d, K=K, seed=d * K, noise=AbsoluteNoise(0.1))
    B = p.op.matrix()
    for Bk in p.node_matrices():
        delta = Bk - B
        assert np.array_equal(delta, -delta.T)
    node_values = vi.node_evaluator(p)
    rng = np.random.default_rng(d)
    for _ in range(5):
        x = rng.standard_normal(d)
        scale = np.linalg.norm(x) + np.linalg.norm(p.op.c)
        err = node_values(x).mean(axis=0) - (B @ x + p.op.c)
        assert np.abs(err).max() <= 1e-14 * scale


@pytest.mark.parametrize("kind", ["cocoercive", "strongly_monotone"])
@pytest.mark.parametrize("d, K", [(2, 5), (20, 4), (200, 2), (512, 4), (1000, 5)])
def test_factored_split_nodes_of_a_non_skew_operator_are_monotone(kind, d, K):
    p = make_problem(kind, d=d, K=K, seed=d + K, noise=AbsoluteNoise(0.1))
    lmin = np.linalg.eigvalsh(p.op.B + p.op.B.T)[0]
    for Bk in p.node_matrices():
        assert np.linalg.eigvalsh(Bk + Bk.T)[0] >= lmin - 1e-12


@pytest.mark.parametrize("d", [200, 512])
def test_factored_and_materialized_evaluators_agree(monkeypatch, d):
    # d = 200, K = 4 is materialized and d = 512 factored; each is evaluated
    # both ways.
    p = make_problem("bilinear", d=d, K=4, seed=d, noise=AbsoluteNoise(0.1))
    assert (8 * 4 * d * d < vi._DENSE_BYTES) == (d == 200)
    monkeypatch.setattr(vi, "_DENSE_BYTES", 0)
    factored = vi.node_evaluator(p)
    monkeypatch.setattr(vi, "_DENSE_BYTES", np.inf)
    materialized = vi.node_evaluator(p)
    rng = np.random.default_rng(d)
    for _ in range(5):
        x = 10 ** rng.uniform(-3, 3) * rng.standard_normal(d)
        scale = np.linalg.norm(x) + np.linalg.norm(p.op.c)
        assert np.abs(factored(x) - materialized(x)).max() <= 1e-13 * scale


def test_make_problem_builds_no_node_matrix():
    # The factors of a d = 1000, K = 4 split take 1 MiB; four node matrices
    # would take 30.5 MiB.
    tracemalloc.start()
    try:
        make_problem("bilinear", 1000, 4, 0, AbsoluteNoise(0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_bilinear_run_allocates_no_dense_matrix():
    # Below one d x d float64 array, 7.6 MiB at d = 1000: the saddle block
    # takes 1.9 MiB and the factors 1 MiB, and neither set-up nor the solve
    # assembles B or any other d x d array.
    limit = 8 * 1000 * 1000
    tracemalloc.start()
    try:
        p = make_problem("bilinear", 1000, 4, 0, AbsoluteNoise(0.1))
        setup_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        solver.run_extragradient_baseline(p, 2)
        solve_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert setup_peak < limit
    assert solve_peak < limit


@pytest.mark.parametrize("d", [2, 20, 200, 1000])
@pytest.mark.parametrize("kind", ["bilinear", "strongly_monotone", "cocoercive"])
def test_built_operator_agrees_with_the_operator_built_by_hand(kind, d):
    # make_problem hands the operator its L, its skewness and the
    # eigenpairs of B + B^T; an AffineOperator built on the same dense B
    # and c computes each of them.  They agree to rounding.
    eps = np.finfo(float).eps
    p = make_problem(kind, d=d, K=1, seed=d)
    by_hand = AffineOperator(p.op.matrix(), p.op.c)
    assert abs(p.L - by_hand.L) <= 16 * eps * by_hand.L
    assert p.op.is_skew == by_hand.is_skew == (kind == "bilinear")
    rng = np.random.default_rng(d)
    for scale in np.geomspace(1e-3, 1e3, 13):
        x_hat = scale * rng.standard_normal(d) / np.sqrt(d)
        want = vi.restricted_gap(x_hat, by_hand, p.domain)
        assert p.gap(x_hat) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("d", [1, 2, 20, 200, 1000])
def test_strongly_monotone_symmetric_part_is_exactly_mu_identity(d):
    mu = 0.3
    p = make_problem(f"strongly_monotone:{mu}", d=d, K=1, seed=d)
    assert np.array_equal(p.op.B + p.op.B.T, 2 * mu * np.eye(d))
    lam, Q = p.op._sym_eigh
    assert Q is None and np.array_equal(lam, np.full(d, 2 * mu))
    # At d = 1 there is no skew part, and B is mu itself.
    assert p.L == (mu if d == 1 else np.sqrt(mu**2 + (1 - mu) ** 2))

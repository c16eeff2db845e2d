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
    certify_lipschitz,
    certify_monotone,
    is_relative,
    make_problem,
    sample_oracle,
)


def test_affine_operator_apply():
    op = AffineOperator(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, 2.0]))
    assert op.apply(np.array([3.0, 4.0])).tolist() == [5.0, -1.0]
    assert op.is_skew
    assert op.L == pytest.approx(1.0)


def test_affine_operator_rejects_non_monotone():
    with pytest.raises(ValueError):
        AffineOperator(-np.eye(3))
    with pytest.raises(BadDimension):
        AffineOperator(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        AffineOperator(np.eye(2), c=np.zeros(3))
    with pytest.raises(ValueError):
        AffineOperator(np.eye(2), L=0.5)  # below the true operator norm
    # Exactly skew B skips the eigensolve, but a declared L is still checked.
    with pytest.raises(ValueError):
        AffineOperator(np.array([[0.0, 2.0], [-2.0, 0.0]]), L=1.0)
    assert AffineOperator(np.array([[0.0, 2.0], [-2.0, 0.0]]), L=3.0).L == 3.0


def _count_factorizations(monkeypatch):
    """Count SVDs, those inside np.linalg.norm(M, 2) included, and eigensolves."""
    counts = {"svd": 0, "eigvalsh": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    svd = counting("svd", np.linalg.svd)
    monkeypatch.setattr(np.linalg, "svd", svd)
    # norm looks svd up in the globals of the module that defines it.
    monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, "svd", svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    return counts


def test_skew_split_factorizes_only_what_the_problem_uses(monkeypatch):
    counts = _count_factorizations(monkeypatch)
    K = 4
    p = make_problem("bilinear", d=8, K=K, seed=0, node_split="skew")
    # _unit_spectral(B), the global L, and one _unit_spectral per delta.
    assert counts == {"svd": 2 + K, "eigvalsh": 0}
    assert all(op.is_skew and op.sym_eig_max == 0.0 for op in p.node_ops)


def test_operator_norm_is_computed_once_on_first_read(monkeypatch):
    p = make_problem("bilinear", d=8, K=3, seed=1, node_split="skew")
    skew_op = p.node_ops[1]
    B = np.array([[2.0, 1.0], [1.0, 3.0]])
    skew_norm, sym_norm = np.linalg.norm(skew_op.B, 2), np.linalg.norm(B, 2)
    counts = _count_factorizations(monkeypatch)
    # A node operator of a skew split has no norm until its L is read.
    assert (skew_op.L, skew_op.L) == (skew_norm, skew_norm)
    assert counts == {"svd": 1, "eigvalsh": 0}
    # A non-skew operator needs the norm for its tolerances and shares it with L.
    assert AffineOperator(B).L == sym_norm
    assert counts == {"svd": 2, "eigvalsh": 1}


def test_nearly_skew_operator_takes_the_eigensolve(monkeypatch):
    counts = _count_factorizations(monkeypatch)
    B = np.array([[0.0, 1.0, 1e-13], [-1.0, 0.0, 0.0], [1e-13, 0.0, 0.0]])
    op = AffineOperator(B)  # B + B^T is nonzero, with eigenvalues +-1e-13
    assert counts == {"svd": 1, "eigvalsh": 1}
    assert op.is_skew
    assert op.sym_eig_max == pytest.approx(1e-13)
    with pytest.raises(ValueError):
        AffineOperator(-np.eye(3))
    assert counts["eigvalsh"] == 2


def test_absolute_noise_mean_and_power():
    rng = np.random.default_rng(0)
    noise = AbsoluteNoise(0.3)
    ax = np.array([1.0, -2.0, 0.5, 0.0])
    draws = np.stack([noise.sample(ax, rng) for _ in range(20000)])
    err = draws - ax
    assert np.abs(err.mean(axis=0)).max() < 0.01
    assert np.einsum("ij,ij->i", err, err).mean() == pytest.approx(0.09, rel=0.05)
    with pytest.raises(ValueError):
        AbsoluteNoise(-1.0)


def test_relative_noise_scales_with_operator():
    rng = np.random.default_rng(1)
    noise = RelativeNoise(0.5)
    ax = np.array([2.0, 0.0, -1.0])
    draws = np.stack([noise.sample(ax, rng) for _ in range(20000)])
    err = draws - ax
    assert np.abs(err.mean(axis=0)).max() < 0.02
    power = np.einsum("ij,ij->i", err, err).mean()
    assert power == pytest.approx(0.5 * float(ax @ ax), rel=0.05)
    # Exactly zero at a solution, so runs can converge past the noise floor.
    assert noise.sample(np.zeros(3), rng).tolist() == [0.0, 0.0, 0.0]


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
        assert np.linalg.norm(clip.sample(ax, rng)) <= 0.75 + 1e-12
    batch = clip.sample_batch(np.tile(ax, (300, 1)), rng)
    assert np.all(np.linalg.norm(batch, axis=1) <= 0.75 + 1e-12)
    # Samples already inside the ball pass through untouched.
    quiet = AlmostSureClip(100.0, AbsoluteNoise(0.0))
    assert quiet.sample(ax, rng).tolist() == ax.tolist()
    with pytest.raises(ValueError):
        AlmostSureClip(0.0, AbsoluteNoise(1.0))


def test_is_relative_unwraps_clip():
    assert is_relative(RelativeNoise(0.1))
    assert is_relative(AlmostSureClip(1.0, RelativeNoise(0.1)))
    assert not is_relative(AbsoluteNoise(0.1))
    assert not is_relative(AlmostSureClip(1.0, AbsoluteNoise(0.1)))
    assert not is_relative(None)


def test_sample_oracle_without_noise_is_exact():
    op = AffineOperator(np.eye(2), np.array([1.0, 0.0]))
    x = np.array([0.5, 0.5])
    assert sample_oracle(op, None, x, np.random.default_rng(0)).tolist() == [1.5, 0.5]


def test_domain_projection_and_diameter():
    dom = vi.TestDomain(np.zeros(2), 1.0)
    assert np.allclose(dom.project(np.array([3.0, 4.0])), [0.6, 0.8])
    inside = np.array([0.1, 0.2])
    assert dom.project(inside) is inside
    assert dom.d_squared(np.array([2.0, 0.0])) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        vi.TestDomain(np.zeros(2), 0.0)


def test_make_problem_bilinear_structure():
    p = make_problem("bilinear", d=6, K=3, seed=5)
    assert p.d == 6 and p.K == 3
    assert p.op.is_skew
    assert p.L == pytest.approx(1.0)
    # Node operators are a zero-sum split of the global operator.
    assert np.allclose(np.mean([op.B for op in p.node_ops], axis=0), p.op.B)
    assert np.allclose(np.mean([op.c for op in p.node_ops], axis=0), p.op.c)
    # The planted solution is a zero of the operator.
    assert np.allclose(p.op.apply(p.x_star), 0.0)
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
        gain = float((p.op.apply(x) - p.op.apply(y)) @ (x - y))
        worst = min(worst, gain / float((x - y) @ (x - y)))
    assert worst >= 0.5 - 1e-9
    with pytest.raises(ValueError):
        make_problem("strongly_monotone:2.0", d=4, K=1, seed=0)


def test_make_problem_cocoercive():
    p = make_problem("cocoercive:0.5,2.0", d=6, K=2, seed=1)
    assert p.beta == pytest.approx(0.5)
    eigs = np.linalg.eigvalsh(p.op.B)
    assert eigs[0] == pytest.approx(0.5) and eigs[-1] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        make_problem("cocoercive:2.0,0.5", d=4, K=1, seed=0)
    with pytest.raises(ValueError):
        make_problem("octonion", d=4, K=1, seed=0)


def test_node_split_identical_under_relative_noise():
    p = make_problem("bilinear", d=4, K=3, seed=2, noise=RelativeNoise(0.5))
    assert all(op is p.op for op in p.node_ops)
    q = make_problem("bilinear", d=4, K=3, seed=2, node_split="identical")
    assert all(op is q.op for op in q.node_ops)


def test_explicit_solution_override():
    target = np.full(4, 0.5)
    p = make_problem("strongly_monotone:0.3", d=4, K=1, seed=0, x_star=target)
    assert np.allclose(p.x_star, target)
    assert np.allclose(p.op.apply(target), 0.0)


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
        assert val >= float(p.op.apply(x) @ (x_hat - x)) - 1e-8

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quantvi
from quantvi.levels import LevelFamily, LevelSequence
from quantvi.quantizer import (
    DimensionMismatch,
    IndexOutOfRange,
    NonFinite,
    OutOfRange,
    QuantizedVector,
    _normalized_magnitudes,
    dequantize,
    dequantize_batch,
    exact_quantization_variance,
    quantize_batch,
    quantize_vector,
)
import reference
from reference import locate_level


def _fam(levels=(0.0, 0.5, 1.0), d=2, q=2):
    return LevelFamily([LevelSequence(list(levels))], np.zeros(d, dtype=np.int64), q=q)


def test_locate_level_interior_point():
    seq = LevelSequence([0.0, 0.5, 1.0])
    tau, xi = locate_level(0.6, seq)
    assert tau == 1
    assert xi == pytest.approx(0.2)


def test_locate_level_endpoints():
    seq = LevelSequence([0.0, 0.5, 1.0])
    assert locate_level(0.0, seq) == (0, 0.0)
    tau, xi = locate_level(1.0, seq)
    assert tau == 1 and xi == 1.0
    tau, xi = locate_level(0.5, seq)
    assert tau == 1 and xi == 0.0


def test_locate_level_clamps_tiny_overshoot_only():
    seq = LevelSequence([0.0, 1.0])
    assert locate_level(1.0 + 1e-13, seq) == (0, 1.0)
    with pytest.raises(OutOfRange):
        locate_level(1.01, seq)
    with pytest.raises(OutOfRange):
        locate_level(-0.01, seq)


def test_quantize_pinned_uniforms():
    # v = (3, -4) has Euclidean norm 5, so u = (0.6, 0.8) and both
    # coordinates sit in [0.5, 1] with xi = (0.2, 0.6).  The first uniform
    # 0.15 < 0.2 rounds up, the second 0.65 >= 0.6 rounds down.
    fam = _fam()
    qv = quantize_vector([3.0, -4.0], fam, uniforms=np.array([0.15, 0.65]))
    assert qv.norm == 5.0
    assert qv.level_idx.tolist() == [2, 1]
    assert qv.signs.tolist() == [1, -1]
    assert dequantize(qv, fam).tolist() == [5.0, -2.5]


def test_quantize_without_randomness_names_both_sources():
    # With neither rng nor uniforms there is nothing to round with.
    fam = _fam()
    with pytest.raises(ValueError, match="rng or uniforms"):
        quantvi.quantize_vector([3.0, -4.0], fam)
    with pytest.raises(ValueError, match="rng or uniforms"):
        quantize_batch(np.ones((2, 2)), fam)
    # The check comes first: a bad vector does not mask it.
    with pytest.raises(ValueError, match="rng or uniforms"):
        quantvi.quantize_vector([np.nan, 1.0, 2.0], fam)


def test_quantize_norm_is_float32_rounded():
    fam = _fam(d=3)
    v = np.array([1.0, 1.0, 1.0])
    qv = quantize_vector(v, fam, rng=np.random.default_rng(0))
    assert qv.norm == float(np.float32(np.sqrt(3.0)))


def test_quantize_zero_vector():
    fam = _fam(d=4)
    qv = quantize_vector(np.zeros(4), fam, rng=np.random.default_rng(0))
    assert qv.norm == 0.0
    assert qv.level_idx.tolist() == [0, 0, 0, 0]
    assert qv.signs.tolist() == [1, 1, 1, 1]
    assert dequantize(qv, fam).tolist() == [0.0, 0.0, 0.0, 0.0]


def test_level_zero_coordinates_get_positive_sign():
    # A negative coordinate rounded down to level 0 carries no sign bit on
    # the wire, so the in-memory representation must already be +1.
    fam = _fam(levels=(0.0, 1.0), d=2)
    qv = quantize_vector([1.0, -0.1], fam, uniforms=np.array([0.0, 0.999]))
    assert qv.level_idx[1] == 0
    assert qv.signs.tolist() == [1, 1]


def test_quantize_rejects_non_finite():
    fam = _fam(d=2)
    with pytest.raises(NonFinite):
        quantize_vector([np.nan, 0.0], fam, rng=np.random.default_rng(0))
    with pytest.raises(NonFinite):
        quantize_vector([np.inf, 0.0], fam, rng=np.random.default_rng(0))


def test_quantize_rejects_norm_overflowing_wire_format():
    fam = _fam(d=2)
    # Norms beyond float64 and norms only beyond float32 both raise, with
    # no numpy warning first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in ([1e300, 1e300], [1e39, 0.0], [2.0**128 - 2.0**103, 0.0]):
            with pytest.raises(NonFinite):
                quantize_vector(v, fam, rng=np.random.default_rng(0))
        largest = np.nextafter(2.0**128 - 2.0**103, 0.0)
        qv = quantize_vector([largest, 0.0], fam, rng=np.random.default_rng(0))
    assert qv.norm == float(np.finfo(np.float32).max)


def test_quantize_rejects_dimension_mismatch():
    fam = _fam(d=3)
    with pytest.raises(DimensionMismatch):
        quantize_vector([1.0, 2.0], fam, rng=np.random.default_rng(0))
    with pytest.raises(DimensionMismatch):
        quantize_vector([1.0, 2.0, 3.0], fam, uniforms=np.zeros(2))


def test_quantize_batch_matches_single_calls():
    rng = np.random.default_rng(42)
    fam = LevelFamily(
        [LevelSequence([0.0, 0.25, 1.0]), LevelSequence([0.0, 0.5, 1.0])],
        np.array([0, 0, 1, 1, 1]),
    )
    V = rng.standard_normal((6, 5))
    U = rng.random((6, 5))
    norms, signs, idx = quantize_batch(V, fam, uniforms=U)
    for k in range(6):
        qv = quantize_vector(V[k], fam, uniforms=U[k])
        assert qv.norm == norms[k]
        assert qv.signs.tolist() == signs[k].tolist()
        assert qv.level_idx.tolist() == idx[k].tolist()


def test_dequantize_batch_matches_single():
    fam = _fam(d=3)
    rng = np.random.default_rng(7)
    V = rng.standard_normal((4, 3))
    norms, signs, idx = quantize_batch(V, fam, rng=rng)
    batch = dequantize_batch(norms, signs, idx, fam)
    for k in range(4):
        qv = QuantizedVector(norms[k], signs[k], idx[k], fam.fingerprint())
        assert np.array_equal(dequantize(qv, fam), batch[k])


def test_dequantize_checks_family_and_index_range():
    fam = _fam(d=2)
    other = _fam(levels=(0.0, 0.25, 1.0), d=2)
    qv = quantize_vector([1.0, 2.0], fam, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        dequantize(qv, other)
    bad = QuantizedVector(1.0, [1, 1], [0, 5], fam.fingerprint())
    with pytest.raises(IndexOutOfRange):
        dequantize(bad, fam)
    bad = QuantizedVector(1.0, [1, 1], [0, -1], fam.fingerprint())
    with pytest.raises(IndexOutOfRange):
        dequantize(bad, fam)


def test_unbiasedness_monte_carlo():
    # Mean of 40000 reconstructions should sit within 5 standard errors of
    # the input, per coordinate.
    fam = LevelFamily(
        [LevelSequence([0.0, 0.25, 1.0]), LevelSequence([0.0, 0.5, 1.0])],
        np.array([0, 0, 0, 1, 1, 1]),
    )
    rng = np.random.default_rng(314)
    v = rng.standard_normal(6)
    n = 40000
    norms, signs, idx = quantize_batch(np.tile(v, (n, 1)), fam, rng=rng)
    draws = dequantize_batch(norms, signs, idx, fam)
    se = draws.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - v) <= 5 * se + 1e-12)


def test_exact_variance_frozen_example():
    # u = (0.6, 0.8) between levels 0.5 and 1:
    # 25 * ((1-0.6)(0.6-0.5) + (1-0.8)(0.8-0.5)) = 25 * 0.1 = 2.5
    fam = _fam()
    assert exact_quantization_variance([3.0, -4.0], fam) == pytest.approx(2.5, rel=1e-12)


def test_exact_variance_zero_cases():
    fam = _fam(d=2)
    assert exact_quantization_variance([0.0, 0.0], fam) == 0.0
    # Coordinates landing exactly on levels round deterministically.
    assert exact_quantization_variance([1.0, 0.0], fam) == 0.0


def test_exact_variance_matches_per_coordinate_reference():
    # The closed form summed coordinate by coordinate through locate_level,
    # on scattered three-type families, with zero and one-hot vectors among
    # the inputs (u = 0 and u = 1).  Only the summation order differs.
    rng = np.random.default_rng(5)
    for trial in range(60):
        seqs = [LevelSequence(np.r_[0.0, np.sort(rng.uniform(0, 1, a)), 1.0])
                for a in (1, 3, 6)]
        fam = LevelFamily(seqs, rng.integers(0, 3, size=12))
        v = rng.standard_normal(12)
        v[rng.random(12) < 0.2] = 0.0
        if trial % 10 == 0:
            v = np.eye(12)[trial % 12] * -2.0
        norm = np.linalg.norm(v)
        ref = 0.0
        for i, m in enumerate(fam.assignment):
            u = abs(v[i]) / norm
            tau, _ = locate_level(u, seqs[m])
            ell = seqs[m].levels
            ref += (ell[tau + 1] - u) * (u - ell[tau])
        assert exact_quantization_variance(v, fam) == pytest.approx(
            norm ** 2 * ref, rel=1e-13, abs=1e-300)


def test_exact_variance_matches_monte_carlo():
    fam = LevelFamily(
        [LevelSequence([0.0, 0.25, 0.5, 1.0])], np.zeros(5, dtype=np.int64)
    )
    rng = np.random.default_rng(99)
    v = rng.standard_normal(5) * 3.0
    exact = exact_quantization_variance(v, fam)
    n = 40000
    norms, signs, idx = quantize_batch(np.tile(v, (n, 1)), fam, rng=rng)
    err = dequantize_batch(norms, signs, idx, fam) - v
    sq = np.einsum("ij,ij->i", err, err)
    se = sq.std(ddof=1) / np.sqrt(n)
    assert abs(sq.mean() - exact) <= 4 * se


@st.composite
def _vector_and_family(draw):
    d = draw(st.integers(min_value=1, max_value=12))
    M = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.sampled_from([1, 2]))
    v = draw(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=d,
            max_size=d,
        )
    )
    v = np.array(v)
    # Magnitudes exactly as the quantizer computes them: levels drawn from
    # these put some inputs exactly on a level.
    _, mags, _ = _normalized_magnitudes(v[None, :], _fam(d=d, q=q))
    on_level = sorted({float(x) for x in mags[0] if 0.0 < x < 1.0})
    seqs = []
    for _ in range(M):
        interior = draw(
            st.lists(
                st.floats(min_value=0.05, max_value=0.95), min_size=0, max_size=3,
                unique=True,
            )
        )
        if on_level:
            interior += draw(st.lists(st.sampled_from(on_level), max_size=2))
        seqs.append([0.0] + sorted(set(interior)) + [1.0])
    assignment = draw(st.lists(st.integers(min_value=0, max_value=M - 1),
                               min_size=d, max_size=d))
    u = draw(st.lists(st.floats(min_value=0.0, max_value=0.999), min_size=d, max_size=d))
    return v, LevelFamily(seqs, np.array(assignment), q=q), np.array(u)


@given(_vector_and_family())
@settings(max_examples=150, deadline=None)
def test_reconstruction_lands_on_adjacent_levels(case):
    # Whatever the uniforms, each reconstructed magnitude must equal the
    # norm times one of the two levels bracketing the normalized input.
    v, fam, uniforms = case
    qv = quantize_vector(v, fam, uniforms=uniforms)
    back = dequantize(qv, fam)
    if qv.norm == 0.0:
        assert np.all(back == 0.0)
        return
    norm64 = np.linalg.norm(v, ord=fam.q)
    for i in range(v.size):
        seq = fam.sequences[fam.assignment[i]]
        u = min(abs(v[i]) / norm64, 1.0)
        tau, _ = locate_level(u, seq)
        allowed = {qv.norm * seq.levels[tau], qv.norm * seq.levels[tau + 1]}
        assert abs(back[i]) in allowed
        if back[i] != 0.0:
            assert np.sign(back[i]) == np.sign(v[i])


def test_quantize_empty_batch():
    norms, signs, idx = quantize_batch(np.zeros((0, 3)), _fam(d=3), rng=np.random.default_rng(0))
    assert [(a.shape, a.dtype) for a in (norms, signs, idx)] == [
        ((0,), np.float64), ((0, 3), np.int8), ((0, 3), np.int32)]


def _draw_rows(data, fam, rng):
    """Gaussian rows at several scales, with zero rows, rows whose norm underflows
    float32, one-spike rows (u = 1), rows of eighths (on dyadic level edges
    when q = 1) and, rarely, non-finite or overflowing rows."""
    d = fam.dimension
    kinds = data.draw(st.lists(st.sampled_from(
        ["gauss", "zero", "underflow", "spike", "eighths", "nan", "inf", "overflow"]),
        min_size=1, max_size=5))
    rows = []
    for kind in kinds:
        v = rng.standard_normal(d) * rng.choice([1e-3, 1.0, 1e3])
        if kind == "zero":
            v[:] = 0.0
        elif kind == "underflow":
            v *= 1e-300
        elif kind == "spike":
            v = np.zeros(d)
            v[rng.integers(d)] = rng.choice([-3.0, 7.5])
        elif kind == "eighths":
            v = rng.multinomial(8, np.full(d, 1.0 / d)) * rng.choice([-1.0, 1.0], d)
        elif kind in ("nan", "inf"):
            v[rng.integers(d)] = np.nan if kind == "nan" else -np.inf
        elif kind == "overflow":
            v[0] = 1e39
        rows.append(v)
    return np.array(rows)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_quantize_matches_the_reference(data):
    # Same outputs, dtypes included, or the same exception class.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    M = data.draw(st.integers(1, 4))
    seqs = []
    for a in rng.integers(0, 6, M):
        # Eighths, random levels, or halving levels down to 2^-20: closer than
        # the bucket index's finest buckets, so several edges share one.
        kind = data.draw(st.sampled_from(["eighths", "random", "halving"]))
        if kind == "eighths":
            inner = np.sort(rng.choice(np.arange(1, 8), a, replace=False)) / 8.0
        elif kind == "random":
            inner = np.sort(rng.random(a))
        else:
            inner = 2.0 ** -np.arange(4 * a, 0, -1)
        seqs.append(LevelSequence(np.concatenate(([0.0], inner, [1.0]))))
    assign = rng.integers(0, M, data.draw(st.integers(1, 10)))
    if data.draw(st.booleans()):
        assign = np.sort(assign)
    fam = LevelFamily(seqs, assign, q=data.draw(st.sampled_from([1, 2, 3])))
    V = _draw_rows(data, fam, rng)
    U = rng.random(V.shape)
    U[rng.random(V.shape) < 0.2] = 0.0

    def outcome(quantize):
        try:
            return quantize(V, fam, uniforms=U)
        except (NonFinite, OutOfRange) as err:
            return type(err)

    got, want = outcome(quantize_batch), outcome(reference.quantize_batch)
    if isinstance(want, type):
        assert got is want
    else:
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

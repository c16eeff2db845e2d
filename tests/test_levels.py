import numpy as np
import pytest

from quantvi import levels
from quantvi.levels import (
    AlphaZero,
    BadEndpoints,
    EmptySequence,
    LevelFamily,
    LevelSequence,
    NotSorted,
    assignment_from_layer_sizes,
    family_stats,
    sequence_from_spec,
    validate_level_sequence,
    variance_bound_eps,
)


def test_validate_accepts_minimal_and_interior_grids():
    assert validate_level_sequence([0.0, 1.0]).tolist() == [0.0, 1.0]
    assert validate_level_sequence([0.0, 0.5, 1.0]).tolist() == [0.0, 0.5, 1.0]


def test_validate_rejects_bad_endpoints():
    with pytest.raises(BadEndpoints):
        validate_level_sequence([0.1, 0.5, 1.0])
    with pytest.raises(BadEndpoints):
        validate_level_sequence([0.0, 0.5, 0.9])


def test_validate_rejects_unsorted_and_duplicates():
    with pytest.raises(NotSorted):
        validate_level_sequence([0.0, 0.6, 0.5, 1.0])
    with pytest.raises(NotSorted):
        validate_level_sequence([0.0, 0.5, 0.5, 1.0])


def test_validate_rejects_too_short():
    with pytest.raises(EmptySequence):
        validate_level_sequence([0.0])
    with pytest.raises(EmptySequence):
        validate_level_sequence([])


def test_sequence_alpha_counts_interior_levels():
    assert LevelSequence([0.0, 1.0]).alpha == 0
    assert LevelSequence([0.0, 0.25, 0.5, 1.0]).alpha == 2


def test_sequence_levels_are_read_only():
    seq = LevelSequence([0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        seq.levels[1] = 0.4


def test_max_interior_ratio():
    seq = LevelSequence([0.0, 0.25, 0.5, 1.0])
    assert seq.max_interior_ratio() == 2.0
    with pytest.raises(AlphaZero):
        LevelSequence([0.0, 1.0]).max_interior_ratio()


def test_sequence_from_spec_uniform():
    seq = sequence_from_spec("uniform:3")
    assert np.allclose(seq.levels, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert sequence_from_spec("uniform:0").levels.tolist() == [0.0, 1.0]


def test_sequence_from_spec_exponential():
    seq = sequence_from_spec("exponential:2")
    assert seq.levels.tolist() == [0.0, 0.25, 0.5, 1.0]
    seq = sequence_from_spec("exponential:3")
    assert seq.levels.tolist() == [0.0, 0.125, 0.25, 0.5, 1.0]


def test_sequence_from_spec_explicit_list():
    seq = sequence_from_spec("0, 0.3, 1")
    assert np.allclose(seq.levels, [0.0, 0.3, 1.0])


def test_sequence_from_spec_rejects_negative_size():
    with pytest.raises(ValueError):
        sequence_from_spec("uniform:-1")


def test_assignment_from_layer_sizes():
    assert assignment_from_layer_sizes([2, 3]).tolist() == [0, 0, 1, 1, 1]
    with pytest.raises(ValueError):
        assignment_from_layer_sizes([-1, 2])
    with pytest.raises(ValueError):
        assignment_from_layer_sizes([0, 0])


def _two_type_family(q=2):
    return LevelFamily(
        [LevelSequence([0.0, 0.5, 1.0]), LevelSequence([0.0, 1.0])],
        np.array([0, 0, 0, 1, 1, 1]),
        q=q,
    )


def test_family_basic_attributes():
    fam = _two_type_family()
    assert fam.num_types == 2
    assert fam.dimension == 6
    assert fam.counts.tolist() == [3, 3]
    assert fam.proportions.tolist() == [0.5, 0.5]
    assert (fam.counts > 0).all()


def test_family_accepts_raw_level_lists():
    fam = LevelFamily([[0.0, 1.0]], np.zeros(4, dtype=np.int64))
    assert isinstance(fam.sequences[0], LevelSequence)


def test_family_rejects_bad_assignment():
    seqs = [LevelSequence([0.0, 1.0])]
    with pytest.raises(ValueError):
        LevelFamily(seqs, np.array([0, 1]))  # type 1 does not exist
    with pytest.raises(ValueError):
        LevelFamily(seqs, np.array([-1]))
    with pytest.raises(ValueError):
        LevelFamily(seqs, np.array([], dtype=np.int64))


def test_family_rejects_non_integer_q():
    seqs = [LevelSequence([0.0, 1.0])]
    with pytest.raises(ValueError):
        LevelFamily(seqs, np.zeros(2, dtype=np.int64), q=2.0)
    with pytest.raises(ValueError):
        LevelFamily(seqs, np.zeros(2, dtype=np.int64), q=0)


def test_family_flags_unused_types():
    fam = LevelFamily(
        [LevelSequence([0.0, 1.0]), LevelSequence([0.0, 0.5, 1.0])],
        np.zeros(4, dtype=np.int64),
    )
    assert (fam.counts == 0).tolist() == [False, True]


def test_from_layer_sizes_matches_manual_assignment():
    fam = LevelFamily(
        [LevelSequence([0.0, 0.5, 1.0]), LevelSequence([0.0, 1.0])],
        assignment_from_layer_sizes([2, 2]),
    )
    assert fam.assignment.tolist() == [0, 0, 1, 1]
    with pytest.raises(ValueError):  # two layers, one sequence
        LevelFamily([LevelSequence([0.0, 1.0])], assignment_from_layer_sizes([2, 2]))


def test_type_coordinates():
    fam = _two_type_family()
    assert fam.type_cols[0].tolist() == [0, 1, 2]
    scattered = LevelFamily(
        [LevelSequence([0.0, 1.0]), LevelSequence([0.0, 1.0])],
        np.array([0, 1, 0, 1]),
    )
    assert scattered.type_cols[0].tolist() == [0, 2]


def test_flat_levels_layout():
    # Types' levels end to end; level j at coordinate i sits at
    # coord_start[i] + j, for j below coord_size[i].
    fam = LevelFamily(
        [LevelSequence([0.0, 0.5, 1.0]), LevelSequence([0.0, 1.0]),
         LevelSequence([0.0, 0.25, 0.75, 1.0])],
        np.array([2, 0, 2, 1, 0]),
    )
    values, start, size = fam.values, fam.coord_start, fam.coord_size
    assert values.tolist() == [0.0, 0.5, 1.0, 0.0, 1.0, 0.0, 0.25, 0.75, 1.0]
    assert start.tolist() == [5, 0, 5, 3, 0]
    assert size.tolist() == [4, 3, 4, 2, 3]
    for i, m in enumerate(fam.assignment):
        levels = fam.sequences[m].levels
        assert values[start[i]: start[i] + size[i]].tolist() == levels.tolist()
    assert fam.type_start.tolist() == [0, 3, 5] and fam.type_size.tolist() == [3, 2, 4]
    arrays = (fam.assignment, fam.type_start, fam.type_size, values, start, size,
              fam.signed_values, *fam.type_cols, *fam.intervals)
    assert not any(arr.flags.writeable for arr in arrays)


def test_signed_levels_pair_each_flat_level_with_its_negative():
    # Wire index 2f + n holds (-1)^n values[f]; level 0's negative slot +0.0.
    fam = LevelFamily(
        [LevelSequence([0.0, 0.5, 1.0]), LevelSequence([0.0, 0.25, 1.0])],
        np.array([1, 0, 1]),
    )
    signed = fam.signed_values
    assert signed.tolist() == [0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 0.0, 0.0, 0.25, -0.25, 1.0, -1.0]
    assert not np.signbit(signed[signed == 0.0]).any()
    assert not signed.flags.writeable
    # The interval table's s is the positive slot of each interval's lower level.
    table = fam.intervals
    assert np.array_equal(signed[table.lower], table.lo)
    assert not (table.lower % 2).any()


def test_interval_table_edges_are_the_distinct_sorted_levels():
    # Random families whose types share some of their levels.
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 1.0, 9)[1:-1]
    for _ in range(100):
        M = int(rng.integers(1, 5))
        seqs = [
            [0.0, *np.sort(rng.choice(grid, size=int(rng.integers(0, 6)), replace=False)), 1.0]
            for _ in range(M)
        ]
        fam = LevelFamily(seqs, rng.integers(0, M, size=10))
        assert np.array_equal(fam.intervals.edges, np.unique(fam.values))


def test_fingerprint_distinguishes_structure():
    fam = _two_type_family()
    assert fam.fingerprint() == _two_type_family().fingerprint()
    assert fam.fingerprint() != _two_type_family(q=1).fingerprint()
    other = LevelFamily(
        [LevelSequence([0.0, 0.5, 1.0]), LevelSequence([0.0, 1.0])],
        np.array([0, 0, 1, 1, 1, 1]),
    )
    assert fam.fingerprint() != other.fingerprint()


def test_family_stats_frozen_example():
    # Single type {0, 1/2, 1} under the Euclidean norm: the only interior
    # ratio is 1 / 0.5 = 2, the first level is 0.5, and the branch threshold
    # is (2 / 0.5)^2 = 16.
    fam = LevelFamily([LevelSequence([0.0, 0.5, 1.0])], np.zeros(8, dtype=np.int64))
    st = family_stats(fam)
    assert st.lbar == 2.0
    assert st.lbar1 == 0.5
    assert st.d_th == 16.0


def test_family_stats_interior_free_sequence():
    fam = LevelFamily([LevelSequence([0.0, 1.0])], np.zeros(4, dtype=np.int64))
    st = family_stats(fam)
    assert st.lbar == 1.0
    assert st.lbar1 == 1.0
    assert st.d_th == 4.0


def test_variance_bound_small_dimension_branch():
    # d = 8 < d_th = 16: eps = (2-1)^2/(4*2) + (0.5^2/4) * 8 = 0.625
    fam = LevelFamily([LevelSequence([0.0, 0.5, 1.0])], np.zeros(8, dtype=np.int64))
    assert variance_bound_eps(fam, 8) == pytest.approx(0.625, rel=1e-12)


def test_variance_bound_large_dimension_branch():
    # d = 64 >= 16: eps = 0.125 + (0.5 * 8 - 1) = 3.125
    fam = LevelFamily([LevelSequence([0.0, 0.5, 1.0])], np.zeros(8, dtype=np.int64))
    assert variance_bound_eps(fam, 64) == pytest.approx(3.125, rel=1e-12)


def test_variance_bound_uses_q_in_exponent():
    fam1 = LevelFamily([LevelSequence([0.0, 0.5, 1.0])], np.zeros(8, dtype=np.int64), q=1)
    # e = 1: d_th = 4, so d = 64 takes the large branch with d^(1/1)
    assert variance_bound_eps(fam1, 64) == pytest.approx(0.125 + (0.5 * 64 - 1), rel=1e-12)


def test_variance_bound_rejects_bad_dimension():
    fam = LevelFamily([LevelSequence([0.0, 1.0])], np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        variance_bound_eps(fam, 0)


def test_variance_bound_branches_meet_near_threshold():
    # The two branches describe the same quantity; crossing d_th must not
    # produce a discontinuity large enough to flip comparisons.
    fam = LevelFamily([LevelSequence([0.0, 0.5, 1.0])], np.zeros(16, dtype=np.int64))
    below = variance_bound_eps(fam, 15)
    at = variance_bound_eps(fam, 16)
    assert at == pytest.approx((2 - 1) ** 2 / 8 + (0.5 * 4 - 1))
    assert below < at * 1.25

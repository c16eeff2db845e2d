"""Quantization level sequences, families, and closed-form variance bounds.

A level sequence is an increasing grid 0 = l_0 < l_1 < ... < l_{alpha+1} = 1
on which normalized coordinates are randomly rounded.  A level family groups
M sequences ("types") together with an assignment of vector coordinates to
types and the norm order q used for normalization.

The variance of the rounding scheme admits a closed-form upper bound driven
by two scalars of the family: the largest interior ratio l_{j+1}/l_j and the
largest first level l_1 across types.
"""

import hashlib
from typing import NamedTuple

import numpy as np


class NotSorted(ValueError):
    """Levels are not strictly increasing."""


class BadEndpoints(ValueError):
    """Level sequence does not start at 0 and end at 1."""


class EmptySequence(ValueError):
    """Level sequence has fewer than the two required endpoint levels."""


class AlphaZero(ValueError):
    """Interior ratio requested for a sequence without interior levels."""


def validate_level_sequence(levels):
    """Check the level-grid invariants, raising on the first violation.

    ``levels`` may be a LevelSequence or any iterable of reals.  Returns the
    validated levels as a float array.
    """
    if isinstance(levels, LevelSequence):
        arr = levels.levels
    else:
        arr = np.asarray(list(levels), dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise EmptySequence("need at least the two endpoint levels 0 and 1")
    if arr[0] != 0.0 or arr[-1] != 1.0:
        raise BadEndpoints(f"levels must run from 0 to 1 exactly, got [{arr[0]}, {arr[-1]}]")
    if not np.all(np.diff(arr) > 0):
        raise NotSorted("levels must be strictly increasing")
    return arr


class LevelSequence:
    """An increasing grid of quantization levels on [0, 1].

    ``alpha`` counts the interior levels (everything strictly between the
    mandatory endpoints 0 and 1).
    """

    __slots__ = ("levels",)

    def __init__(self, levels):
        self.levels = validate_level_sequence(levels)
        self.levels.setflags(write=False)

    @property
    def alpha(self):
        return len(self.levels) - 2

    def __len__(self):
        return len(self.levels)

    def __eq__(self, other):
        if not isinstance(other, LevelSequence):
            return NotImplemented
        return np.array_equal(self.levels, other.levels)

    def __repr__(self):
        return f"LevelSequence({list(self.levels)})"

    def max_interior_ratio(self):
        """Largest ratio l_{j+1}/l_j over interior j >= 1.

        Raises AlphaZero when there are no interior levels; the family-level
        statistics treat such a sequence as contributing ratio 1.
        """
        if self.alpha == 0:
            raise AlphaZero("sequence {0, 1} has no interior ratio")
        ell = self.levels
        return float(np.max(ell[2:] / ell[1:-1]))


def sequence_from_spec(spec):
    """Build a LevelSequence from a config string.

    Accepted forms:

    - explicit comma-separated levels, e.g. ``"0, 0.25, 1"``
    - ``"uniform:s"``: s equally spaced interior levels j/(s+1)
    - ``"exponential:s"``: s interior levels 2^-s, ..., 2^-1
    """
    spec = spec.strip()
    if spec.startswith("uniform:"):
        s = int(spec.split(":", 1)[1])
        if s < 0:
            raise ValueError("uniform:s needs s >= 0")
        interior = [(j + 1) / (s + 1) for j in range(s)]
        return LevelSequence([0.0] + interior + [1.0])
    if spec.startswith("exponential:"):
        s = int(spec.split(":", 1)[1])
        if s < 0:
            raise ValueError("exponential:s needs s >= 0")
        interior = [2.0 ** -(s - j) for j in range(s)]
        return LevelSequence([0.0] + interior + [1.0])
    return LevelSequence([float(tok) for tok in spec.split(",")])


def assignment_from_layer_sizes(sizes):
    """Expand a list of contiguous block sizes into a coordinate->type map."""
    sizes = [int(s) for s in sizes]
    if any(s < 0 for s in sizes) or sum(sizes) < 1:
        raise ValueError("layer sizes must be non-negative with positive total")
    return np.repeat(np.arange(len(sizes)), sizes)


class LevelFamily:
    """M level sequences plus a coordinate-to-type assignment and norm order.

    Parameters
    ----------
    sequences : list of LevelSequence (or raw level lists)
    assignment : integer array of length d mapping coordinate -> type index
    q : positive integer norm order used for normalization (default 2)
    """

    def __init__(self, sequences, assignment, q=2):
        self.sequences = [
            s if isinstance(s, LevelSequence) else LevelSequence(s) for s in sequences
        ]
        if len(self.sequences) < 1:
            raise EmptySequence("a family needs at least one level sequence")
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.ndim != 1 or assignment.size < 1:
            raise ValueError("assignment must be a 1-d array with at least one coordinate")
        if assignment.min() < 0 or assignment.max() >= len(self.sequences):
            raise ValueError("assignment references a type index outside the family")
        if not (isinstance(q, (int, np.integer)) and q >= 1):
            raise ValueError(f"norm order q must be a positive integer, got {q!r}")
        self.assignment = assignment
        self.assignment.setflags(write=False)
        self.q = int(q)
        counts = np.bincount(assignment, minlength=len(self.sequences))
        self.counts = counts
        self.proportions = counts / assignment.size
        self._fingerprint = None
        self._type_cols = None
        self._flat = None
        self._interval_table = None

    @property
    def num_types(self):
        return len(self.sequences)

    @property
    def dimension(self):
        return self.assignment.size

    def type_coordinates(self, m):
        """Indices of the coordinates assigned to type m."""
        if self._type_cols is None:
            self._type_cols = [
                np.nonzero(self.assignment == k)[0] for k in range(self.num_types)
            ]
        return self._type_cols[m]

    def level_starts(self):
        """(starts, sizes): flat index of each type's level 0, and its level count."""
        sizes = np.array([len(s) for s in self.sequences])
        return np.cumsum(sizes) - sizes, sizes

    def flat_levels(self):
        """(values, coord_start, coord_size): one flat index for all (type, level) pairs.

        ``values`` lists the levels of types 0 .. M-1 end to end.  Level j at
        coordinate i has flat index ``coord_start[i] + j``, for 0 <= j <
        ``coord_size[i]``.  Value, codeword and wire-bit tables share this
        order, so mapping level indices to any of them is one gather.
        """
        if self._flat is None:
            starts, sizes = self.level_starts()
            values = np.concatenate([s.levels for s in self.sequences])
            flat = (values, starts[self.assignment], sizes[self.assignment])
            for arr in flat:
                arr.setflags(write=False)
            self._flat = flat
        return self._flat

    def interval_table(self):
        """(edges, offsets, tau, lo, hi, width, first, bucket_edges): every type's intervals.

        ``edges`` is the sorted union of every type's levels.  For a
        normalized magnitude u in [0, 1] at coordinate i, the entry
        k = offsets[i] + searchsorted(edges, u, side="right") gives the
        interval index ``tau[k]`` of u in its type's sequence and the
        bracketing levels ``lo[k]`` <= u < ``hi[k]``; u = 1 falls in the last
        interval.  ``width[k]`` is ``hi[k] - lo[k]``, bit for bit.  Every
        level of a type is an edge, so the levels of type m that are <= u
        are exactly those <= the largest edge <= u: the lookup makes the
        same comparisons as a per-type ``searchsorted``.

        A bucket index gives the same count without a search.  With B + 1 =
        ``first.size`` (B a power of two, so u * B is exact), u lies in
        bucket j = floor(u * B), above the ``first[j]`` edges below j / B;
        column j of ``bucket_edges`` lists the edges in [j / B, (j + 1) / B),
        padded with 2, and those <= u complete the count.  B is the least
        power of two with 1 / B at most the smallest gap between edges, so
        that a bucket holds at most one edge, but no more than 4096: a family
        with levels closer than 1/4096 pays one comparison per edge in its
        most crowded bucket.
        """
        if self._interval_table is None:
            values = self.flat_levels()[0]
            # The sorted distinct levels.  np.unique gives the same array
            # for finite levels, but it imports numpy.ma on first use.
            edges = np.sort(values)
            edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
            width = edges.size + 1
            tau = np.zeros((self.num_types, width), dtype=np.int32)
            for m, s in enumerate(self.sequences):
                below = np.searchsorted(s.levels, edges, side="right")
                # Entry 0 (u below every edge) cannot occur for u >= 0.
                tau[m, 1:] = np.minimum(below - 1, s.alpha)
            flat = (self.level_starts()[0][:, None] + tau).ravel()
            lo, hi = values[flat], values[flat + 1]
            offsets = self.assignment * width
            buckets = 1 << min(12, int(np.ceil(-np.log2(np.diff(edges).min()))))
            bucket = (edges * buckets).astype(np.int64)
            first = np.searchsorted(edges, np.arange(buckets + 1) / buckets)
            rank = np.arange(edges.size) - first[bucket]
            bucket_edges = np.full((rank.max() + 1, buckets + 1), 2.0)
            bucket_edges[rank, bucket] = edges
            table = (edges, offsets, tau.ravel(), lo, hi, hi - lo, first, bucket_edges)
            for arr in table:
                arr.setflags(write=False)
            self._interval_table = table
        return self._interval_table

    def fingerprint(self):
        """Stable identifier of (sequences, assignment, q) for cross-checking."""
        if self._fingerprint is None:
            h = hashlib.sha1()
            h.update(str(self.q).encode())
            for seq in self.sequences:
                h.update(seq.levels.tobytes())
                h.update(b"|")
            h.update(self.assignment.tobytes())
            self._fingerprint = h.hexdigest()[:16]
        return self._fingerprint

    def __repr__(self):
        return (
            f"LevelFamily(M={self.num_types}, d={self.dimension}, q={self.q}, "
            f"alphas={[s.alpha for s in self.sequences]})"
        )


class BoundStats(NamedTuple):
    """Scalar statistics of a family that drive the variance bound."""

    lbar: float
    lbar1: float
    d_th: float


def family_stats(family):
    """Compute (lbar, lbar1, d_th) for a family.

    lbar is the largest interior-level ratio across types; a type without
    interior levels contributes ratio 1.  lbar1 is the largest first level,
    which for an interior-free sequence {0, 1} is the endpoint 1.  The
    threshold dimension separating the two branches of the variance bound is
    d_th = (2 / lbar1)^min(2, q).
    """
    lbar = max(seq.max_interior_ratio() if seq.alpha else 1.0 for seq in family.sequences)
    lbar1 = max(float(seq.levels[1]) for seq in family.sequences)
    d_th = (2.0 / lbar1) ** min(2, family.q)
    return BoundStats(lbar, lbar1, d_th)


def variance_bound_eps(family, d):
    """Closed-form upper bound on the normalized quantization variance.

    For a vector of dimension d quantized under the family, the variance of
    the unbiased rounding is at most ``eps_q * ||v||_2^2`` with

        eps_q = (lbar - 1)^2 / (4 lbar)
                + (lbar1 * d^(1/e) - 1)        if d >= d_th
                + (lbar1^2 / 4) * d^(2/e)      if d <  d_th

    where e = min(q, 2).
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    stats = family_stats(family)
    e = min(2, family.q)
    eps = (stats.lbar - 1.0) ** 2 / (4.0 * stats.lbar)
    if d >= stats.d_th:
        eps += stats.lbar1 * d ** (1.0 / e) - 1.0
    else:
        eps += (stats.lbar1 ** 2 / 4.0) * d ** (2.0 / e)
    return eps

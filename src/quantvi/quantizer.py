"""Unbiased stochastic quantization of real vectors against a level family.

A batch of vectors is represented by their q-norms and one wire index per
coordinate, s = 2 (coord_start[i] + j) + (v_i < 0) for level j: the index of
its wire string in the codec and of its value in
``LevelFamily.signed_values``.  Each normalized magnitude u_i = |v_i| /
||v||_q falls in some level interval [l_tau, l_tau+1) of its type's sequence
and is rounded up with probability equal to its relative position xi in that
interval, down otherwise.  Rounding up exactly compensates rounding down, so
reconstruction is unbiased coordinate-wise.  A ``QuantizedVector`` holds
signs and level indices in place of s, converted at the library boundary.

The wire norm is rounded to 32-bit float at quantization time so that a
quantize -> encode -> decode roundtrip reproduces the QuantizedVector
bit-for-bit.
"""

import numpy as np


class OutOfRange(ValueError):
    """Normalized coordinate outside [0, 1] beyond tolerance."""


class DimensionMismatch(ValueError):
    """Vector dimension does not match the family assignment."""


class NonFinite(ValueError):
    """Input vector contains NaN or infinity, or its norm overflows."""


class IndexOutOfRange(ValueError):
    """Level index outside the valid range of its type's sequence."""


_CLAMP_TOL = 1e-12
# float32 rounds every value from 2^128 - 2^103 up to infinity; it keeps
# every value from its least subnormal 2^-149 on nonzero.
_F32_HUGE = 2.0**128 - 2.0**103
_F32_TINY = 2.0**-149


class QuantizedVector:
    """Compact representation (norm, signs, level indices) of a vector.

    ``signs`` stores +1 for every coordinate at level 0, whatever sign it is
    given: its value is 0 either way, and no wire string carries the sign.
    ``from_wire`` and ``wire_indices`` convert from and to one row of
    ``quantize_batch``'s wire indices.
    """

    __slots__ = ("norm", "signs", "level_idx", "family_id")

    def __init__(self, norm, signs, level_idx, family_id):
        self.norm = float(norm)
        self.level_idx = np.asarray(level_idx, dtype=np.int32)
        self.signs = np.where(self.level_idx == 0, 1, signs).astype(np.int8)
        self.family_id = family_id

    @classmethod
    def from_wire(cls, norm, s, coord_start, family_id):
        return cls(norm, 1 - 2 * (s & 1), (s >> 1) - coord_start, family_id)

    def wire_indices(self, coord_start):
        if self.dimension != coord_start.size:
            raise DimensionMismatch(f"dimension {self.dimension}, not {coord_start.size}")
        return 2 * (coord_start + self.level_idx) + (self.signs < 0)

    @property
    def dimension(self):
        return self.level_idx.size

    def __eq__(self, other):
        if not isinstance(other, QuantizedVector):
            return NotImplemented
        return (
            self.norm == other.norm
            and self.family_id == other.family_id
            and np.array_equal(self.level_idx, other.level_idx)
            and np.array_equal(self.signs, other.signs)
        )

    def __repr__(self):
        return (
            f"QuantizedVector(norm={self.norm}, d={self.dimension}, "
            f"family_id={self.family_id!r})"
        )


def _normalized_magnitudes(V, family):
    """(norms, U, regular): q-norms and normalized magnitudes, clamped to 1, of row vectors.

    ``regular`` says that every norm is finite and nonzero, and stays
    nonzero and finite in float32.  One Python-level pass over the n norms
    decides it; only when it is False are zero rows fixed up and V scanned:
    a NaN or infinite entry makes its row's norm non-finite, so a finite V
    whose norm overflows passes.
    """
    if family.q == 2:
        norms = np.sqrt(np.einsum("ij,ij->i", V, V))
    else:
        norms = np.linalg.norm(V, ord=family.q, axis=1)
    regular = all(_F32_TINY <= x < _F32_HUGE for x in norms.tolist())
    if not regular and not np.isfinite(norms).all() and not np.isfinite(V).all():
        raise NonFinite("input vector contains NaN or infinity")
    U = np.abs(V)
    if regular:
        U /= norms[:, None]
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            U /= norms[:, None]
        U[norms == 0.0, :] = 0.0
    top = np.maximum.reduce(U, axis=None, initial=0.0)
    if top > 1.0 + _CLAMP_TOL:
        raise OutOfRange("normalized coordinate exceeds 1 beyond rounding tolerance")
    if top > 1.0:
        np.minimum(U, 1.0, out=U)  # |v_i| / ||v||_q is never negative
    return norms, U, regular


def _check_batch(V, family):
    V = np.atleast_2d(np.asarray(V, dtype=np.float64))
    if V.shape[1] != family.dimension:
        raise DimensionMismatch(
            f"vector dimension {V.shape[1]} != family dimension {family.dimension}"
        )
    return V


def _entries(U, family):
    """Each magnitude's entry k in ``family.intervals``: its level interval.

    The table's lo[k] and hi[k] bracket u, lo <= u < hi elementwise, except
    u = 1, which falls in its type's last interval (hi = 1).
    """
    table = family.intervals
    bucket = (U * (table.first.size - 1)).astype(np.intp)
    k = table.first.take(bucket)
    for row in table.bucket_edges:
        k += row.take(bucket) <= U
    k += table.offsets
    return k


def quantize_batch(V, family, rng=None, uniforms=None):
    """Quantize a batch of row vectors in one vectorized pass.

    Returns plain arrays (norms, s) with shapes (n,) and (n, d): float64
    norms rounded to 32-bit floats, matching the wire format, and int64 wire
    indices; a coordinate at level 0 keeps its sign bit, as both of level 0's
    slots hold +0.0 and one wire string.  ``uniforms`` may supply pre-drawn
    U(0,1) variates of shape (n, d) for callers that manage their own random
    streams (one per node, say); otherwise they are drawn from ``rng``.  One
    of the two must be given.

    The n norms are checked once, in Python: the zero-row fix-ups and the
    scans for NaN, infinity and float32 overflow run only when some norm is
    zero, not finite or outside float32's range.  Each magnitude's interval
    and its lower level's s come from ``LevelFamily.intervals``, and
    its rounding probability is computed in the magnitudes' own array.
    """
    if rng is None and uniforms is None:
        raise ValueError("quantizing needs rng or uniforms; both are None")
    V = _check_batch(V, family)
    n, d = V.shape
    norms64, U, regular = _normalized_magnitudes(V, family)
    if not regular and not (norms64 < _F32_HUGE).all():
        raise NonFinite("vector norm overflows the 32-bit wire format")
    norms = norms64.astype(np.float32).astype(np.float64)
    if uniforms is None:
        uniforms = rng.random((n, d))
    else:
        uniforms = np.asarray(uniforms, dtype=np.float64)
        if uniforms.shape != (n, d):
            raise DimensionMismatch("uniforms must have one variate per coordinate")
    # A norm that underflows float32 degrades to the zero representation.
    if not regular:
        U[norms == 0.0, :] = 0.0

    # Round up with probability (u - lo) / (hi - lo), computed in U's place;
    # one level up is two wire indices up.
    table = family.intervals
    k = _entries(U, family)
    U -= table.lo.take(k)
    U /= table.width.take(k)
    s = table.lower.take(k)
    up = uniforms < U
    s += up
    s += up
    s += V < 0
    return norms, s


def quantize_vector(v, family, rng=None, uniforms=None):
    """Quantize a single vector, returning a QuantizedVector (see quantize_batch)."""
    if uniforms is not None:
        uniforms = np.asarray(uniforms, dtype=np.float64).reshape(1, -1)
    V = np.asarray(v, dtype=np.float64).reshape(1, -1)
    norms, s = quantize_batch(V, family, rng, uniforms)
    return QuantizedVector.from_wire(norms[0], s[0], family.coord_start, family.fingerprint())


def dequantize_batch(norms, s, family):
    """Reconstruct a batch of vectors from quantize_batch output; s is range-checked."""
    s = np.atleast_2d(s)
    if s.shape[1] != family.dimension:
        raise DimensionMismatch(f"dimension {s.shape[1]}, not {family.dimension}")
    level_idx = (s >> 1) - family.coord_start
    if level_idx.min() < 0 or (family.coord_size - level_idx).min() <= 0:
        raise IndexOutOfRange("level index outside its type's sequence")
    return np.asarray(norms, dtype=np.float64)[:, None] * family.signed_values.take(s)


def dequantize(qv, family):
    """Reconstruct the real vector represented by a QuantizedVector."""
    if qv.family_id is not None and qv.family_id != family.fingerprint():
        raise ValueError("QuantizedVector was produced under a different family")
    return dequantize_batch([qv.norm], qv.wire_indices(family.coord_start), family)[0]


def exact_quantization_variance(v, family):
    """Closed-form variance of the stochastic rounding for one vector.

    Equals ||v||_q^2 times the sum over coordinates of
    (l_tau+1 - u_i)(u_i - l_tau), the Bernoulli variance of each rounding.
    """
    V = _check_batch(v, family)
    if V.shape[0] != 1:
        raise DimensionMismatch("expected a single vector")
    norms, U, _ = _normalized_magnitudes(V, family)
    if norms[0] == 0.0:
        return 0.0
    k = _entries(U, family)
    table = family.intervals
    return float(norms[0] ** 2 * np.sum((table.hi[k] - U) * (U - table.lo[k])))

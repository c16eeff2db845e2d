"""Unbiased stochastic quantization of real vectors against a level family.

A vector v is represented by its q-norm, per-coordinate signs, and a
per-coordinate level index.  Each normalized magnitude u_i = |v_i| / ||v||_q
falls in some level interval [l_tau, l_tau+1) of its type's sequence and is
rounded up with probability equal to its relative position xi in that
interval, down otherwise.  Rounding up exactly compensates rounding down, so
reconstruction is unbiased coordinate-wise.

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

    ``signs`` stores +1 for coordinates with |v_i| = 0; it is never read for
    those coordinates because their level index is 0 with probability 1.
    """

    __slots__ = ("norm", "signs", "level_idx", "family_id")

    def __init__(self, norm, signs, level_idx, family_id):
        self.norm = float(norm)
        self.signs = np.asarray(signs, dtype=np.int8)
        self.level_idx = np.asarray(level_idx, dtype=np.int32)
        self.family_id = family_id

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
    """Each magnitude's entry k in ``family.interval_table()``: its level interval.

    The table's tau[k], lo[k] and hi[k] give the interval and its bracketing
    levels, lo <= u < hi elementwise, except u = 1, which falls in its
    type's last interval (hi = 1).
    """
    table = family.interval_table()
    offsets, first, bucket_edges = table[1], table[-2], table[-1]
    bucket = (U * (first.size - 1)).astype(np.intp)
    k = first.take(bucket)
    for row in bucket_edges:
        k += row.take(bucket) <= U
    k += offsets
    return k


def quantize_batch(V, family, rng=None, uniforms=None):
    """Quantize a batch of row vectors in one vectorized pass.

    Returns plain arrays (norms, signs, level_idx) with shapes (n,), (n, d),
    (n, d) and dtypes float64, int8, int32.  Norms are rounded to 32-bit
    floats, matching the wire format.  ``uniforms`` may supply pre-drawn
    U(0,1) variates of shape (n, d) for callers that manage their own random
    streams (one per node, say); otherwise they are drawn from ``rng``.  One
    of the two must be given.

    The n norms are checked once, in Python: the zero-row fix-ups and the
    scans for NaN, infinity and float32 overflow run only when some norm is
    zero, not finite or outside float32's range.  Each magnitude's interval
    comes from ``LevelFamily.interval_table`` by a bucket index, and its
    rounding probability is computed in the magnitudes' own array.
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

    # Round up with probability (u - lo) / (hi - lo), computed in U's place.
    _, _, tau, lo, _, width, _, _ = family.interval_table()
    k = _entries(U, family)
    U -= lo.take(k)
    U /= width.take(k)
    idx = tau.take(k)
    idx += uniforms < U

    # A norm that underflows float32 degrades to the zero representation.
    if not regular:
        idx[norms == 0.0, :] = 0
    # Coordinates rounded to level 0 carry no sign on the wire; they get +1
    # so that decode(encode(q)) reproduces q exactly.
    negative = V < 0
    negative &= idx != 0
    signs = negative.view(np.int8)
    signs *= -2
    signs += 1
    return norms, signs, idx


def quantize_vector(v, family, rng=None, uniforms=None):
    """Quantize a single vector, returning a QuantizedVector (see quantize_batch)."""
    if uniforms is not None:
        uniforms = np.asarray(uniforms, dtype=np.float64).reshape(1, -1)
    norms, signs, idx = quantize_batch(
        np.asarray(v, dtype=np.float64).reshape(1, -1), family, rng, uniforms
    )
    return QuantizedVector(norms[0], signs[0], idx[0], family.fingerprint())


def reconstruct_flat(norms, signs, flat, values):
    """``dequantize_batch`` at flat indices into ``flat_levels`` values, unchecked."""
    return norms[:, None] * signs * values.take(flat)


def dequantize_batch(norms, signs, level_idx, family):
    """Reconstruct a batch of vectors from quantize_batch output."""
    level_idx = np.atleast_2d(level_idx)
    values, coord_start, coord_size = family.flat_levels()
    if level_idx.min() < 0 or (coord_size - level_idx).min() <= 0:
        raise IndexOutOfRange("level index outside its type's sequence")
    norms = np.asarray(norms, dtype=np.float64)
    return reconstruct_flat(norms, signs, level_idx + coord_start, values)


def dequantize(qv, family):
    """Reconstruct the real vector represented by a QuantizedVector."""
    if qv.family_id is not None and qv.family_id != family.fingerprint():
        raise ValueError("QuantizedVector was produced under a different family")
    if qv.dimension != family.dimension:
        raise DimensionMismatch(
            f"quantized dimension {qv.dimension} != family dimension {family.dimension}"
        )
    return dequantize_batch([qv.norm], qv.signs[None, :], qv.level_idx[None, :], family)[0]


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
    lo, hi = family.interval_table()[3:5]
    return float(norms[0] ** 2 * np.sum((hi[k] - U) * (U - lo[k])))

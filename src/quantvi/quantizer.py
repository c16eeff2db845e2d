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

    @classmethod
    def _wrap(cls, norm, signs, level_idx, family_id):
        # Internal: skip the dtype conversions when the fields are already
        # exactly right (hot paths construct thousands of these).
        self = object.__new__(cls)
        self.norm = norm
        self.signs = signs
        self.level_idx = level_idx
        self.family_id = family_id
        return self

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


def locate_level(u, seq):
    """Return (tau, xi): the interval index of u and its relative position.

    l_tau <= u < l_tau+1 with xi = (u - l_tau) / (l_tau+1 - l_tau); the top
    endpoint u = 1 maps to (alpha, 1).  Values within 1e-12 outside [0, 1]
    are clamped; anything further out raises OutOfRange.
    """
    if u < -_CLAMP_TOL or u > 1.0 + _CLAMP_TOL:
        raise OutOfRange(f"normalized coordinate {u} outside [0, 1]")
    u = min(max(float(u), 0.0), 1.0)
    ell = seq.levels
    tau = int(np.searchsorted(ell, u, side="right")) - 1
    if tau == len(ell) - 1:  # u == 1.0
        tau -= 1
    xi = (u - ell[tau]) / (ell[tau + 1] - ell[tau])
    return tau, float(xi)


def _normalized_magnitudes(V, family):
    """q-norms and clamped normalized magnitudes for a batch of row vectors."""
    if family.q == 2:
        norms = np.sqrt(np.einsum("ij,ij->i", V, V))
    else:
        norms = np.linalg.norm(V, ord=family.q, axis=1)
    U = np.abs(V)
    with np.errstate(divide="ignore", invalid="ignore"):
        U /= norms[:, None]
    if not norms.all():
        U[norms == 0.0, :] = 0.0
    if U.max() > 1.0 + _CLAMP_TOL:
        raise OutOfRange("normalized coordinate exceeds 1 beyond rounding tolerance")
    np.minimum(U, 1.0, out=U)  # |v_i| / ||v||_q is never negative
    return norms, U


def _check_batch(V, family):
    V = np.atleast_2d(np.asarray(V, dtype=np.float64))
    if V.shape[1] != family.dimension:
        raise DimensionMismatch(
            f"vector dimension {V.shape[1]} != family dimension {family.dimension}"
        )
    if not np.isfinite(V).all():
        raise NonFinite("input vector contains NaN or infinity")
    return V


def _intervals(U, family):
    """(tau, lo, hi): each magnitude's level interval and its bracketing levels.

    lo <= u < hi elementwise, except u = 1, which falls in its type's last
    interval (hi = 1).
    """
    edges, offsets, tau, lo, hi = family.interval_table()
    k = np.searchsorted(edges, U.ravel(), side="right").reshape(U.shape)
    k += offsets
    return tau[k], lo[k], hi[k]


def quantize_batch(V, family, rng=None, uniforms=None):
    """Quantize a batch of row vectors in one vectorized pass.

    Returns plain arrays (norms, signs, level_idx) with shapes (n,), (n, d),
    (n, d).  Norms are rounded to 32-bit floats, matching the wire format.
    ``uniforms`` may supply pre-drawn U(0,1) variates of shape (n, d) for
    callers that manage their own random streams (one per node, say);
    otherwise they are drawn from ``rng``.
    """
    V = _check_batch(V, family)
    n, d = V.shape
    norms64, U = _normalized_magnitudes(V, family)
    # float32 rounds every value from 2^128 - 2^103 up to infinity.
    if not (norms64 < 2.0**128 - 2.0**103).all():
        raise NonFinite("vector norm overflows the 32-bit wire format")
    norms = norms64.astype(np.float32).astype(np.float64)
    if uniforms is None:
        uniforms = rng.random((n, d))
    else:
        uniforms = np.asarray(uniforms, dtype=np.float64)
        if uniforms.shape != (n, d):
            raise DimensionMismatch("uniforms must have one variate per coordinate")

    tau, lo, hi = _intervals(U, family)
    idx = tau + (uniforms < (U - lo) / (hi - lo))

    # A norm that underflows float32 degrades to the zero representation.
    if not norms.all():
        idx[norms == 0.0, :] = 0
    signs = np.where(V < 0, -1, 1).astype(np.int8)
    # Coordinates rounded to level 0 carry no sign on the wire; normalize
    # them to +1 so decode(encode(q)) reproduces q exactly.
    signs[idx == 0] = 1
    return norms, signs, idx


def quantize_vector(v, family, rng=None, uniforms=None):
    """Quantize a single vector, returning a QuantizedVector."""
    if uniforms is not None:
        uniforms = np.asarray(uniforms, dtype=np.float64).reshape(1, -1)
    norms, signs, idx = quantize_batch(
        np.asarray(v, dtype=np.float64).reshape(1, -1), family, rng, uniforms
    )
    return QuantizedVector(norms[0], signs[0], idx[0], family.fingerprint())


def _level_values(level_idx, family):
    """Map per-coordinate level indices to level values, checking ranges."""
    level_idx = np.atleast_2d(level_idx)
    table, sizes = family.level_value_table()
    assign = family.assignment
    if level_idx.min() < 0 or (sizes[assign] - level_idx).min() <= 0:
        raise IndexOutOfRange("level index outside its type's sequence")
    return table[assign, level_idx]


def dequantize_batch(norms, signs, level_idx, family):
    """Reconstruct a batch of vectors from quantize_batch output."""
    values = _level_values(level_idx, family)
    return np.asarray(norms, dtype=np.float64)[:, None] * signs * values


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
    norms, U = _normalized_magnitudes(V, family)
    if norms[0] == 0.0:
        return 0.0
    _, lo, hi = _intervals(U, family)
    return float(norms[0] ** 2 * np.sum((hi - U) * (U - lo)))

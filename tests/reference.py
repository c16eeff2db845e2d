"""References that tests check the vectorized and blocked program against.

Not a test module: pytest collects only ``test_*.py``, and test modules
import this one by name from the ``tests`` directory.
"""

import math
import struct
from bisect import bisect_right

import numpy as np

from quantvi.codec import InvalidCodeword, TrailingBits, TruncatedMessage
from quantvi.quantizer import DimensionMismatch, NonFinite, OutOfRange
from quantvi.solver import GeneralRates

_CLAMP_TOL = 1e-12


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


def factored_skew_split(rng, B, K, r, norm):
    """A skew node split (K, d, d) built with whole-matrix operations.

    Draws each node's d x 2r factors [U W] from ``rng``, forms the d x d
    delta U W^T - W U^T, scales it to spectral norm ``norm`` by its SVD
    norm, centres the K deltas with one mean over nodes and adds B:
    ``vi.make_problem``'s split without the thin QR and the 2r x 2r core.
    """
    node_B = np.empty((K, B.shape[0], B.shape[0]))
    for G, F in zip(node_B, rng.standard_normal((K, B.shape[0], 2 * r))):
        U, W = F[:, :r], F[:, r:]
        G[:] = U @ W.T - W @ U.T
        G *= norm / np.linalg.norm(G, 2)
    node_B -= node_B.mean(axis=0)
    node_B += B
    return node_B


def quantize_batch(V, family, rng=None, uniforms=None):
    """(norms, signs, level_idx): ``quantizer.quantize_batch`` before its passes were trimmed.

    Scans V for non-finite values up front, clamps every magnitude, finds
    each magnitude's interval by ``np.searchsorted`` in its type's levels,
    coordinate by coordinate, and builds the signs through an int64
    ``np.where``, +1 at level 0.
    """
    if rng is None and uniforms is None:
        raise ValueError("quantizing needs rng or uniforms; both are None")
    V = np.atleast_2d(np.asarray(V, dtype=np.float64))
    if V.shape[1] != family.dimension:
        raise DimensionMismatch(
            f"vector dimension {V.shape[1]} != family dimension {family.dimension}"
        )
    if not np.isfinite(V).all():
        raise NonFinite("input vector contains NaN or infinity")
    n, d = V.shape
    if family.q == 2:
        norms64 = np.sqrt(np.einsum("ij,ij->i", V, V))
    else:
        norms64 = np.linalg.norm(V, ord=family.q, axis=1)
    U = np.abs(V)
    with np.errstate(divide="ignore", invalid="ignore"):
        U /= norms64[:, None]
    if not norms64.all():
        U[norms64 == 0.0, :] = 0.0
    if U.max() > 1.0 + _CLAMP_TOL:
        raise OutOfRange("normalized coordinate exceeds 1 beyond rounding tolerance")
    np.minimum(U, 1.0, out=U)
    if not (norms64 < 2.0**128 - 2.0**103).all():
        raise NonFinite("vector norm overflows the 32-bit wire format")
    norms = norms64.astype(np.float32).astype(np.float64)
    if uniforms is None:
        uniforms = rng.random((n, d))
    else:
        uniforms = np.asarray(uniforms, dtype=np.float64)
        if uniforms.shape != (n, d):
            raise DimensionMismatch("uniforms must have one variate per coordinate")
    idx = np.empty((n, d), dtype=np.int32)
    for i, m in enumerate(family.assignment.tolist()):
        ell = family.sequences[m].levels
        # u = 1 falls in the last interval.
        tau = np.minimum(np.searchsorted(ell, U[:, i], side="right") - 1, ell.size - 2)
        lo, hi = ell[tau], ell[tau + 1]
        idx[:, i] = tau + (uniforms[:, i] < (U[:, i] - lo) / (hi - lo))
    if not norms.all():
        idx[norms == 0.0, :] = 0
    signs = np.where(V < 0, -1, 1).astype(np.int8)
    signs[idx == 0] = 1
    return norms, signs, idx


def signed_indices(signs, level_idx, coord_start):
    """Wire index rows 2 (coord_start + level_idx) + (signs < 0) of (signs, level_idx) rows."""
    return 2 * (np.asarray(level_idx, dtype=np.int64) + coord_start) + (np.asarray(signs) < 0)


def level_indices(s, coord_start):
    """(signs, level_idx) rows of wire index rows s, int8 and int32; level 0 gets sign +1."""
    level_idx = (s >> 1) - coord_start
    signs = np.where(level_idx == 0, 1, np.where(s % 2 == 1, -1, 1))
    return signs.astype(np.int8), level_idx.astype(np.int32)


def _wire_strings(books):
    """Each flat index's (plus, minus) wire strings as strings of "0" and "1"."""
    # A flat index carries a sign bit when its wire string outgrows its codeword.
    signed = (books._string_bits[::2] - [length for length, _ in books.words]).tolist()
    words = [format(code, f"0{length}b") for length, code in books.words]
    return [(w + "0" * g, w + "1" * g) for w, g in zip(words, signed)]


def encode_batch(norms, signs, level_idx, books):
    """Messages as (bytes, nbits), built as strings of "0" and "1" row by row."""
    flat = np.asarray(level_idx) + books._coord_start
    strings = _wire_strings(books)
    out = []
    for norm, row, sgn in zip(np.asarray(norms).tolist(), flat.tolist(),
                              np.asarray(signs).tolist()):
        if norm == 0.0:
            out.append((bytes(4), 32))
            continue
        header = struct.unpack(">I", struct.pack(">f", norm))[0]
        bits = format(header, "032b") + "".join(
            strings[f][s < 0] for f, s in zip(row, sgn))
        pad = -len(bits) % 8
        out.append((int(bits + "0" * pad, 2).to_bytes((len(bits) + pad) // 8, "big"),
                    len(bits)))
    return out


def decode_message(data, books):
    """Decode one message coordinate by coordinate: (norm, level index list, sign list).

    Each scope's wire strings, zero-padded to its longest, are sorted; the
    only string that can begin a window of the stream is the last one whose
    padded string is <= the window, found by bisection.
    """
    strings = _wire_strings(books)
    scopes = []
    tab = books._strings
    for sc in range(tab.scope.max() + 1):
        span = sorted(set((tab.s[tab.scope == sc] >> 1).tolist()))
        table = {strings[f][1]: (f, -1) for f in span} | {strings[f][0]: (f, 1) for f in span}
        width = max(map(len, table))
        rows = sorted((w.ljust(width, "0"), w, f, g) for w, (f, g) in table.items())
        scopes.append((span, width, [r[0] for r in rows], [r[1:] for r in rows]))
    coord = []
    for start, size in zip(books._coord_start.tolist(), books._coord_size.tolist()):
        span, width, padded, entries = next(sc for sc in scopes if start in sc[0])
        coord.append((width, padded, entries, start, start + size))
    d = len(coord)
    total_bits = len(data) * 8
    if total_bits < 32:
        raise TruncatedMessage("message shorter than the 32-bit norm header")
    norm = struct.unpack(">f", data[:4])[0]
    if not math.isfinite(norm) or norm < 0:
        raise InvalidCodeword(f"norm header decodes to {norm}")
    if norm == 0.0:
        if total_bits != 32:
            raise TrailingBits("zero-norm message carries payload bits")
        return norm, [0] * d, [1] * d
    bits = (format(int.from_bytes(data, "big"), f"0{total_bits}b")
            + "0" * max(sc[1] for sc in scopes))
    pos = 32
    idx = [0] * d
    signs = [1] * d
    for i, (width, padded, entries, lo, hi) in enumerate(coord):
        if pos >= total_bits:
            raise TruncatedMessage("bit stream ended inside a wire string")
        # A window below every string picks entry -1; the stream cannot
        # start with that last, largest string then, so it is rejected.
        word, sym, sign = entries[bisect_right(padded, bits[pos:pos + width]) - 1]
        if not bits.startswith(word, pos):
            raise InvalidCodeword(f"no codeword matches bits at offset {pos}")
        pos += len(word)
        if pos > total_bits:
            raise TruncatedMessage("bit stream ended inside a wire string")
        if not lo <= sym < hi:
            raise InvalidCodeword(f"coordinate {i} got a codeword of another type")
        idx[i] = sym - lo
        signs[i] = sign
    if total_bits - pos >= 8 or "1" in bits[pos:total_bits]:
        raise TrailingBits(f"{total_bits - pos} bits past the last symbol")
    return norm, idx, signs


def merge_ties(points, weights):
    """(support, normalized weights) as ``adapt.StepCdf`` merged ties by sorting.

    A stable sort keeps the input order within ties, and ``np.add.at`` sums
    each group of ties from 0.0 in that order.
    """
    points = np.clip(np.asarray(points, dtype=np.float64), 0.0, 1.0)
    order = np.argsort(points, kind="stable")
    points, weights = points[order], np.asarray(weights, dtype=np.float64)[order]
    uniq, inverse = np.unique(points, return_inverse=True)
    merged = np.zeros_like(uniq)
    np.add.at(merged, inverse, weights)
    return uniq, merged / merged.sum()


def optimize_levels(cdf, alpha, grid):
    """The levels ``adapt.optimize_levels`` placed when it ran all alpha + 1 DP layers.

    Each layer, the first and the last included, is a full divide-and-conquer
    column-minimum search (``layer_min``), and the backtrack reads the
    alpha + 1 predecessor arrays.
    """
    xs = np.arange(grid + 1) / grid
    prefix = np.asarray(cdf.moments_below(xs), dtype=np.float64).T.copy()
    fprev = np.full(grid + 1, np.inf)
    fprev[0] = 0.0
    parents = []
    for layer in range(alpha + 1):
        fprev, par = layer_min(fprev, layer, xs, prefix)
        parents.append(par)
    positions = [grid]
    for par in reversed(parents):
        positions.append(int(par[positions[-1]]))
    return xs[positions[::-1]]


def layer_min(fprev, first, xs, prefix):
    """min over i < j of fprev[i] + c(i, j) and its leftmost i, for every column j.

    Divide and conquer over the columns, every segment of one recursion depth
    scanned together as one ragged candidate list.
    """
    b0, b1, b2 = prefix
    n = fprev.size
    fnew = np.full(n, np.inf)
    par = np.zeros(n, dtype=np.intp)
    jlo, jhi = np.array([first + 1]), np.array([n - 1])
    ilo, ihi = np.array([first]), np.array([n - 2])
    while jlo.size:
        mid = (jlo + jhi) // 2
        lens = np.minimum(ihi, mid - 1) - ilo + 1
        starts = np.cumsum(lens) - lens
        seg = np.repeat(np.arange(mid.size), lens)
        i = np.arange(seg.size) + (ilo - starts)[seg]
        j = mid[seg]
        m0 = b0[j] - b0[i]
        m1 = b1[j] - b1[i]
        m2 = b2[j] - b2[i]
        vals = fprev[i] + (-m2 + (xs[i] + xs[j]) * m1 - (xs[i] * xs[j]) * m0)
        best = np.minimum.reduceat(vals, starts)
        opt = np.minimum.reduceat(np.where(vals == best[seg], i, n), starts)
        fnew[mid] = best
        par[mid] = opt
        left, right = mid > jlo, mid < jhi
        jlo, jhi, ilo, ihi = (
            np.concatenate([jlo[left], mid[right] + 1]),
            np.concatenate([mid[left] - 1, jhi[right]]),
            np.concatenate([ilo[left], opt[right]]),
            np.concatenate([opt[left], ihi[right]]),
        )
    return fnew, par


def relative_noise(AX, rng, sigma_r):
    """``vi.RelativeNoise(sigma_r).sample_batch`` through ``np.linalg.norm``."""
    if sigma_r == 0.0:
        return AX.copy()
    eta = rng.standard_normal(AX.shape)
    norm_eta = np.linalg.norm(eta, axis=-1, keepdims=True)
    norm_eta[norm_eta == 0.0] = 1.0
    scale = np.sqrt(sigma_r) * np.linalg.norm(AX, axis=-1, keepdims=True)
    return AX + scale * eta / norm_eta


class RecordingRates(GeneralRates):
    """The general schedule, keeping a copy of X_t and of X_{t+1/2} at each step.

    ``rates`` sees X_t at the start of step t and ``eta_next`` sees X_{t+1/2}
    at its end, so a run of T + 1 steps records X_1, ..., X_{T+1} in ``x``
    and X_{3/2}, ..., X_{T+3/2} in ``x_half``.
    """

    def __init__(self):
        self.x, self.x_half = [], []

    def rates(self, state):
        self.x.append(state.x.copy())
        return super().rates(state)

    def eta_next(self, state):
        self.x_half.append(state.x_half.copy())
        return super().eta_next(state)


def qoda_step(schedule, K):
    """A ``run_qoda`` step that adds to every rate sum, whichever its schedule reads."""

    def step(state, oracle):
        state.gamma, state.eta = schedule.rates(state)
        state.x_half = state.x - state.gamma * state.v_bar_prev
        v_hat = oracle(state.x_half)
        v_bar = np.add.reduce(v_hat, axis=0) / K

        diff = v_hat - state.v_hat_prev
        state.s_diff += float(np.einsum("kd,kd->", diff, diff)) / K**2
        norm_term = float(np.einsum("kd,kd->", v_hat, v_hat)) / K**2
        state.s_norm += norm_term
        state.s_norm_last = norm_term

        state.y = state.y - v_bar
        x_next = state.x1 + schedule.eta_next(state) * state.y

        move = state.x - x_next
        move_term = float(move @ move)
        state.s_move += move_term
        state.s_move_last = move_term

        state.v_hat_prev = v_hat
        state.v_bar_prev = v_bar
        state.x = x_next

    return step

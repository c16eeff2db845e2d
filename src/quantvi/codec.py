"""Prefix coding of quantized vectors with bit-exact wire accounting.

Two transmission protocols are supported.  Under the "main" protocol every
type owns an independent prefix-free codebook; codewords may coincide across
types because the receiver knows the static coordinate-to-type assignment
and always decodes against the right book.  Under the "alternating" protocol
a single codebook is prefix-free over the union alphabet of all (type,
level) pairs, so a codeword alone identifies both the type and the level.

Two code constructions are supported: canonical Huffman built from a level
histogram, and Elias omega codes indexed by level rank (no statistics
needed).

Every symbol is a flat (type, level) index in the order of
``LevelFamily.flat_levels``: a codebook is one list of codewords in that
order, and a decoding scope (one per type, or one for all under the
alternating protocol) is a set of flat indices.  Level j at coordinate i is
flat index ``coord_start[i] + j`` on both sides of the wire.

Messages are built and read as strings of "0" and "1".  The encoder joins
each flat index's precomputed wire string; the decoder has one path for
every codeword length.  Zero-padded to the longest length in its scope, the
codewords of a prefix code sort in the order of the disjoint ranges of
windows they begin, so the decoder bisects them on the next window of the
stream for the one codeword that can match (Moffat & Turpin 1997, "On the
implementation of minimum redundancy prefix codes").  Both sides take time
linear in the message length.

Wire format, most significant bit first: a 32-bit IEEE-754 big-endian norm,
then, only when the norm is nonzero, for each coordinate in ascending order
its codeword followed by one sign bit (1 = negative) when its level index is
positive.  The last byte is padded with zero bits.
"""

import heapq
import math
import struct
from bisect import bisect_right

import numpy as np

PROTOCOL_MAIN = "main"
PROTOCOL_ALTERNATING = "alternating"
SCHEME_HUFFMAN = "huffman"
SCHEME_ELIAS = "elias"


class InvalidCdf(ValueError):
    """CDF is not a valid probability distribution on [0, 1]."""


class EmptyAlphabet(ValueError):
    """Codebook requested for an alphabet with no positive-mass symbol."""


class MissingCodeword(KeyError):
    """Encode hit a (type, level) pair the codebook does not cover."""


class TruncatedMessage(ValueError):
    """Bit stream ended before the expected number of symbols."""


class InvalidCodeword(ValueError):
    """Bit stream contains a pattern no codeword matches."""


class TrailingBits(ValueError):
    """Bit stream continues past the last symbol with non-padding bits."""


class InvalidHistogram(ValueError):
    """Level histogram rows do not form probability distributions."""


class WireMismatch(RuntimeError):
    """A wire roundtrip disagrees with the rows sent or their counted bits."""


class LevelHistogram:
    """Per-type probability rows over level indices 0 .. alpha_m + 1."""

    def __init__(self, rows):
        self.rows = [np.asarray(r, dtype=np.float64) for r in rows]

    def validate(self, family=None):
        if family is not None:
            if len(self.rows) != family.num_types:
                raise InvalidHistogram(
                    f"{len(self.rows)} rows for {family.num_types} types"
                )
            for m, row in enumerate(self.rows):
                if row.size != family.sequences[m].alpha + 2:
                    raise InvalidHistogram(f"row {m} has wrong length {row.size}")
        for m, row in enumerate(self.rows):
            if np.any(row < -1e-12):
                raise InvalidHistogram(f"row {m} has a negative entry")
            if abs(row.sum() - 1.0) > 1e-9:
                raise InvalidHistogram(f"row {m} sums to {row.sum()}, not 1")
        return self

    def __repr__(self):
        return f"LevelHistogram({[list(np.round(r, 4)) for r in self.rows]})"


def estimate_level_probs(cdf, seq):
    """Probability of each level index when quantizing draws from ``cdf``.

    ``cdf`` must expose ``moments_below(x)`` returning, for an array of x,
    one (mass, first moment, ...) row per x of the distribution restricted
    to [0, x), and ``total_moments()`` for the closed interval [0, 1].
    Mass in a level interval [l_j, l_j+1) is split between the two bracketing
    levels in proportion to the expected rounding probabilities, which
    reproduces exactly the symbol distribution the stochastic quantizer
    induces.
    """
    ell = seq.levels
    total = np.asarray(cdf.total_moments(), dtype=np.float64)
    if abs(total[0] - 1.0) > 1e-9:
        raise InvalidCdf(f"total mass {total[0]} is not 1")
    below = np.asarray(cdf.moments_below(ell), dtype=np.float64)
    # Moments of each level interval [l_j, l_j+1); the last one is closed.
    m0, m1 = (np.vstack([below[1:-1], total]) - below[:-1])[:, :2].T
    if (m0 < -1e-12).any():
        raise InvalidCdf("CDF is decreasing")
    w_up = (m1 - ell[:-1] * m0) / np.diff(ell)
    w_up = np.minimum(np.maximum(w_up, 0.0), np.maximum(m0, 0.0))
    row = np.zeros(len(ell))
    row[:-1] += m0 - w_up
    row[1:] += w_up
    np.clip(row, 0.0, None, out=row)
    return row


def build_huffman(probs):
    """Canonical Huffman code for one probability row.

    Returns a list of (length, code) pairs indexed by symbol.  Merging is
    deterministic: ties in probability break toward the smaller symbol rank,
    then toward the earlier-created internal node.  Codewords are assigned
    canonically (sorted by length, then symbol), so equal length multisets
    always produce identical books.  Zero-probability symbols participate in
    the tree and land at the longest lengths, keeping every level the
    quantizer can emit decodable.  A single-symbol alphabet gets the 1-bit
    codeword 0.
    """
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.size
    if n == 0:
        raise EmptyAlphabet("no symbols")
    if np.any(probs < -1e-12):
        raise InvalidHistogram("negative probability")
    if probs.sum() <= 0:
        raise EmptyAlphabet("no symbol has positive mass")
    if n == 1:
        return [(1, 0)]

    heap = [(float(p), i, i) for i, p in enumerate(probs)]
    heapq.heapify(heap)
    children = {}
    next_id = n
    while len(heap) > 1:
        pa, _, a = heapq.heappop(heap)
        pb, _, b = heapq.heappop(heap)
        children[next_id] = (a, b)
        heapq.heappush(heap, (pa + pb, next_id, next_id))
        next_id += 1

    lengths = [0] * n
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if node < n:
            lengths[node] = depth
        else:
            a, b = children[node]
            stack.append((a, depth + 1))
            stack.append((b, depth + 1))
    return _canonical_from_lengths(lengths)


def _canonical_from_lengths(lengths):
    """Assign canonical codes: sorted by (length, symbol), counting upward."""
    out = [None] * len(lengths)
    code = 0
    prev_len = None
    for length, sym in sorted((l, s) for s, l in enumerate(lengths)):
        if prev_len is None:
            code = 0
        else:
            code = (code + 1) << (length - prev_len)
        prev_len = length
        out[sym] = (length, code)
    return out


def elias_omega(k):
    """(length, code) of the Elias omega encoding of a positive integer."""
    if k < 1:
        raise ValueError("Elias omega is defined for positive integers")
    bits = "0"
    while k > 1:
        group = format(k, "b")
        bits = group + bits
        k = len(group) - 1
    return len(bits), int(bits, 2)


def build_elias(alphabet_size):
    """Elias omega codewords for symbol ranks 1 .. alphabet_size."""
    if alphabet_size < 1:
        raise EmptyAlphabet("alphabet must have at least one symbol")
    return [elias_omega(k) for k in range(1, alphabet_size + 1)]


def _bits(length, code):
    """A codeword as a string of ``length`` bits."""
    return format(code, f"0{length}b")


class _Scope:
    """One prefix-free decoding scope: the flat (type, level) indices it decodes.

    Zero-padded on the right to ``width``, the longest codeword length in the
    scope, the codewords of a prefix code sort in the order of the disjoint
    ranges of ``width``-bit strings they begin.  ``padded`` holds the padded
    codewords in that order and ``entries`` each one's (bit string, flat
    index), so the only codeword that can begin a ``width``-bit window of the
    stream is the last one whose padded string is <= the window.
    """

    def __init__(self, flat, words):
        self.width = max(words[f][0] for f in flat)
        rows = sorted((_bits(*words[f]).ljust(self.width, "0"), f) for f in flat)
        self.padded = [p for p, _ in rows]
        self.entries = [(p[:words[f][0]], f) for p, f in rows]


class Codebook:
    """Codewords in the family's flat (type, level) order plus decoding scopes.

    ``words[f]`` is the (length, code) of flat index f, as laid out by
    ``LevelFamily.flat_levels``: one scope per type under the main protocol,
    one scope over all flat indices under the alternating protocol.
    """

    def __init__(self, words, protocol, scheme, family):
        self.words = list(words)
        self.protocol = protocol
        self.scheme = scheme
        self.family_id = family.fingerprint()
        self._assignment = family.assignment
        self._type_start, self._type_size = family.level_starts()
        _, self._coord_start, self._coord_size = family.flat_levels()
        spans = [range(a, a + n) for a, n in zip(self._type_start, self._type_size)]
        if protocol == PROTOCOL_MAIN:
            self._scopes = [_Scope(span, self.words) for span in spans]
            scope_of = self._scopes
        else:
            self._scopes = [_Scope(range(len(self.words)), self.words)]
            scope_of = self._scopes * family.num_types
        # Per coordinate: its scope and the flat range of its type's levels.
        per_type = [
            (sc.width, sc.padded, sc.entries, span.start, span.stop)
            for sc, span in zip(scope_of, spans)
        ]
        self._coord_scopes = [per_type[m] for m in family.assignment.tolist()]
        self._pad = "0" * max(sc.width for sc in self._scopes)
        # Wire string per flat index: the codeword, then a sign bit (1 =
        # negative) when the level index is positive.
        signed = [j > 0 for n in self._type_size for j in range(n)]
        strings = [_bits(l, c) for l, c in self.words]
        self._plus = np.array([w + "0" * g for w, g in zip(strings, signed)], dtype=object)
        self._minus = np.array([w + "1" * g for w, g in zip(strings, signed)], dtype=object)
        self._wire_bits = np.array([l + g for (l, _), g in zip(self.words, signed)])

    def codeword(self, m, j):
        if 0 <= m < len(self._type_size) and 0 <= j < self._type_size[m]:
            return self.words[self._type_start[m] + j]
        raise MissingCodeword(f"no codeword for type {m}, level {j}")

    def message_bits(self, norms, level_idx):
        """Exact wire length in bits of each row's message, without encoding.

        Follows the wire format: a zero-norm row is its 32-bit header; any
        other row adds, per coordinate, the codeword length of its level
        plus one sign bit when the level index is positive.  Equals the
        ``nbits`` of the messages ``encode_batch`` builds from the same rows,
        and raises the same errors.
        """
        return self.flat_message_bits(norms, self.flat_indices(norms, level_idx))

    def flat_indices(self, norms, level_idx):
        """Flat indices of ``level_idx`` rows; a zero-norm row reads level 0.

        A zero-norm row is sent as its bare header, so its level indices are
        not checked.  Raises ValueError on a row of the wrong dimension and
        MissingCodeword at the first uncovered (type, level) pair of another
        row, in row order.
        """
        level_idx = np.atleast_2d(level_idx)
        if level_idx.shape[1] != self._coord_start.size:
            raise ValueError(
                f"dimension {level_idx.shape[1]} != codebook dimension "
                f"{self._coord_start.size}"
            )
        level_idx = np.where((np.asarray(norms) == 0.0)[:, None], 0, level_idx)
        bad = (level_idx < 0) | (level_idx >= self._coord_size)
        if bad.any():
            k, i = np.argwhere(bad)[0]
            raise MissingCodeword(
                f"no codeword for type {self._assignment[i]}, level {level_idx[k, i]}"
            )
        return level_idx + self._coord_start

    def flat_message_bits(self, norms, flat):
        """``message_bits`` at flat indices ``coord_start + level`` (no range check)."""
        bits = self._wire_bits[flat].sum(axis=1)
        norms = np.asarray(norms)
        if not norms.all():
            bits[norms == 0.0] = 0
        return bits + 32

    def kraft_sums(self):
        """Kraft sum per decoding scope (per type for main, global otherwise)."""
        return [sum(2.0 ** -len(w) for w, _ in scope.entries) for scope in self._scopes]


def build_codebook(family, hist=None, protocol=PROTOCOL_MAIN, scheme=SCHEME_HUFFMAN):
    """Construct the codebook for a family under a protocol and scheme.

    Huffman books need a LevelHistogram; Elias books depend only on level
    ranks.  Under the alternating protocol the Huffman input is the joint
    distribution over (type, level) pairs, each type's row weighted by its
    share of coordinates, and Elias ranks follow the global level-value
    order, ties broken by type index.
    """
    if protocol not in (PROTOCOL_MAIN, PROTOCOL_ALTERNATING):
        raise ValueError(f"unknown protocol {protocol!r}")
    if scheme not in (SCHEME_HUFFMAN, SCHEME_ELIAS):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == SCHEME_HUFFMAN:
        if hist is None:
            raise ValueError("Huffman codebooks need a level histogram")
        hist.validate(family)
    if protocol == PROTOCOL_MAIN:
        words = []
        for m, seq in enumerate(family.sequences):
            if scheme == SCHEME_HUFFMAN:
                words += build_huffman(hist.rows[m])
            else:
                words += build_elias(len(seq))
        return Codebook(words, protocol, scheme, family)
    values = family.flat_levels()[0]
    flat_type = np.repeat(np.arange(family.num_types), family.level_starts()[1])
    order = np.lexsort((flat_type, values))
    if scheme == SCHEME_HUFFMAN:
        joint = (family.proportions[flat_type] * np.concatenate(hist.rows))[order]
        if joint.sum() <= 0:
            raise EmptyAlphabet("no (type, level) pair has positive mass")
        # Unused types carry zero mass overall; normalization keeps the
        # row a distribution without changing the code.
        code = build_huffman(joint / joint.sum())
    else:
        code = build_elias(order.size)
    words = [None] * order.size
    for rank, f in enumerate(order.tolist()):
        words[f] = code[rank]
    return Codebook(words, protocol, scheme, family)


class EncodedMessage:
    """A finished bit stream: packed bytes plus its exact bit length."""

    __slots__ = ("data", "nbits", "protocol")

    def __init__(self, data, nbits, protocol):
        self.data = data
        self.nbits = nbits
        self.protocol = protocol

    def __repr__(self):
        return f"EncodedMessage(nbits={self.nbits}, protocol={self.protocol!r})"


def encode(qv, books, family):
    """Serialize a QuantizedVector to the wire format."""
    if qv.family_id != books.family_id:
        raise ValueError("QuantizedVector and codebook do not match")
    return encode_batch([qv.norm], [qv.signs], [qv.level_idx], books, family)[0]


def encode_batch(norms, signs, level_idx, books, family):
    """Encode quantize_batch output row by row into a list of messages."""
    if books.family_id != family.fingerprint():
        raise ValueError("codebook and family do not match")
    flat = books.flat_indices(norms, level_idx)
    rows = np.where(np.asarray(signs) < 0, books._minus[flat], books._plus[flat])
    msgs = []
    for norm, row in zip(np.asarray(norms).tolist(), rows):
        if norm == 0.0:
            msgs.append(EncodedMessage(bytes(4), 32, books.protocol))
            continue
        header = struct.unpack(">I", struct.pack(">f", norm))[0]
        bits = format(header, "032b") + "".join(row)
        pad = -len(bits) % 8
        data = int(bits + "0" * pad, 2).to_bytes((len(bits) + pad) // 8, "big")
        msgs.append(EncodedMessage(data, len(bits), books.protocol))
    return msgs


def _decode_core(data, books, d):
    """Decode one message into (norm, level index list, sign list)."""
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
    # Zero bits past the end make every window full width.
    bits = format(int.from_bytes(data, "big"), f"0{total_bits}b") + books._pad
    pos = 32
    idx = [0] * d
    signs = [1] * d
    for i, (width, padded, entries, lo, hi) in enumerate(books._coord_scopes):
        if pos >= total_bits:
            raise TruncatedMessage("bit stream ended inside a codeword")
        # A window below every codeword picks entry -1; the stream cannot
        # start with that last, largest codeword then, so it is rejected.
        word, sym = entries[bisect_right(padded, bits[pos:pos + width]) - 1]
        if not bits.startswith(word, pos):
            raise InvalidCodeword(f"no codeword matches bits at offset {pos}")
        pos += len(word)
        if pos > total_bits:
            raise TruncatedMessage("bit stream ended inside a codeword")
        if not lo <= sym < hi:
            raise InvalidCodeword(f"coordinate {i} got a codeword of another type")
        if sym > lo:
            idx[i] = sym - lo
            if pos >= total_bits:
                raise TruncatedMessage("bit stream ended before a sign bit")
            if bits[pos] == "1":
                signs[i] = -1
            pos += 1
    if total_bits - pos >= 8 or "1" in bits[pos:total_bits]:
        raise TrailingBits(f"{total_bits - pos} bits past the last symbol")
    return norm, idx, signs


def decode(msg, books, family, d):
    """Reconstruct the QuantizedVector a message encodes.

    Inverse of ``encode`` for matching codebooks and family: the roundtrip
    is exact, including the 32-bit norm.
    """
    from .quantizer import QuantizedVector

    if d != family.dimension:
        raise ValueError(f"dimension {d} != family dimension {family.dimension}")
    norm, idx, signs = _decode_core(msg.data, books, d)
    return QuantizedVector(norm, signs, idx, family.fingerprint())


def decode_batch(msgs, books, family, d):
    """Decode a list of messages into (norms, signs, level_idx) arrays."""
    if d != family.dimension:
        raise ValueError(f"dimension {d} != family dimension {family.dimension}")
    norms = np.empty(len(msgs))
    idx_rows = []
    sign_rows = []
    for k, msg in enumerate(msgs):
        norm, idx, signs = _decode_core(msg.data, books, d)
        norms[k] = norm
        idx_rows.append(idx)
        sign_rows.append(signs)
    return (
        norms,
        np.array(sign_rows, dtype=np.int8),
        np.array(idx_rows, dtype=np.int32),
    )


def verify_wire(norms, signs, level_idx, books, family, counted_bits):
    """Send quantize_batch output through the real wire and check it.

    Raises WireMismatch unless the encoded messages hold ``counted_bits``
    bits in total and decoding them reproduces (norms, signs, level_idx)
    exactly.
    """
    msgs = encode_batch(norms, signs, level_idx, books, family)
    nbits = sum(m.nbits for m in msgs)
    if nbits != counted_bits:
        raise WireMismatch(f"messages hold {nbits} bits but {counted_bits} were counted")
    got = decode_batch(msgs, books, family, family.dimension)
    if not all(np.array_equal(a, b) for a, b in zip(got, (norms, signs, level_idx))):
        raise WireMismatch("decode(encode(q)) differs from q")


def _entropy(p):
    p = np.asarray(p, dtype=np.float64)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def code_length_bound(hist, family, d, protocol=PROTOCOL_MAIN):
    """Expected-bits upper bound for one encoded message of dimension d.

    Main protocol: 32 + sum_m mu_m d (1 - p_0^m) sign bits plus
    sum_m mu_m d (H(row_m) + 1) codeword bits, where H is the Shannon
    entropy of the full row.  Alternating protocol: the same sign-bit term
    and (H(joint) + 1) d codeword bits with the joint distribution over
    (type, level) pairs, which exceeds the main bound by d times the entropy
    of the type proportions.
    """
    hist.validate(family)
    mu = family.proportions
    sign_bits = d * float(
        np.sum([mu[m] * (1.0 - hist.rows[m][0]) for m in range(family.num_types)])
    )
    if protocol == PROTOCOL_MAIN:
        word_bits = d * float(
            np.sum([mu[m] * (_entropy(hist.rows[m]) + 1.0) for m in range(family.num_types)])
        )
    elif protocol == PROTOCOL_ALTERNATING:
        joint = np.concatenate(
            [mu[m] * hist.rows[m] for m in range(family.num_types)]
        )
        word_bits = d * (_entropy(joint) + 1.0)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    return 32.0 + sign_bits + word_bits

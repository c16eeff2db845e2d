"""Prefix coding of quantized vectors with bit-exact wire accounting.

Two transmission protocols are supported.  Under the "main" protocol every
type owns an independent prefix-free codebook; codewords may coincide across
types because the receiver knows the static coordinate-to-type assignment
and always decodes against the right book.  Under the "alternating" protocol
a single codebook is prefix-free over the union alphabet of all (type,
level) pairs, so a codeword alone identifies both the type and the level.

Two code constructions are supported: canonical Huffman built from a level
histogram, and Elias omega codes indexed by level rank (no statistics
needed).  A level histogram is a plain list of probability rows, one per
type, checked by ``validate_histogram``; ``adapt`` computes it.

Every symbol is a flat (type, level) index in the order of
``LevelFamily.flat_levels``: a codebook is one list of codewords in that
order, and a decoding scope holds the wire strings of a range of flat
indices.  ``build_codebook`` lays the scopes out once per protocol: one per
type, or one for all under the alternating protocol.  Level j at coordinate
i is flat index ``coord_start[i] + j`` on both sides of the wire, and the
codebook is the codec's only context.

Messages are built and read as strings of "0" and "1", from one table of
signed wire strings per flat index: the codeword, then one sign bit when the
level index is positive.  Splitting a codeword into its two signed strings
keeps a code prefix-free and its Kraft sum unchanged, so the decoder reads
the encoder's own strings.  Zero-padded to the longest length in its scope,
the wire strings sort in the order of the disjoint ranges of windows they
begin, so the decoder bisects them on the next window of the stream for the
one string that can match, and reads a coordinate's level and sign at once
(Moffat & Turpin 1997, "On the implementation of minimum redundancy prefix
codes").  Both sides take time linear in the message length.

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


def validate_histogram(rows, family):
    """Check level probability rows against ``family``, raising on the first violation.

    ``rows`` holds one row per type, over level indices 0 .. alpha_m + 1.
    Raises InvalidHistogram unless each row has its type's length, no
    negative entry and sum 1.  Returns the rows as float arrays.
    """
    rows = [np.asarray(r, dtype=np.float64) for r in rows]
    if len(rows) != family.num_types:
        raise InvalidHistogram(f"{len(rows)} rows for {family.num_types} types")
    for m, (row, seq) in enumerate(zip(rows, family.sequences)):
        if row.size != seq.alpha + 2:
            raise InvalidHistogram(f"row {m} has wrong length {row.size}")
        if np.any(row < -1e-12):
            raise InvalidHistogram(f"row {m} has a negative entry")
        if abs(row.sum() - 1.0) > 1e-9:
            raise InvalidHistogram(f"row {m} sums to {row.sum()}, not 1")
    return rows


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

    # Each heap node carries its symbols; a merge puts them one level deeper.
    heap = [(float(p), i, [i]) for i, p in enumerate(probs)]
    heapq.heapify(heap)
    lengths = [0] * n
    for next_id in range(n, 2 * n - 1):
        pa, _, a = heapq.heappop(heap)
        pb, _, b = heapq.heappop(heap)
        for sym in a + b:
            lengths[sym] += 1
        heapq.heappush(heap, (pa + pb, next_id, a + b))
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


class _Scope:
    """One prefix-free decoding scope: the wire strings of its flat indices.

    A flat index has one wire string per sign it can carry: ``plus[f]`` and
    ``minus[f]``, which coincide at level 0.  Zero-padded on the right to
    ``width``, the longest wire string in the scope, the strings of a prefix
    code sort in the order of the disjoint ranges of ``width``-bit strings
    they begin.  ``padded`` holds the padded strings in that order and
    ``entries`` each one's (wire string, flat index, sign), so the only
    string that can begin a ``width``-bit window of the stream is the last
    one whose padded string is <= the window.
    """

    def __init__(self, flat, plus, minus):
        # Level 0 sends no sign bit: its one string decodes with sign +1.
        table = {minus[f]: (f, -1) for f in flat} | {plus[f]: (f, 1) for f in flat}
        self.width = max(map(len, table))
        rows = sorted((w.ljust(self.width, "0"), w, f, g) for w, (f, g) in table.items())
        self.padded = [r[0] for r in rows]
        self.entries = [r[1:] for r in rows]


class Codebook:
    """Codewords in the family's flat (type, level) order plus decoding scopes.

    ``words[f]`` is the (length, code) of flat index f, as laid out by
    ``LevelFamily.flat_levels``, and ``_plus[f]``/``_minus[f]`` its signed
    wire strings, the one table both the encoder and the decoding scopes
    read.  ``scopes`` are ranges of flat indices that partition them, each
    prefix-free on its own; a coordinate decodes in the scope that holds its
    type's levels.
    """

    def __init__(self, words, scopes, family):
        self.words = list(words)
        self.family_id = family.fingerprint()
        self._assignment = family.assignment
        type_start, type_size = family.level_starts()
        _, self._coord_start, self._coord_size = family.flat_levels()
        # Wire string per flat index: the codeword, then a sign bit (1 =
        # negative) when the level index is positive.
        signed = [j > 0 for n in type_size for j in range(n)]
        strings = [format(c, f"0{l}b") for l, c in self.words]
        self._plus = np.array([w + "0" * g for w, g in zip(strings, signed)], dtype=object)
        self._minus = np.array([w + "1" * g for w, g in zip(strings, signed)], dtype=object)
        self._wire_bits = np.array([len(w) for w in self._plus])
        self._scopes = [_Scope(span, self._plus, self._minus) for span in scopes]
        # Per type: its scope and the flat range of its levels.
        per_type = []
        for a, n in zip(type_start.tolist(), type_size.tolist()):
            sc = next(sc for sc, span in zip(self._scopes, scopes) if a in span)
            per_type.append((sc.width, sc.padded, sc.entries, a, a + n))
        self._coord_scopes = [per_type[m] for m in family.assignment.tolist()]
        self._pad = "0" * max(sc.width for sc in self._scopes)

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
        """Exact wire length in bits of each row's message, at ``flat_indices``.

        A zero-norm row is its 32-bit header; any other row adds, per
        coordinate, the codeword length of its level plus one sign bit when
        its level index is positive.  Equals the ``nbits`` of the messages
        ``encode_batch`` builds from the same rows; ``flat`` is not checked.
        """
        bits = self._wire_bits[flat].sum(axis=1)
        norms = np.asarray(norms)
        if not norms.all():
            bits[norms == 0.0] = 0
        return bits + 32


def build_codebook(family, hist=None, protocol=PROTOCOL_MAIN, scheme=SCHEME_HUFFMAN):
    """Construct the codebook for a family under a protocol and scheme.

    Huffman books need ``hist``, one level probability row per type; Elias
    books depend only on level ranks.  Under the main protocol each type's
    levels are one decoding scope with its own code.  Under the alternating
    protocol all flat indices are one scope: the Huffman input is the joint
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
        hist = validate_histogram(hist, family)
    starts, sizes = family.level_starts()
    if protocol == PROTOCOL_MAIN:
        words = []
        for m, n in enumerate(sizes.tolist()):
            words += build_huffman(hist[m]) if scheme == SCHEME_HUFFMAN else build_elias(n)
        return Codebook(words, [range(a, a + n) for a, n in zip(starts, sizes)], family)
    values = family.flat_levels()[0]
    flat_type = np.repeat(np.arange(family.num_types), sizes)
    order = np.lexsort((flat_type, values))
    if scheme == SCHEME_HUFFMAN:
        joint = (family.proportions[flat_type] * np.concatenate(hist))[order]
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
    return Codebook(words, [range(order.size)], family)


class EncodedMessage:
    """A finished bit stream: packed bytes plus its exact bit length."""

    __slots__ = ("data", "nbits")

    def __init__(self, data, nbits):
        self.data = data
        self.nbits = nbits

    def __repr__(self):
        return f"EncodedMessage(nbits={self.nbits})"


def encode(qv, books):
    """Serialize a QuantizedVector to the wire format."""
    if qv.family_id != books.family_id:
        raise ValueError("QuantizedVector and codebook do not match")
    return encode_batch([qv.norm], [qv.signs], [qv.level_idx], books)[0]


def encode_batch(norms, signs, level_idx, books):
    """Encode quantize_batch output row by row into a list of messages."""
    flat = books.flat_indices(norms, level_idx)
    rows = np.where(np.asarray(signs) < 0, books._minus[flat], books._plus[flat])
    msgs = []
    for norm, row in zip(np.asarray(norms).tolist(), rows):
        if norm == 0.0:
            msgs.append(EncodedMessage(bytes(4), 32))
            continue
        header = struct.unpack(">I", struct.pack(">f", norm))[0]
        bits = format(header, "032b") + "".join(row)
        pad = -len(bits) % 8
        data = int(bits + "0" * pad, 2).to_bytes((len(bits) + pad) // 8, "big")
        msgs.append(EncodedMessage(data, len(bits)))
    return msgs


def _decode_core(data, books):
    """Decode one message into (norm, level index list, sign list)."""
    d = len(books._coord_scopes)
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


def decode(msg, books):
    """Reconstruct the QuantizedVector a message encodes.

    Inverse of ``encode`` for the same codebook: the roundtrip is exact,
    including the 32-bit norm.
    """
    from .quantizer import QuantizedVector

    norm, idx, signs = _decode_core(msg.data, books)
    return QuantizedVector(norm, signs, idx, books.family_id)


def decode_batch(msgs, books):
    """Decode a list of messages into (norms, signs, level_idx) arrays."""
    rows = [_decode_core(msg.data, books) for msg in msgs]
    return (
        np.array([norm for norm, _, _ in rows], dtype=np.float64),
        np.array([signs for _, _, signs in rows], dtype=np.int8),
        np.array([idx for _, idx, _ in rows], dtype=np.int32),
    )


def verify_wire(norms, signs, level_idx, books, counted_bits):
    """Send quantize_batch output through the real wire and check it.

    Raises WireMismatch unless the encoded messages hold ``counted_bits``
    bits in total and decoding them reproduces (norms, signs, level_idx)
    exactly.
    """
    msgs = encode_batch(norms, signs, level_idx, books)
    nbits = sum(m.nbits for m in msgs)
    if nbits != counted_bits:
        raise WireMismatch(f"messages hold {nbits} bits but {counted_bits} were counted")
    got = decode_batch(msgs, books)
    if not all(np.array_equal(a, b) for a, b in zip(got, (norms, signs, level_idx))):
        raise WireMismatch("decode(encode(q)) differs from q")


def _entropy(p):
    p = np.asarray(p, dtype=np.float64)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def code_length_bound(hist, family, protocol=PROTOCOL_MAIN):
    """Expected-bits upper bound for one message of the family's dimension d.

    ``hist`` holds one level probability row per type.

    Main protocol: 32 + sum_m mu_m d (1 - p_0^m) sign bits plus
    sum_m mu_m d (H(row_m) + 1) codeword bits, where H is the Shannon
    entropy of the full row.  Alternating protocol: the same sign-bit term
    and (H(joint) + 1) d codeword bits with the joint distribution over
    (type, level) pairs, which exceeds the main bound by d times the entropy
    of the type proportions.
    """
    rows = validate_histogram(hist, family)
    mu, d = family.proportions, family.dimension
    sign_bits = d * float(np.sum([w * (1.0 - row[0]) for w, row in zip(mu, rows)]))
    if protocol == PROTOCOL_MAIN:
        word_bits = d * float(np.sum([w * (_entropy(row) + 1.0) for w, row in zip(mu, rows)]))
    elif protocol == PROTOCOL_ALTERNATING:
        word_bits = d * (_entropy(np.concatenate([w * row for w, row in zip(mu, rows)])) + 1.0)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    return 32.0 + sign_bits + word_bits

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

Wire format, most significant bit first: a 32-bit IEEE-754 big-endian norm,
then, only when the norm is nonzero, for each coordinate in ascending order
its codeword followed by one sign bit (1 = negative) when its level index is
positive.  The last byte is padded with zero bits.
"""

import heapq
import math
import struct

import numpy as np

PROTOCOL_MAIN = "main"
PROTOCOL_ALTERNATING = "alternating"
SCHEME_HUFFMAN = "huffman"
SCHEME_ELIAS = "elias"

# Above this codeword length the flat decoding table would be too large and
# decoding falls back to a bit-at-a-time walk.
_TABLE_LEN_LIMIT = 20


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
    row = np.zeros(len(ell))
    for j in range(len(ell) - 1):
        hi = total if j == len(ell) - 2 else below[j + 1]
        m0 = hi[0] - below[j][0]
        m1 = hi[1] - below[j][1]
        if m0 < -1e-12:
            raise InvalidCdf("CDF is decreasing")
        delta = ell[j + 1] - ell[j]
        w_up = (m1 - ell[j] * m0) / delta
        w_up = min(max(w_up, 0.0), max(m0, 0.0))
        row[j] += m0 - w_up
        row[j + 1] += w_up
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


class _Scope:
    """One prefix-free decoding scope: symbol list plus lookup structures."""

    def __init__(self, entries):
        # entries: list of (symbol, length, code); symbol is an int for the
        # main protocol (level index) or a (type, level) pair otherwise.
        self.entries = entries
        self.max_len = max(l for _, l, _ in entries)
        self.by_bits = {(l, c): sym for sym, l, c in entries}
        self.table = None
        if self.max_len <= _TABLE_LEN_LIMIT:
            size = 1 << self.max_len
            syms = [None] * size
            lens = [0] * size
            for sym, l, c in entries:
                base = c << (self.max_len - l)
                for x in range(1 << (self.max_len - l)):
                    syms[base + x] = sym
                    lens[base + x] = l
            self.table = (syms, lens)

    def read_symbol(self, value, total_bits, pos):
        """Decode one symbol starting at bit ``pos``; returns (symbol, new pos)."""
        remaining = total_bits - pos
        if remaining <= 0:
            raise TruncatedMessage("bit stream ended inside a codeword")
        if self.table is not None:
            take = min(self.max_len, remaining)
            chunk = (value >> (total_bits - pos - take)) & ((1 << take) - 1)
            chunk <<= self.max_len - take
            syms, lens = self.table
            length = lens[chunk]
            if length == 0 or syms[chunk] is None:
                raise InvalidCodeword(f"no codeword matches bits at offset {pos}")
            if length > remaining:
                raise TruncatedMessage("bit stream ended inside a codeword")
            return syms[chunk], pos + length
        # Slow path for very long codes: extend bit by bit.
        cur = 0
        for l in range(1, min(self.max_len, remaining) + 1):
            cur = (cur << 1) | ((value >> (total_bits - pos - l)) & 1)
            sym = self.by_bits.get((l, cur))
            if sym is not None:
                return sym, pos + l
        if remaining < self.max_len:
            raise TruncatedMessage("bit stream ended inside a codeword")
        raise InvalidCodeword(f"no codeword matches bits at offset {pos}")


class Codebook:
    """Codewords for every (type, level) pair plus decoding tables."""

    def __init__(self, words, protocol, scheme, family):
        self.words = dict(words)
        self.protocol = protocol
        self.scheme = scheme
        self.family_id = family.fingerprint()
        self._num_types = family.num_types
        # Per-type codeword tables as plain ints: the encoder accumulates
        # the bit stream in an arbitrary-precision integer, so the lengths
        # and codes must never coerce it to a fixed-width numpy type.
        self._enc = []
        for m in range(family.num_types):
            size = family.sequences[m].alpha + 2
            lens = [0] * size
            codes = [0] * size
            for j in range(size):
                if (m, j) not in self.words:
                    raise MissingCodeword(f"no codeword for type {m}, level {j}")
                lens[j], codes[j] = (int(v) for v in self.words[(m, j)])
            self._enc.append((lens, codes))
        if protocol == PROTOCOL_MAIN:
            self._scopes = [
                _Scope([(j, l, c) for j, (l, c) in enumerate(zip(*self._enc[m]))])
                for m in range(family.num_types)
            ]
        else:
            entries = [(pair, int(l), int(c)) for pair, (l, c) in self.words.items()]
            self._scopes = [_Scope(entries)]
        self._assign_list = family.assignment.tolist()
        # Wire bits per (type, level), codeword plus sign bit, flattened with
        # per-coordinate offsets so message_bits needs one gather.
        sizes = np.array([len(lens) for lens, _ in self._enc])
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        self._wire_bits = np.array(
            [l + (j > 0) for lens, _ in self._enc for j, l in enumerate(lens)],
            dtype=np.int64,
        )
        self._coord_start = starts[family.assignment]
        self._coord_size = sizes[family.assignment]
        # Flattened per-type lookup tables ((syms, lens, max_len) or None)
        # so decode can read symbols without per-coordinate method calls.
        self._dec_tables = [
            (s.table[0], s.table[1], s.max_len) if s.table is not None else None
            for s in self._scopes
        ]

    def scope_for_type(self, m):
        return self._scopes[m] if self.protocol == PROTOCOL_MAIN else self._scopes[0]

    def codeword(self, m, j):
        try:
            return self.words[(m, j)]
        except KeyError:
            raise MissingCodeword(f"no codeword for type {m}, level {j}") from None

    def message_bits(self, norms, level_idx):
        """Exact wire length in bits of each row's message, without encoding.

        Follows the wire format: a zero-norm row is its 32-bit header; any
        other row adds, per coordinate, the codeword length of its level
        plus one sign bit when the level index is positive.  Equals the
        ``nbits`` of the messages ``encode_batch`` builds from the same rows.
        """
        level_idx = np.atleast_2d(level_idx)
        if level_idx.shape[1] != self._coord_start.size:
            raise ValueError(
                f"dimension {level_idx.shape[1]} != codebook dimension "
                f"{self._coord_start.size}"
            )
        if level_idx.min() < 0 or (self._coord_size - level_idx).min() <= 0:
            raise MissingCodeword("level index outside its type's codebook")
        bits = self._wire_bits[level_idx + self._coord_start].sum(axis=1)
        norms = np.asarray(norms)
        if not norms.all():
            bits[norms == 0.0] = 0
        return bits + 32

    def kraft_sums(self):
        """Kraft sum per decoding scope (per type for main, global otherwise)."""
        return [
            sum(2.0 ** -l for _, l, _ in scope.entries) for scope in self._scopes
        ]


def _alternating_order(family):
    """Union-alphabet symbols sorted by level value, ties by type index."""
    symbols = []
    for m, seq in enumerate(family.sequences):
        for j, value in enumerate(seq.levels):
            symbols.append((float(value), m, j))
    symbols.sort()
    return [(m, j) for _, m, j in symbols]


def build_codebook(family, hist=None, protocol=PROTOCOL_MAIN, scheme=SCHEME_HUFFMAN):
    """Construct the codebook for a family under a protocol and scheme.

    Huffman books need a LevelHistogram; Elias books depend only on level
    ranks.  Under the alternating protocol the Huffman input is the joint
    distribution over (type, level) pairs, each type's row weighted by its
    share of coordinates, and Elias ranks follow the global level-value
    order.
    """
    if protocol not in (PROTOCOL_MAIN, PROTOCOL_ALTERNATING):
        raise ValueError(f"unknown protocol {protocol!r}")
    if scheme not in (SCHEME_HUFFMAN, SCHEME_ELIAS):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == SCHEME_HUFFMAN and hist is None:
        raise ValueError("Huffman codebooks need a level histogram")
    words = {}
    if protocol == PROTOCOL_MAIN:
        for m, seq in enumerate(family.sequences):
            size = seq.alpha + 2
            if scheme == SCHEME_HUFFMAN:
                hist.validate(family)
                code = build_huffman(hist.rows[m])
            else:
                code = build_elias(size)
            for j in range(size):
                words[(m, j)] = code[j]
    else:
        order = _alternating_order(family)
        if scheme == SCHEME_HUFFMAN:
            hist.validate(family)
            joint = np.array(
                [family.proportions[m] * hist.rows[m][j] for m, j in order]
            )
            if joint.sum() <= 0:
                raise EmptyAlphabet("no (type, level) pair has positive mass")
            # Unused types carry zero mass overall; normalization keeps the
            # row a distribution without changing the code.
            code = build_huffman(joint / joint.sum())
        else:
            code = build_elias(len(order))
        for rank, pair in enumerate(order):
            words[pair] = code[rank]
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


def _encode_core(norm, idx, signs, books):
    """Encode one vector from plain Python lists; returns an EncodedMessage."""
    if norm == 0.0:
        return EncodedMessage(struct.pack(">f", 0.0), 32, books.protocol)
    acc = struct.unpack(">I", struct.pack(">f", norm))[0]
    nbits = 32
    assignment = books._assign_list
    enc = books._enc
    for i, j in enumerate(idx):
        lens, codes = enc[assignment[i]]
        if j < 0 or j >= len(lens):
            raise MissingCodeword(f"no codeword for type {assignment[i]}, level {j}")
        acc = (acc << lens[j]) | codes[j]
        nbits += lens[j]
        if j > 0:
            acc = (acc << 1) | (1 if signs[i] < 0 else 0)
            nbits += 1
    pad = -nbits % 8
    return EncodedMessage(
        (acc << pad).to_bytes((nbits + pad) // 8, "big"), nbits, books.protocol
    )


def encode(qv, books, family):
    """Serialize a QuantizedVector to the wire format."""
    if qv.family_id != books.family_id or qv.family_id != family.fingerprint():
        raise ValueError("QuantizedVector, codebook, and family do not match")
    return _encode_core(qv.norm, qv.level_idx.tolist(), qv.signs.tolist(), books)


def encode_batch(norms, signs, level_idx, books, family):
    """Encode quantize_batch output row by row into a list of messages."""
    if books.family_id != family.fingerprint():
        raise ValueError("codebook and family do not match")
    idx_rows = np.asarray(level_idx).tolist()
    sign_rows = np.asarray(signs).tolist()
    return [
        _encode_core(float(n), idx_rows[k], sign_rows[k], books)
        for k, n in enumerate(norms)
    ]


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
    value = int.from_bytes(data, "big")
    pos = 32
    idx = [0] * d
    signs = [1] * d
    assignment = books._assign_list
    tables = books._dec_tables
    main = books.protocol == PROTOCOL_MAIN
    for i in range(d):
        m = assignment[i]
        tbl = tables[m if main else 0]
        if tbl is None:
            sym, pos = books.scope_for_type(m).read_symbol(value, total_bits, pos)
        else:
            syms, lens, max_len = tbl
            remaining = total_bits - pos
            if remaining <= 0:
                raise TruncatedMessage("bit stream ended inside a codeword")
            if remaining >= max_len:
                chunk = (value >> (total_bits - pos - max_len)) & ((1 << max_len) - 1)
            else:
                chunk = (value & ((1 << remaining) - 1)) << (max_len - remaining)
            length = lens[chunk]
            if length == 0:
                raise InvalidCodeword(f"no codeword matches bits at offset {pos}")
            if length > remaining:
                raise TruncatedMessage("bit stream ended inside a codeword")
            sym = syms[chunk]
            pos += length
        if main:
            j = sym
        else:
            sym_m, j = sym
            if sym_m != m:
                raise InvalidCodeword(
                    f"coordinate {i} expects type {m} but codeword is for type {sym_m}"
                )
        if j > 0:
            idx[i] = j
            if pos >= total_bits:
                raise TruncatedMessage("bit stream ended before a sign bit")
            if (value >> (total_bits - pos - 1)) & 1:
                signs[i] = -1
            pos += 1
    remaining = total_bits - pos
    if remaining >= 8 or (value & ((1 << remaining) - 1)) != 0:
        raise TrailingBits(f"{remaining} bits past the last symbol")
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
    return QuantizedVector._wrap(
        norm, np.array(signs, dtype=np.int8), np.array(idx, dtype=np.int32),
        family.fingerprint(),
    )


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

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
``LevelFamily.values``: a codebook is one list of codewords in that
order, and a decoding scope holds the wire strings of a range of flat
indices.  ``build_codebook`` lays the scopes out once per protocol: one per
type, or one for all under the alternating protocol.  Level j at coordinate
i is flat index f = ``coord_start[i] + j`` on both sides of the wire, and the
codebook is the codec's only context.

Messages are built and read with array operations on one table of signed
wire strings, at the quantizer's wire index s = 2 f + n: flat index f's
codeword, then the sign bit n when the level index is positive.  Level 0's
two slots hold the bare codeword, and the decoder returns the even one.
Splitting a codeword into its two signed strings keeps a code prefix-free
and its Kraft sum unchanged, so the decoder reads the encoder's own strings.
The encoder takes a batch's strings at s in one ragged gather and packs the
byte-aligned messages in one call.
Zero-padded to the longest length in its scope, the wire strings sort in the
order of the disjoint ranges of windows they begin, so a search of the sorted
strings on the window at a bit finds the one string that can start there
(Moffat & Turpin 1997, "On the implementation of minimum redundancy prefix
codes").  The table keeps each string's first digit, at most 57 bits, which
alone decides every string no longer than a digit; a longer string's search
ends on the stream's bits read as one Python integer.
``verify_wire`` makes that search at the bit where the encoder wrote each
coordinate's string: the header's end plus the lengths of the strings sent
before it.  If every string lies inside its message, the headers hold the
norms, every search finds the string sent and fewer than 8 zero bits follow
the last string, then, by induction from the first payload bit, the decoder
reads each string where it was written: the check is exactly
``decode_batch(encode_batch(q)) == q``, in one search of all K d strings.
``decode_batch``, which must find where each string starts, reads all
messages in step, one coordinate per step, with the same search.

Wire format, most significant bit first: a 32-bit IEEE-754 big-endian norm,
then, only when the norm is nonzero, for each coordinate in ascending order
its codeword followed by one sign bit (1 = negative) when its level index is
positive.  The last byte is padded with zero bits.
"""

import heapq
from bisect import bisect_right
from collections import namedtuple

import numpy as np

from .quantizer import _F32_HUGE, QuantizedVector

PROTOCOL_MAIN = "main"
PROTOCOL_ALTERNATING = "alternating"
SCHEME_HUFFMAN = "huffman"
SCHEME_ELIAS = "elias"

_BIT_IN_BYTE = np.arange(8, dtype=np.uint64)


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


class _WireStrings:
    """The signed wire strings of every decoding scope, in one table sorted for search.

    ``wire[s]`` is the text of wire string s.  Flat index f has the strings
    2f and 2f + 1, which coincide at level 0 (``signed[f]`` false), where the
    table keeps only 2f.  Zero-padded on the right to the longest, ``total``
    bits, the strings of a prefix code sort in the order of the disjoint
    ranges of windows they begin, so the only string that can begin a window
    of the stream is the last one whose padded value is <= the window
    (Moffat & Turpin 1997).  The table sorts by scope, then padded value, and
    each key carries the scope above its bits, so one search serves every
    scope.  String c has the key ``keys[c]``, a Python integer, and its first
    ``digit`` bits in ``first[c]``, scope above them, of which it covers the
    bits ``mask[c]``; and its ``scope``, ``lengths`` and wire index ``s``.
    """

    def __init__(self, scopes, wire, signed):
        strings = []  # (scope, length, value, wire index) per distinct wire string
        for sc, span in enumerate(scopes):
            for f in span:
                strings += [(sc, len(wire[s]), int(wire[s], 2), s)
                            for s in range(2 * f, 2 * f + 1 + signed[f])]
        # At most 57 bits, the least an 8-byte load at any bit offset holds,
        # and room above them for the scope.
        self.digit = digit = min(57, 64 - (len(scopes) - 1).bit_length())
        self.total = total = max(t[1] for t in strings)
        strings.sort(key=lambda t: (t[0], t[2] << (total - t[1]), t[1]))
        self.keys = [sc << total | v << (total - n) for sc, n, v, _ in strings]
        self.scope = np.array([t[0] for t in strings])
        self.lengths = np.array([t[1] for t in strings])
        self.s = np.array([t[3] for t in strings])
        self.first = np.array([v << digit >> n for _, n, v, _ in strings], dtype=np.uint64)
        self.first |= self.scope.astype(np.uint64) << np.uint64(digit)
        ones = (1 << digit) - 1
        self.mask = np.array([((1 << 64) - 1) ^ (ones >> min(t[1], digit)) for t in strings],
                             dtype=np.uint64)

    def search(self, windows, bit, key):
        """Per bit position: (the one string that can start there, whether it does).

        ``windows[p]`` is the ``digit``-bit window of the stream at bit p and
        ``key`` the scope of each position, shifted above the digit.  The
        last string whose first digit is <= the window's is the candidate
        when it is at most a digit long: strings sharing a first digit are
        all longer.  Where a longer string is the candidate, the search ends
        on the stream's next ``total`` bits as one integer, placed among the
        full keys.  A window below every string gets candidate -1, which
        names the last, largest string: it cannot match then.
        """
        w = windows[bit] | key
        cand = self.first.searchsorted(w, "right") - 1
        match = (w & self.mask[cand]) == self.first[cand]
        if self.total <= self.digit:
            return cand, match
        digits = -(-self.total // self.digit)
        for r in np.flatnonzero(self.lengths[cand] > self.digit).tolist():
            x = int(w[r])
            for j in range(1, digits):
                x = x << self.digit | int(windows[bit[r] + self.digit * j])
            x >>= digits * self.digit - self.total
            c = cand[r] = bisect_right(self.keys, x) - 1
            match[r] = (x ^ self.keys[c]) >> (self.total - int(self.lengths[c])) == 0
        return cand, match


class Codebook:
    """Codewords in the family's flat (type, level) order plus decoding scopes.

    ``words[f]`` is the (length, code) of flat index f, as laid out by
    ``LevelFamily.values``.  Its signed wire strings, at wire indices
    2f and 2f + 1, are the one source both sides read: the encoder gathers
    their bits from one table, and the decoder searches them in ``scopes``,
    ranges of flat indices that partition them, each prefix-free on its own.
    A coordinate decodes in the scope that holds its type's levels.
    """

    def __init__(self, words, scopes, family):
        self.words = list(words)
        self.family_id = family.fingerprint()
        self._assignment = family.assignment
        self._coord_start, self._coord_size = family.coord_start, family.coord_size
        signed = np.concatenate([np.arange(n) > 0 for n in family.type_size]).tolist()
        # The _string_bits[s] bits of wire string s = 2f + n, flat index f
        # with sign bit n, start at _starts[s] in _bits.
        strings = []
        for (l, c), g in zip(self.words, signed):
            w = format(c, f"0{l}b")
            strings += [w + "0" * g, w + "1" * g]
        self._string_bits = np.array([len(w) for w in strings])
        self._bits = np.frombuffer("".join(strings).encode(), dtype=np.uint8) - ord("0")
        self._starts = np.cumsum(self._string_bits) - self._string_bits
        self._strings = tab = _WireStrings(scopes, strings, signed)
        self._pad_bytes = -(-int(tab.lengths.max()) // 8)
        # Each coordinate searches the scope of its type's levels.
        type_scope = [next(sc for sc, span in enumerate(scopes) if a in span)
                      for a in family.type_start]
        self._coord_key = np.array(type_scope, dtype=np.uint64)[family.assignment] << np.uint64(
            tab.digit)

    def wire_indices(self, norms, s):
        """Wire index rows ``s``, checked, as an array; a zero-norm row reads level 0.

        Raises ValueError on a row of the wrong dimension and MissingCodeword
        at the first s, in row order, that is not of its coordinate's type;
        a zero-norm row is sent as its bare header, and not checked.
        """
        s = np.atleast_2d(s)
        if s.shape[1] != self._coord_start.size:
            raise ValueError(
                f"dimension {s.shape[1]} != codebook dimension {self._coord_start.size}")
        norms = np.asarray(norms)
        if not norms.all():
            s = np.where((norms == 0.0)[:, None], 2 * self._coord_start, s)
        level_idx = (s >> 1) - self._coord_start
        bad = (level_idx < 0) | (level_idx >= self._coord_size)
        if bad.any():
            k, i = np.argwhere(bad)[0]
            raise MissingCodeword(f"no codeword for type {self._assignment[i]}, "
                                  f"level {level_idx[k, i]}")
        return s

    def message_bits(self, norms, s):
        """Exact wire length in bits of each row's message, at unchecked wire indices ``s``.

        A zero-norm row is its 32-bit header; any other row adds the length
        of each coordinate's wire string.  Equals the ``nbits`` of the
        messages ``encode_batch`` builds from the same rows.
        """
        live = np.asarray(norms) != 0.0
        return 32 + (self._string_bits[s] * live[:, None]).sum(axis=1)

    def batch_bits(self, norms, s):
        """``message_bits(norms, s).sum()`` as an int: a whole broadcast's bits.

        With no zero norm in the batch this is one gather and one sum.
        """
        if 0.0 in norms.tolist():
            return int(self.message_bits(norms, s).sum())
        return 32 * s.shape[0] + int(np.add.reduce(self._string_bits.take(s), axis=None))


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
    starts, sizes = family.type_start, family.type_size
    if protocol == PROTOCOL_MAIN:
        words = []
        for m, n in enumerate(sizes.tolist()):
            words += build_huffman(hist[m]) if scheme == SCHEME_HUFFMAN else build_elias(n)
        return Codebook(words, [range(a, a + n) for a, n in zip(starts, sizes)], family)
    flat_type = np.repeat(np.arange(family.num_types), sizes)
    order = np.lexsort((flat_type, family.values))
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


# A finished bit stream: packed bytes plus its exact bit length.
EncodedMessage = namedtuple("EncodedMessage", "data nbits")


def encode(qv, books):
    """Serialize a QuantizedVector to the wire format."""
    if qv.family_id != books.family_id:
        raise ValueError("QuantizedVector and codebook do not match")
    return encode_batch([qv.norm], qv.wire_indices(books._coord_start), books)[0]


def encode_batch(norms, s, books):
    """Encode quantize_batch output (norms, s) into a list of messages, one per row.

    Each row is one ragged gather: its 32-bit header, each coordinate's
    wire string s from the codebook's bit table, and zero bits up to a
    whole byte; a zero-norm row is its bare header.  The byte-aligned rows
    are packed in one call.
    """
    s = books.wire_indices(norms, s)
    norms = np.asarray(norms, dtype=np.float64)
    if (np.abs(norms[np.isfinite(norms)]) >= _F32_HUGE).any():
        raise OverflowError("norm is finite but rounds to infinity in the 32-bit header")
    K = s.shape[0]
    live = norms != 0.0
    lens = books._string_bits[s] * live[:, None]
    nbits = 32 + lens.sum(axis=1)
    pad = -nbits % 8
    # The header bits and 7 padding zeros follow the table in the gather's
    # source; a zero norm, -0.0 included, is sent as +0.0.
    header = np.unpackbits(np.where(live, norms, 0.0).astype(">f4").view(np.uint8))
    src = np.concatenate((books._bits, header, np.zeros(7, dtype=np.uint8)))
    at = books._bits.size
    starts = np.concatenate((
        (at + 32 * np.arange(K))[:, None],
        books._starts[s],
        np.full((K, 1), at + 32 * K),
    ), axis=1).ravel()
    lens = np.concatenate((np.full((K, 1), 32), lens, pad[:, None]), axis=1).ravel()
    ends = np.cumsum(lens)
    gather = np.repeat(starts - ends + lens, lens) + np.arange(ends[-1] if K else 0)
    data = np.packbits(src[gather]).tobytes()
    cuts = np.cumsum(nbits + pad).tolist()
    return [EncodedMessage(data[a // 8:b // 8], n)
            for a, b, n in zip([0] + cuts, cuts, nbits.tolist())]


def _windows(buf, digit):
    """The ``digit``-bit window of ``buf`` at every bit offset, as unsigned integers.

    Bit p's window is bits p .. p + digit - 1, read from the big-endian
    8-byte word at byte p // 8 shifted left by p % 8; ``buf`` ends with 8
    zero bytes.
    """
    words = np.ndarray((len(buf) - 8,), dtype=">u8", buffer=buf, strides=(1,))
    return ((words.astype(np.uint64)[:, None] << _BIT_IN_BYTE) >> np.uint64(64 - digit)).ravel()


def _stream(msgs, books):
    """Messages end to end for search: (bytes, each message's first and end bit, its header).

    Each message is followed by zero bytes as wide as the longest wire
    string, so that every window is full width; the header is the norm its
    first 4 bytes hold.
    """
    datas = [msg.data for msg in msgs]
    sizes = np.array([len(x) for x in datas], dtype=np.int64)
    gap = bytes(books._pad_bytes)
    buf = gap.join(datas) + gap + bytes(8)
    base = 8 * (np.cumsum(sizes + len(gap)) - sizes - len(gap))
    head = np.frombuffer(buf, dtype=np.uint8)[(base // 8)[:, None] + np.arange(4)]
    # A signalling-NaN header would raise the "invalid" flag as it widens;
    # the callers reject it like any NaN.
    with np.errstate(invalid="ignore"):
        norms = head.view(">f4")[:, 0].astype(np.float64)
    return buf, base, base + 8 * sizes, norms


def decode_batch(msgs, books):
    """Decode messages into (norms, s) arrays, raising the first message's error.

    The messages are read in step, one coordinate per step: every message
    still being read searches its coordinate's scope at its current bit.  A
    message fails at its first failing coordinate, checked for truncation,
    then a codeword, then an overrun, then its type; then on trailing bits.
    A zero-norm message decodes to level 0 throughout, and level 0 to its
    even wire index.
    """
    s = np.tile(2 * books._coord_start, (len(msgs), 1))
    buf, base, end, norms = _stream(msgs, books)
    errors = {}
    for k, (size, norm) in enumerate(zip(((end - base) // 8).tolist(), norms.tolist())):
        if size < 4:
            errors[k] = TruncatedMessage("message shorter than the 32-bit norm header")
        elif not np.isfinite(norm) or norm < 0:
            errors[k] = InvalidCodeword(f"norm header decodes to {norm}")
        elif norm == 0.0 and size != 4:
            errors[k] = TrailingBits("zero-norm message carries payload bits")
    rows = np.array([k for k in range(len(msgs)) if k not in errors and norms[k] != 0.0],
                    dtype=np.int64)
    tab = books._strings
    windows = _windows(buf, tab.digit)
    bit = base[rows] + 32
    for i, key in enumerate(books._coord_key):
        if not rows.size:
            break
        cand, match = tab.search(windows, bit, key)
        got, after = tab.s[cand], bit + tab.lengths[cand]
        level = (got >> 1) - books._coord_start[i]
        over = after > end[rows]
        good = match & ~over & (level >= 0) & (level < books._coord_size[i])
        for r in np.flatnonzero(~good).tolist():
            k, p = rows[r], bit[r]
            if p >= end[k] or (match[r] and over[r]):
                errors[k] = TruncatedMessage("bit stream ended inside a wire string")
            elif not match[r]:
                errors[k] = InvalidCodeword(f"no codeword matches bits at offset {p - base[k]}")
            else:
                errors[k] = InvalidCodeword(f"coordinate {i} got a codeword of another type")
        rows, bit = rows[good], after[good]
        s[rows, i] = got[good]
    rest = end[rows] - bit
    tail = windows[bit] >> (tab.digit - np.minimum(rest, 7)).astype(np.uint64)
    for r in np.flatnonzero((rest >= 8) | (tail > 0)).tolist():
        errors[rows[r]] = TrailingBits(f"{rest[r]} bits past the last symbol")
    if errors:
        raise errors[min(errors)]
    return norms, s


def decode(msg, books):
    """Reconstruct the QuantizedVector a message encodes.

    Inverse of ``encode`` for the same codebook: the roundtrip is exact,
    including the 32-bit norm.
    """
    norms, s = decode_batch([msg], books)
    return QuantizedVector.from_wire(norms[0], s[0], books._coord_start, books.family_id)


def verify_wire(norms, s, books, counted_bits):
    """Send quantize_batch output (norms, s) through the real wire and check it.

    Raises WireMismatch unless the encoded messages hold ``counted_bits``
    bits in total and decoding them reproduces the norms and s exactly, but
    for the sign bit at level 0, which no wire string carries.  The check
    searches for each coordinate's string where the encoder wrote it, after
    the header and the strings sent before it, so no bit position is
    discovered; see the module docstring for why this is the decoder's test.
    """
    msgs = encode_batch(norms, s, books)
    nbits = sum(m.nbits for m in msgs)
    if nbits != counted_bits:
        raise WireMismatch(f"messages hold {nbits} bits but {counted_bits} were counted")
    sent = np.where((s >> 1) == books._coord_start, s & -2, s)  # level 0 decodes even
    live = np.asarray(norms) != 0.0
    buf, base, end, heads = _stream(msgs, books)
    # The encoder checked the live rows' indices; a zero-norm row, sent as
    # its bare header, decodes to level 0 throughout.
    lens = books._string_bits[sent[live]]
    last = base + 32
    last[live] += lens.sum(axis=1)
    # Every string inside its message, at most 7 bits after the last, before
    # any window is read.
    same = (((last <= end) & (end - last < 8)).all()
            and ((heads >= 0) & (heads < np.inf)).all() and np.array_equal(heads, norms)
            and (sent[~live] == 2 * books._coord_start).all())
    if same:
        tab = books._strings
        windows = _windows(buf, tab.digit)
        at = base[live, None] + 32 + np.cumsum(lens, axis=1) - lens
        cand, match = tab.search(windows, at.ravel(), np.tile(books._coord_key, lens.shape[0]))
        tail = windows[last] >> (tab.digit - (end - last)).astype(np.uint64)
        same = match.all() and np.array_equal(tab.s[cand], sent[live].ravel()) and not tail.any()
    if not same:
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

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

Messages are built and read with array operations on one table of signed
wire strings per flat index: the codeword, then one sign bit when the level
index is positive.  Splitting a codeword into its two signed strings keeps a
code prefix-free and its Kraft sum unchanged, so the decoder reads the
encoder's own strings.  The encoder takes a batch's strings from the table's
bits in one ragged gather and packs the byte-aligned messages in one call.
Zero-padded to the longest length in its scope, the wire strings sort in the
order of the disjoint ranges of windows they begin, so a search of the sorted
strings on the window at a bit finds the one string that can start there
(Moffat & Turpin 1997, "On the implementation of minimum redundancy prefix
codes").  The decoder makes that search, as 57-bit integer digits, at every
bit where a coordinate can start (Klein & Wiseman 2003, "Parallel Huffman
decoding with applications to JPEG files"), links each bit to the bit after
its string, and follows the links from the first payload bit by pointer
doubling.  A batch of messages of b bits in all costs O(b log d) array work
in O(log d) numpy calls per run of coordinates that share a scope, and no
table grows with the codeword length beyond one digit per 57 bits.

Wire format, most significant bit first: a 32-bit IEEE-754 big-endian norm,
then, only when the norm is nonzero, for each coordinate in ascending order
its codeword followed by one sign bit (1 = negative) when its level index is
positive.  The last byte is padded with zero bits.
"""

import heapq

import numpy as np

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

    A flat index has one wire string per sign it can carry, which coincide
    at level 0.  Zero-padded on the right to whole ``digit``-bit digits, the
    strings of a prefix code sort in the order of the disjoint ranges of
    windows they begin, so the only string that can begin a window of the
    stream is the last one whose padded value is <= the window (Moffat &
    Turpin 1997).  The table sorts by scope, then padded value, and the
    first digit carries the scope in its bits above ``digit``, so one search
    serves every scope.  String s has digit j ``digits[j, s]``, of which it
    covers the bits ``masks[j, s]``, and its ``scope``, ``lengths``,
    ``flat`` index and ``sign`` (+1 or -1).
    """

    def __init__(self, scopes, words, signed):
        strings = []  # (scope, length, value, flat index, sign bit) per wire string
        for sc, span in enumerate(scopes):
            for f in span:
                length, code = words[f]
                g = int(signed[f])
                strings += [(sc, length + g, (code << g) | n, f, n) for n in range(g + 1)]
        # At most 57 bits, the least an 8-byte load at any bit offset holds,
        # and room above them for the scope.
        self.digit = digit = min(57, 64 - (len(scopes) - 1).bit_length())
        total = -(-max(t[1] for t in strings) // digit) * digit
        strings.sort(key=lambda t: (t[0], t[2] << (total - t[1]), t[1]))
        ones = (1 << digit) - 1
        self.digits = np.array(
            [[(v << (total - n)) >> (total - digit * (j + 1)) & ones for _, n, v, _, _ in strings]
             for j in range(total // digit)],
            dtype=np.uint64,
        )
        self.masks = np.array(
            [[ones ^ (ones >> min(max(n - digit * j, 0), digit)) for _, n, _, _, _ in strings]
             for j in range(total // digit)],
            dtype=np.uint64,
        )
        self.scope = np.array([t[0] for t in strings])
        self.digits[0] |= self.scope.astype(np.uint64) << np.uint64(digit)
        self.masks[0] |= np.uint64(((1 << 64) - 1) ^ ones)
        self.lengths = np.array([t[1] for t in strings])
        self.flat = np.array([t[3] for t in strings])
        self.sign = np.array([1 - 2 * t[4] for t in strings], dtype=np.int8)

    def search(self, windows, bit, key):
        """Per bit position: (the one string that can start there, whether it does).

        ``windows[p]`` is the ``digit``-bit window of the stream at bit p and
        ``key`` the scope of each position, shifted above the digit.  The
        candidate is found digit by digit; a later digit is read only where
        several strings share every digit so far, which only strings longer
        than one digit can.  A window below every string gets candidate -1,
        which names the last, largest string: it cannot match then.
        """
        w = windows[bit] | key
        hi = self.digits[0].searchsorted(w, "right")
        if self.digits.shape[0] > 1:
            lo = self.digits[0].searchsorted(w, "left")
            for j, keys in enumerate(self.digits[1:], 1):
                tie = np.flatnonzero(hi - lo > 1)
                if not tie.size:
                    break
                wj = windows[bit[tie] + self.digit * j]
                lo[tie] = _insertion(keys, wj, lo[tie], hi[tie], right=False)
                hi[tie] = _insertion(keys, wj, lo[tie], hi[tie], right=True)
        cand = hi - 1
        match = (w & self.masks[0][cand]) == self.digits[0][cand]
        for j in range(1, self.digits.shape[0]):
            wj = windows[bit + self.digit * j]
            match &= (wj & self.masks[j][cand]) == self.digits[j][cand]
        return cand, match


def _insertion(keys, x, lo, hi, right):
    """Vectorized bisection: insertion points of ``x`` in ``keys[lo:hi]``, each range sorted."""
    for _ in range(int((hi - lo).max()).bit_length()):
        active = lo < hi
        mid = (lo + hi) >> 1
        k = keys[np.minimum(mid, keys.size - 1)]
        below = active & ((k <= x) if right else (k < x))
        lo = np.where(below, mid + 1, lo)
        hi = np.where(active & ~below, mid, hi)
    return lo


class Codebook:
    """Codewords in the family's flat (type, level) order plus decoding scopes.

    ``words[f]`` is the (length, code) of flat index f, as laid out by
    ``LevelFamily.flat_levels``.  Its signed wire strings, the codeword then
    one sign bit (1 = negative) when the level index is positive, are the
    one source both sides read: the encoder gathers their bits from one flat
    table, and the decoder searches them in ``scopes``, ranges of flat
    indices that partition them, each prefix-free on its own.  A coordinate
    decodes in the scope that holds its type's levels, and consecutive
    coordinates that share a scope form a run.
    """

    def __init__(self, words, scopes, family):
        self.words = list(words)
        self.family_id = family.fingerprint()
        self._assignment = family.assignment
        type_start, type_size = family.level_starts()
        _, self._coord_start, self._coord_size = family.flat_levels()
        signed = np.concatenate([np.arange(n) > 0 for n in type_size])
        self._wire_bits = np.array([l for l, _ in self.words]) + signed
        # The bits of wire string 2f + n, flat index f with sign bit n, start
        # at _starts[2f + n] in _bits.
        strings = []
        for (l, c), g in zip(self.words, signed.tolist()):
            w = format(c, f"0{l}b")
            strings += [w + "0" * g, w + "1" * g]
        self._bits = np.frombuffer("".join(strings).encode(), dtype=np.uint8) - ord("0")
        lengths = np.repeat(self._wire_bits, 2)
        self._starts = np.cumsum(lengths) - lengths
        self._strings = tab = _WireStrings(scopes, self.words, signed)
        self._pad_bytes = -(-int(tab.lengths.max()) // 8)
        self._scope_keys = np.arange(len(scopes), dtype=np.uint64) << np.uint64(tab.digit)
        # Runs of coordinates in one scope, _runs[r] = (scope, length).
        # Coordinate i is step t of run r, at _coord_slot[i] = r * _max_run + t.
        type_scope = [next(s for s, span in enumerate(scopes) if a in span) for a in type_start]
        coord_scope = np.array(type_scope)[family.assignment]
        run_start = np.flatnonzero(np.diff(coord_scope, prepend=-1))
        run_len = np.diff(run_start, append=coord_scope.size)
        run_scope = coord_scope[run_start]
        self._runs = list(zip(run_scope.tolist(), run_len.tolist()))
        self._max_run = int(run_len.max())
        self._coord_slot = np.arange(coord_scope.size) + np.repeat(
            np.arange(run_start.size) * self._max_run - run_start, run_len)
        # The bits a scope's runs can occupy, from a message's first payload
        # bit: a run starts after the earlier runs' shortest strings and ends
        # by their and its own longest.  A scope with no run gets no bits.
        shortest = np.full(len(scopes), tab.lengths.max())
        longest = np.zeros(len(scopes), dtype=np.int64)
        np.minimum.at(shortest, tab.scope, tab.lengths)
        np.maximum.at(longest, tab.scope, tab.lengths)
        run_hi = np.cumsum(run_len * longest[run_scope])
        run_lo = np.cumsum(run_len * shortest[run_scope]) - run_len * shortest[run_scope]
        self._block_lo = np.full(len(scopes), run_hi[-1])
        self._block_hi = np.full(len(scopes), -1)
        np.minimum.at(self._block_lo, run_scope, run_lo)
        np.maximum.at(self._block_hi, run_scope, run_hi)

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
        norms = np.asarray(norms)
        if not norms.all():
            level_idx = np.where((norms == 0.0)[:, None], 0, level_idx)
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

    def batch_bits(self, norms, flat):
        """``flat_message_bits(norms, flat).sum()`` as an int: a whole broadcast's bits.

        With no zero norm in the batch this is one gather and one sum.
        """
        if 0.0 in norms.tolist():
            return int(self.flat_message_bits(norms, flat).sum())
        return 32 * flat.shape[0] + int(np.add.reduce(self._wire_bits.take(flat), axis=None))


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
    """Encode quantize_batch output into a list of messages, one per row.

    Each row is one ragged gather: its 32-bit header, each coordinate's
    signed wire string from the codebook's bit table, and zero bits up to a
    whole byte; a zero-norm row is its bare header.  The byte-aligned rows
    are packed in one call.
    """
    flat = books.flat_indices(norms, level_idx)
    norms = np.asarray(norms, dtype=np.float64)
    if (np.abs(norms[np.isfinite(norms)]) >= 2.0**128 - 2.0**103).any():
        raise OverflowError("norm is finite but rounds to infinity in the 32-bit header")
    K = flat.shape[0]
    live = norms != 0.0
    lens = books._wire_bits[flat]
    if not live.all():
        lens[~live] = 0
    nbits = 32 + lens.sum(axis=1)
    pad = -nbits % 8
    # The header bits and 7 padding zeros follow the table in the gather's
    # source; a zero norm, -0.0 included, is sent as +0.0.
    header = np.unpackbits(np.where(live, norms, 0.0).astype(">f4").view(np.uint8))
    src = np.concatenate((books._bits, header, np.zeros(7, dtype=np.uint8)))
    at = books._bits.size
    starts = np.concatenate((
        (at + 32 * np.arange(K))[:, None],
        books._starts[2 * flat + (np.asarray(signs) < 0)],
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


def _paths(books, windows, start, end):
    """Follow each message's wire strings from bit ``start`` through every run.

    Returns (x, final, bit, ok, cand, match): ``x[k, i]`` indexes the
    position of coordinate i of message k in the searched positions, whose
    stream bit, link validity, candidate string and match are ``bit``,
    ``ok``, ``cand`` and ``match``; ``final`` is the bit after the last
    coordinate.  Each scope is searched over the block of bits its runs can
    occupy in each message, and one more block, a single position, is the
    sink.  A position links to the bit after its string, or to the sink
    when nothing matches or the string leaves its block.  Pointer doubling
    follows the links: run by run for the runs' ends, then for every step of
    every run at once, in a table of (messages x runs x longest run) entries.
    """
    tab = books._strings
    scopes = books._scope_keys.size
    lo = np.append((start[:, None] + books._block_lo).ravel(), -1)
    hi = np.append(np.minimum(start[:, None] + books._block_hi, end[:, None]).ravel(), -1)
    width = np.maximum(hi - lo + 1, 0)
    off = np.cumsum(width) - width
    sink = int(off[-1])
    local = np.arange(sink + 1)
    bit = np.repeat(lo - off, width) + local
    cand, match = tab.search(windows, bit, np.repeat(np.resize(books._scope_keys, width.size), width))
    step = local + tab.lengths.take(cand)
    del local
    ok = match & (step <= np.repeat(off + width - 1, width))
    step[~ok] = sink
    jumps = [step]
    for _ in range(1, books._max_run.bit_length()):
        jumps.append(jumps[-1].take(jumps[-1]))
    lo, hi, off = (a[:-1].reshape(-1, scopes) for a in (lo, hi, off))
    # Step t of run r of message k is y[k, r, t], every run padded to the
    # longest: steps 2^j .. 2^(j+1) - 1 are 2^j steps after steps 0 .. 2^j - 1.
    y = np.empty((start.size, len(books._runs), books._max_run), dtype=np.int64)
    final = start
    for r, (sc, n) in enumerate(books._runs):
        inside = (final >= lo[:, sc]) & (final <= hi[:, sc])
        x = y[:, r, 0] = np.where(inside, final - lo[:, sc] + off[:, sc], sink)
        for j in range(n.bit_length()):
            if n >> j & 1:
                x = jumps[j].take(x)
        final = bit.take(x)
    for j in range((books._max_run - 1).bit_length()):
        h = 1 << j
        y[:, :, h:2 * h] = jumps[j].take(y[:, :, :min(h, books._max_run - h)])
    return y.reshape(start.size, -1).take(books._coord_slot, axis=1), final, bit, ok, cand, match


def _decode_rows(datas, books):
    """Decode messages into (norms, signs, level_idx), raising the first message's error.

    The messages are laid end to end, each followed by zero bytes as wide as
    the longest wire string, so that every window is full width, and
    ``_paths`` finds every coordinate's string in O(log d) array operations
    over the bits.  A message fails at its first failing coordinate, checked
    for truncation, then a codeword, then an overrun, then its type; then on
    trailing bits.
    """
    K, d = len(datas), books._coord_start.size
    norms = np.zeros(K)
    signs = np.ones((K, d), dtype=np.int8)
    idx = np.zeros((K, d), dtype=np.int32)
    if not K:
        return norms, signs, idx
    sizes = np.array([len(x) for x in datas])
    gap = bytes(books._pad_bytes)
    buf = gap.join(datas) + gap + bytes(8)
    base = 8 * (np.cumsum(sizes + len(gap)) - sizes - len(gap))
    end = base + 8 * sizes
    head = np.frombuffer(buf, dtype=np.uint8)[(base // 8)[:, None] + np.arange(4)]
    # A signalling-NaN header would raise the "invalid" flag as it widens;
    # it is rejected below like any NaN.
    with np.errstate(invalid="ignore"):
        norms[:] = head.view(">f4")[:, 0]
    errors = {}
    for k, (size, norm) in enumerate(zip(sizes.tolist(), norms.tolist())):
        if size < 4:
            errors[k] = TruncatedMessage("message shorter than the 32-bit norm header")
        elif not np.isfinite(norm) or norm < 0:
            errors[k] = InvalidCodeword(f"norm header decodes to {norm}")
        elif norm == 0.0 and size != 4:
            errors[k] = TrailingBits("zero-norm message carries payload bits")
    rows = np.array([k for k in range(K) if k not in errors and norms[k] != 0.0], dtype=np.int64)
    if rows.size:
        tab = books._strings
        windows = _windows(buf, tab.digit)
        x, final, bit, ok, cand, match = _paths(books, windows, base[rows] + 32, end[rows])
        s = cand[x]
        level = tab.flat[s] - books._coord_start
        good = ok[x] & (level >= 0) & (level < books._coord_size)
        idx[rows] = level
        signs[rows] = tab.sign[s]
        rest = end[rows] - final
        tail = windows[final] >> (tab.digit - np.minimum(rest, 7)).astype(np.uint64)
        for r in np.flatnonzero(~good.all(axis=1) | (rest >= 8) | (tail > 0)).tolist():
            k = rows[r]
            if good[r].all():
                errors[k] = TrailingBits(f"{rest[r]} bits past the last symbol")
                continue
            i = int(good[r].argmin())
            p = int(bit[x[r, i]])
            m = match[x[r, i]]
            if p >= end[k] or (m and p + tab.lengths[s[r, i]] > end[k]):
                errors[k] = TruncatedMessage("bit stream ended inside a wire string")
            elif not m:
                errors[k] = InvalidCodeword(f"no codeword matches bits at offset {p - base[k]}")
            else:
                errors[k] = InvalidCodeword(f"coordinate {i} got a codeword of another type")
    if errors:
        raise errors[min(errors)]
    return norms, signs, idx


def decode(msg, books):
    """Reconstruct the QuantizedVector a message encodes.

    Inverse of ``encode`` for the same codebook: the roundtrip is exact,
    including the 32-bit norm.
    """
    from .quantizer import QuantizedVector

    norms, signs, idx = _decode_rows([msg.data], books)
    return QuantizedVector(norms[0], signs[0], idx[0], books.family_id)


def decode_batch(msgs, books):
    """Decode a list of messages into (norms, signs, level_idx) arrays."""
    return _decode_rows([msg.data for msg in msgs], books)


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

import hashlib
import math
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantvi import codec
from quantvi.codec import (
    Codebook,
    EmptyAlphabet,
    InvalidCodeword,
    InvalidHistogram,
    MissingCodeword,
    TrailingBits,
    TruncatedMessage,
    build_codebook,
    build_elias,
    build_huffman,
    code_length_bound,
    decode,
    decode_batch,
    elias_omega,
    encode,
    encode_batch,
    validate_histogram,
)
from quantvi.adapt import estimate_level_probs
from quantvi.levels import LevelFamily, LevelSequence, assignment_from_layer_sizes
from quantvi.quantizer import QuantizedVector, quantize_batch, quantize_vector
import reference


def _bits(length, code):
    return format(code, "b").zfill(length) if length else ""


def _message_bits(books, norms, level_idx):
    """Counted wire bits per row, through the range check the encoder runs."""
    return books.flat_message_bits(norms, books.flat_indices(norms, level_idx))


def _kraft_sums(books):
    """Kraft sum per decoding scope (per type for main, global otherwise)."""
    # Summed exactly: a codeword's two signed strings add up to its term.
    tab = books._strings
    return [math.fsum(2.0 ** -tab.lengths[tab.scope == s].astype(float))
            for s in range(tab.scope.max() + 1)]


def test_elias_omega_frozen_values():
    assert elias_omega(1) == (1, 0b0)
    assert elias_omega(2) == (3, 0b100)
    assert elias_omega(3) == (3, 0b110)
    assert elias_omega(4) == (6, 0b101000)
    assert elias_omega(16) == (11, 0b10100100000)
    with pytest.raises(ValueError):
        elias_omega(0)


def test_elias_codes_are_prefix_free():
    words = [_bits(*w) for w in build_elias(40)]
    assert len(set(words)) == 40
    for i, a in enumerate(words):
        for b in words[i + 1 :]:
            assert not a.startswith(b) and not b.startswith(a)


def test_huffman_frozen_lengths():
    # (0.4, 0.3, 0.2, 0.1) gets lengths (1, 2, 3, 3): expected length 1.9.
    words = build_huffman([0.4, 0.3, 0.2, 0.1])
    lengths = [l for l, _ in words]
    assert lengths == [1, 2, 3, 3]
    assert sum(p * l for p, l in zip([0.4, 0.3, 0.2, 0.1], lengths)) == pytest.approx(1.9)


def test_huffman_canonical_assignment():
    assert build_huffman([0.5, 0.25, 0.25]) == [(1, 0b0), (2, 0b10), (2, 0b11)]


def test_huffman_single_symbol_and_errors():
    assert build_huffman([1.0]) == [(1, 0)]
    with pytest.raises(EmptyAlphabet):
        build_huffman([])
    with pytest.raises(EmptyAlphabet):
        build_huffman([0.0, 0.0])
    with pytest.raises(InvalidHistogram):
        build_huffman([0.5, -0.5])


def test_huffman_zero_probability_symbols_stay_decodable():
    words = build_huffman([0.9, 0.1, 0.0, 0.0])
    assert len(words) == 4
    assert all(l >= 1 for l, _ in words)
    # Zero-mass symbols take the longest codewords.
    assert max(l for l, _ in words) == max(words[2][0], words[3][0])


def test_huffman_kraft_equality():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        probs = rng.dirichlet(np.ones(n))
        words = build_huffman(probs)
        assert sum(2.0 ** -l for l, _ in words) == pytest.approx(1.0)


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=12))
@settings(max_examples=100, deadline=None)
def test_huffman_entropy_sandwich(weights):
    p = np.array(weights) / sum(weights)
    words = build_huffman(p)
    mean_len = sum(pi * l for pi, (l, _) in zip(p, words))
    h = -sum(pi * math.log2(pi) for pi in p if pi > 0)
    assert h - 1e-9 <= mean_len <= h + 1.0 + 1e-9


def test_estimate_level_probs_uniform():
    class Uniform:
        def moments_below(self, x):
            x = np.asarray(x, dtype=np.float64)
            return np.stack([x, x ** 2 / 2, x ** 3 / 3], axis=-1)

    row = estimate_level_probs(Uniform(), LevelSequence([0.0, 0.5, 1.0]))
    assert np.allclose(row, [0.25, 0.5, 0.25])
    assert row.sum() == pytest.approx(1.0)


def test_histogram_validation():
    fam = _fam_single()
    validate_histogram([np.array([0.25, 0.5, 0.25])], fam)
    with pytest.raises(InvalidHistogram):
        validate_histogram([np.array([0.5, 0.5])], fam)  # wrong length
    with pytest.raises(InvalidHistogram):
        validate_histogram([np.array([0.7, 0.5, -0.2])], fam)
    with pytest.raises(InvalidHistogram):
        validate_histogram([np.array([0.3, 0.3, 0.3])], fam)
    with pytest.raises(InvalidHistogram):
        validate_histogram([np.ones(3) / 3, np.ones(3) / 3], fam)


def _fam_single(d=2):
    return LevelFamily([LevelSequence([0.0, 0.5, 1.0])], np.zeros(d, dtype=np.int64))


def _fam_two(d=4):
    assign = np.array([0] * (d // 2) + [1] * (d - d // 2))
    return LevelFamily(
        [LevelSequence([0.0, 0.5, 1.0]), LevelSequence([0.0, 0.25, 1.0])], assign
    )


def _hist_for(fam):
    return [np.ones(s.alpha + 2) / (s.alpha + 2) for s in fam.sequences]


def test_build_codebook_requires_histogram_for_huffman():
    fam = _fam_single()
    with pytest.raises(ValueError):
        build_codebook(fam)
    build_codebook(fam, scheme="elias")  # no histogram needed


def test_build_codebook_rejects_unknown_names():
    fam = _fam_single()
    with pytest.raises(ValueError):
        build_codebook(fam, _hist_for(fam), protocol="simplex")
    with pytest.raises(ValueError):
        build_codebook(fam, _hist_for(fam), scheme="arithmetic")


def test_codebook_covers_every_pair_and_kraft():
    fam = _fam_two()
    books = build_codebook(fam, _hist_for(fam))
    assert len(books.words) == sum(s.alpha + 2 for s in fam.sequences)
    assert all(length >= 1 for length, _ in books.words)
    assert all(s == pytest.approx(1.0) for s in _kraft_sums(books))


def test_alternating_codebook_is_globally_prefix_free():
    fam = _fam_two()
    books = build_codebook(fam, _hist_for(fam), protocol="alternating")
    words = [_bits(*w) for w in books.words]
    assert len(set(words)) == len(words)
    for i, a in enumerate(words):
        for b in words[i + 1 :]:
            assert not a.startswith(b) and not b.startswith(a)
    # One shared scope, so the global Kraft sum is 1.
    assert _kraft_sums(books) == [pytest.approx(1.0)]


def test_encode_frozen_wire_example():
    # Norm 5.0 is 0x40a00000 as a big-endian float32.  With histogram
    # (0.25, 0.5, 0.25) the canonical book is level1 -> "0", level0 -> "10",
    # level2 -> "11".  Payload for indices (1, 2), signs (+, -):
    # "0" + signbit 0, then "11" + signbit 1, padded to "00111000" = 0x38.
    fam = _fam_single()
    books = build_codebook(fam, [np.array([0.25, 0.5, 0.25])])
    qv = QuantizedVector(5.0, [1, -1], [1, 2], fam.fingerprint())
    msg = encode(qv, books)
    assert msg.nbits == 37
    assert msg.data == bytes.fromhex("40a0000038")


def test_zero_norm_message_is_exactly_the_header():
    fam = _fam_single()
    books = build_codebook(fam, _hist_for(fam))
    qv = QuantizedVector(0.0, [1, 1], [0, 0], fam.fingerprint())
    msg = encode(qv, books)
    assert msg.nbits == 32
    assert msg.data == bytes(4)
    back = decode(msg, books)
    assert back == qv


def test_encode_rejects_mismatched_family():
    fam, other = _fam_single(), _fam_two()
    books = build_codebook(fam, _hist_for(fam))
    qv = QuantizedVector(1.0, [1, 1], [0, 0], other.fingerprint())
    with pytest.raises(ValueError):
        encode(qv, books)


def test_encode_rejects_a_norm_beyond_float32():
    fam = _fam_single()
    books = build_codebook(fam, _hist_for(fam))
    with pytest.raises(OverflowError):
        encode(QuantizedVector(1e39, [1, 1], [1, 1], fam.fingerprint()), books)
    largest = float(np.finfo(np.float32).max)
    qv = QuantizedVector(largest, [1, 1], [1, 1], fam.fingerprint())
    assert decode(encode(qv, books), books) == qv


def test_roundtrip_random_vectors_all_modes():
    rng = np.random.default_rng(2024)
    fam = _fam_two(d=6)
    for protocol in ("main", "alternating"):
        for scheme in ("huffman", "elias"):
            books = build_codebook(fam, _hist_for(fam), protocol, scheme)
            for _ in range(40):
                qv = quantize_vector(rng.standard_normal(6), fam, rng=rng)
                back = decode(encode(qv, books), books)
                assert back == qv


def test_batch_encode_decode_match_single():
    rng = np.random.default_rng(11)
    fam = _fam_two(d=5)
    books = build_codebook(fam, _hist_for(fam))
    V = rng.standard_normal((7, 5))
    norms, signs, idx = quantize_batch(V, fam, rng=rng)
    msgs = encode_batch(norms, signs, idx, books)
    for k in range(7):
        qv = QuantizedVector(norms[k], signs[k], idx[k], fam.fingerprint())
        assert msgs[k].data == encode(qv, books).data
    dn, ds, di = decode_batch(msgs, books)
    assert np.array_equal(dn, norms)
    assert np.array_equal(ds, signs)
    assert np.array_equal(di, idx)


def _fam_scattered():
    # Three types of different sizes on a non-contiguous assignment.
    return LevelFamily(
        [
            LevelSequence([0.0, 0.5, 1.0]),
            LevelSequence([0.0, 0.1, 0.3, 0.6, 1.0]),
            LevelSequence([0.0, 1.0]),
        ],
        np.array([1, 0, 2, 1, 1, 0, 2, 0, 1]),
    )


@pytest.mark.parametrize("protocol", ["main", "alternating"])
@pytest.mark.parametrize("scheme", ["huffman", "elias"])
def test_message_bits_match_encoded_lengths(protocol, scheme):
    rng = np.random.default_rng(5)
    fam = _fam_scattered()
    # Skewed histograms give codewords of several lengths.
    hist = [rng.dirichlet(np.ones(s.alpha + 2)) for s in fam.sequences]
    books = build_codebook(fam, hist, protocol, scheme)
    V = rng.standard_normal((12, 9)) * rng.choice([1e-3, 1.0, 1e3], size=(12, 1))
    V[[2, 7]] = 0.0
    norms, signs, idx = quantize_batch(V, fam, rng=rng)
    counted = _message_bits(books, norms, idx)
    assert counted.tolist() == [m.nbits for m in encode_batch(norms, signs, idx, books)]
    assert counted[2] == counted[7] == 32


# sha256 of every message's bytes and 4-byte big-endian nbits, and the
# codewords in (type, level) order, for the books and batches below.
_FROZEN_WIRE = {
    ("main", "huffman"): (
        "235dc1f2c70aa0f3bd46d18a73157c5a476344a2f700c16c71f43bdf51049f75",
        [(1, 0), (2, 2), (2, 3), (3, 6), (4, 14), (1, 0), (2, 2), (4, 15), (1, 0), (1, 1)],
    ),
    ("main", "elias"): (
        "c03e8f21311a3dacd0a89908ce29830bf634231357f363e483cfccfd645257f5",
        [(1, 0), (3, 4), (3, 6), (1, 0), (3, 4), (3, 6), (6, 40), (6, 42), (1, 0), (3, 4)],
    ),
    ("alternating", "huffman"): (
        "b7dd495dee7653d2e3094094c1bf2906c7393e19b0d677997167f652ced9991a",
        [(2, 0), (6, 63), (5, 30), (4, 12), (6, 62), (2, 1), (4, 13), (4, 14), (3, 4), (3, 5)],
    ),
    ("alternating", "elias"): (
        "09a128fbf3cc5f3c90df2dd89de0279a1d069c24ac2d21fc9800c22720a9da28",
        [(1, 0), (6, 44), (7, 112), (3, 4), (6, 40), (6, 42), (6, 46), (7, 114), (3, 6), (7, 116)],
    ),
}


@pytest.mark.parametrize("protocol, scheme", sorted(_FROZEN_WIRE))
def test_wire_is_frozen(protocol, scheme):
    rng = np.random.default_rng(41)
    fam = _fam_scattered()
    hist = [rng.dirichlet(np.ones(s.alpha + 2)) for s in fam.sequences]
    books = build_codebook(fam, hist, protocol, scheme)
    h = hashlib.sha256()
    for rows in (16, 1, 5):
        V = rng.standard_normal((rows, 9)) * rng.choice([1e-3, 1.0, 1e3], size=(rows, 1))
        V[1::5] = 0.0
        norms, signs, idx = quantize_batch(V, fam, rng=rng)
        for msg in encode_batch(norms, signs, idx, books):
            h.update(msg.data + msg.nbits.to_bytes(4, "big"))
    # ``words`` lists the codewords in (type, level) order.
    assert (h.hexdigest(), books.words) == _FROZEN_WIRE[(protocol, scheme)]


def test_message_bits_rejects_indices_outside_the_book():
    fam = _fam_two(d=4)  # two levels per type plus the endpoints: indices 0..2
    books = build_codebook(fam, _hist_for(fam))
    with pytest.raises(MissingCodeword):
        _message_bits(books, [1.0], [[0, 3, 0, 0]])
    with pytest.raises(MissingCodeword):
        _message_bits(books, [1.0], [[0, 0, -1, 0]])
    with pytest.raises(ValueError):
        _message_bits(books, [1.0], [[0, 0, 0]])
    # A zero-norm row is its bare header and unchecked, as in encode.
    assert _message_bits(books, [0.0], [[0, 9, 0, 0]]).tolist() == [32]
    qv = QuantizedVector(0.0, [1] * 4, [0, 9, 0, 0], fam.fingerprint())
    assert encode(qv, books).nbits == 32


@pytest.mark.parametrize("protocol", ["main", "alternating"])
def test_encode_rejects_indices_outside_the_book(protocol):
    # One check before encoding names the first uncovered (type, level) pair
    # in row-major order; a zero-norm row is the bare header and unchecked.
    fam = _fam_two(d=4)  # indices 0..2 for both types
    books = build_codebook(fam, _hist_for(fam), protocol)
    fid = fam.fingerprint()
    with pytest.raises(MissingCodeword, match="no codeword for type 1, level 3"):
        encode(QuantizedVector(1.0, [1] * 4, [0, 1, 0, 3], fid), books)
    with pytest.raises(MissingCodeword, match="no codeword for type 0, level -1"):
        encode(QuantizedVector(1.0, [1] * 4, [0, -1, 5, 0], fid), books)
    norms = np.array([1.0, 0.0, 2.0])
    idx = np.array([[0, 1, 2, 1], [0, 7, 0, 0], [2, 0, 0, 3]])
    with pytest.raises(MissingCodeword, match="no codeword for type 1, level 3"):
        encode_batch(norms, np.ones((3, 4), dtype=np.int8), idx, books)
    msgs = encode_batch(norms[:2], np.ones((2, 4), dtype=np.int8), idx[:2], books)
    assert msgs[1].nbits == 32
    assert encode(QuantizedVector(0.0, [1] * 4, [0, 9, 0, 0], fid), books).nbits == 32
    # A row of the wrong dimension used to encode a message that decoded
    # to other indices without an error.
    for d in (3, 5):
        with pytest.raises(ValueError, match="dimension"):
            encode(QuantizedVector(1.0, [1] * d, [1] * d, fid), books)


def test_verify_wire_checks_roundtrip_and_counted_bits():
    rng = np.random.default_rng(8)
    fam = _fam_scattered()
    books = build_codebook(fam, _hist_for(fam), "alternating")
    norms, signs, idx = quantize_batch(rng.standard_normal((4, 9)), fam, rng=rng)
    bits = int(_message_bits(books, norms, idx).sum())
    codec.verify_wire(norms, signs, idx, books, bits)
    with pytest.raises(codec.WireMismatch):
        codec.verify_wire(norms, signs, idx, books, bits + 1)
    # A level-0 coordinate sends no sign bit, so a negative sign there
    # cannot survive the roundtrip.
    bad = signs.copy()
    bad[idx == 0] = -1
    assert (idx == 0).any()
    with pytest.raises(codec.WireMismatch):
        codec.verify_wire(norms, bad, idx, books, bits)


def test_decode_rejects_truncation():
    fam = _fam_single()
    books = build_codebook(fam, _hist_for(fam))
    qv = quantize_vector([3.0, -4.0], fam, rng=np.random.default_rng(1))
    msg = encode(qv, books)
    with pytest.raises(TruncatedMessage):
        decode(codec.EncodedMessage(msg.data[:4], 32), books)
    with pytest.raises(TruncatedMessage):
        decode(codec.EncodedMessage(msg.data[:3], 24), books)


@pytest.mark.parametrize("protocol", ["main", "alternating"])
def test_decode_rejects_a_message_cut_before_a_sign_bit(protocol):
    # Halving probabilities over 10 levels give level 7 an 8-bit codeword,
    # so its message is 32 + 8 + 1 bits and its first 5 bytes end exactly
    # where the sign bit begins.
    fam = LevelFamily([LevelSequence(np.linspace(0.0, 1.0, 10))], np.zeros(1, dtype=np.int64))
    probs = 0.5 ** np.arange(1, 11)
    probs[-1] = probs[-2]
    books = build_codebook(fam, [probs], protocol)
    assert books.words[7][0] == 8
    qv = QuantizedVector(1.0, [-1], [7], fam.fingerprint())
    msg = encode(qv, books)
    assert msg.nbits == 41
    assert decode(msg, books) == qv
    with pytest.raises(TruncatedMessage):
        decode(codec.EncodedMessage(msg.data[:5], 40), books)


@pytest.mark.parametrize("protocol", ["main", "alternating"])
@pytest.mark.parametrize("scheme", ["huffman", "elias"])
def test_kraft_sums_count_codewords_not_wire_strings(protocol, scheme):
    # Each positive level's codeword is split into its two signed wire
    # strings, one bit longer, which add up to the codeword's Kraft term.
    fam = _fam_scattered()  # types of 3, 5 and 2 levels
    books = build_codebook(fam, _hist_for(fam), protocol, scheme)
    starts, sizes = fam.level_starts()
    kraft = [sum(2.0 ** -l for l, _ in books.words[a:a + n]) for a, n in zip(starts, sizes)]
    if protocol == "alternating":
        kraft = [sum(kraft)]
    assert _kraft_sums(books) == kraft
    strings = books._strings.lengths.size
    assert strings == 2 * len(books.words) - fam.num_types


def _halving_hist(n):
    # Halving probabilities give Huffman lengths 1, 2, ..., n - 1, n - 1.
    fam = LevelFamily([LevelSequence(np.linspace(0.0, 1.0, n))], np.zeros(n, dtype=np.int64))
    probs = 0.5 ** np.arange(1, n + 1)
    probs[-1] = probs[-2]
    return fam, [probs]


@pytest.mark.parametrize("n", [24, 80])
@pytest.mark.parametrize("protocol", ["main", "alternating"])
def test_roundtrip_with_long_codewords(protocol, n):
    # 23- and 79-bit codewords: longer than 20 bits, beyond which a flat
    # 2^max_len decoding table is unaffordable, and wider than 64 bits.
    fam, hist = _halving_hist(n)
    books = build_codebook(fam, hist, protocol)
    assert max(l for l, _ in books.words) == n - 1 > 20
    rng = np.random.default_rng(3)
    idx = rng.permutation(n)
    signs = np.where(idx > 0, rng.choice([-1, 1], size=n), 1)
    qv = QuantizedVector(2.5, signs, idx, fam.fingerprint())
    msg = encode(qv, books)
    assert decode(msg, books) == qv
    assert _message_bits(books, [qv.norm], [idx]).tolist() == [msg.nbits]
    with pytest.raises(TruncatedMessage):
        decode(codec.EncodedMessage(msg.data[:-3], msg.nbits - 24), books)


def _traced_peak(f):
    """(f(), the peak bytes tracemalloc saw while f ran)."""
    tracemalloc.start()
    try:
        out = f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_building_a_book_with_20_bit_codewords_stays_small():
    fam, hist = _halving_hist(21)
    books, peak = _traced_peak(lambda: build_codebook(fam, hist))
    assert max(l for l, _ in books.words) == 20
    assert peak < 1 << 20


def test_building_a_book_with_80_bit_codewords_stays_small():
    # Wire strings of 81 bits take two 57-bit digits in the decoder's table.
    fam, hist = _halving_hist(81)
    books, peak = _traced_peak(lambda: build_codebook(fam, hist))
    assert max(l for l, _ in books.words) == 80
    assert peak < 1 << 20


def _payload_message(bits):
    # A norm-1 header followed by the given payload bit string.
    header = struct.unpack(">I", struct.pack(">f", 1.0))[0]
    nbits = 32 + len(bits)
    acc = (header << len(bits)) | int(bits, 2)
    pad = -nbits % 8
    return codec.EncodedMessage((acc << pad).to_bytes((nbits + pad) // 8, "big"), nbits)


def test_decode_rejects_bits_in_a_gap_of_an_elias_book():
    # Elias omega over 3 ranks is {0, 100, 110}: Kraft sum 3/4, and the
    # payloads 101... and 111... match no codeword.
    fam = _fam_single()
    books = build_codebook(fam, scheme="elias")
    assert _kraft_sums(books) == [0.75]
    assert decode(_payload_message("0" + "1000"), books).level_idx.tolist() == [0, 1]
    for bits in ("1010", "1110", "0" + "101"):
        with pytest.raises(InvalidCodeword):
            decode(_payload_message(bits), books)


def test_decode_rejects_bits_below_the_lowest_codeword():
    # No codeword starts with 00, so a payload starting 00 lies below the
    # first sorted codeword; it must not wrap around to the last one.
    fam = _fam_single()
    words = [(2, 0b01), (2, 0b10), (2, 0b11)]
    books = Codebook(words, [range(3)], fam)
    assert decode(_payload_message("01" + "111"), books).level_idx.tolist() == [0, 2]
    for bits in ("0001", "01" + "00"):
        with pytest.raises(InvalidCodeword):
            decode(_payload_message(bits), books)


def test_decode_rejects_trailing_bytes_and_dirty_padding():
    fam = _fam_single()
    books = build_codebook(fam, _hist_for(fam))
    qv = quantize_vector([3.0, -4.0], fam, rng=np.random.default_rng(1))
    msg = encode(qv, books)
    with pytest.raises(TrailingBits):
        decode(codec.EncodedMessage(msg.data + b"\x00", msg.nbits), books)
    dirty = bytearray(msg.data)
    if msg.nbits % 8:
        dirty[-1] |= 1
        with pytest.raises(TrailingBits):
            decode(codec.EncodedMessage(bytes(dirty), msg.nbits), books)


def test_decode_rejects_payload_on_zero_norm():
    fam = _fam_single()
    books = build_codebook(fam, _hist_for(fam))
    with pytest.raises(TrailingBits):
        decode(codec.EncodedMessage(bytes(5), 40), books)


def test_decode_rejects_negative_or_nan_norm_header():
    fam = _fam_single()
    books = build_codebook(fam, _hist_for(fam))
    for bad in (-1.0, float("nan")):
        data = struct.pack(">f", bad)
        with pytest.raises(InvalidCodeword):
            decode(codec.EncodedMessage(data, 32), books)


def test_alternating_decode_rejects_wrong_type_codeword():
    # Under the alternating protocol a codeword identifies its type; feeding
    # coordinate 0 (type 0) a codeword belonging to type 1 must fail loudly.
    fam = LevelFamily(
        [LevelSequence([0.0, 0.5, 1.0]), LevelSequence([0.0, 0.25, 1.0])],
        np.array([0, 1]),
    )
    books = build_codebook(fam, _hist_for(fam), protocol="alternating")
    l0, c0 = books.words[3 + 1]  # type 1, level 1: type 0 has three levels
    header = struct.unpack(">I", struct.pack(">f", 1.0))[0]
    nbits = 32 + l0
    acc = (header << l0) | c0
    pad = -nbits % 8
    data = (acc << pad).to_bytes((nbits + pad) // 8, "big")
    with pytest.raises((InvalidCodeword, TruncatedMessage)):
        decode(codec.EncodedMessage(data, nbits), books)


def test_code_length_bound_frozen_example():
    # 32 header bits + 2 * (H(0.25, 0.5, 0.25) + 1) codeword bits
    # + 2 * 0.75 sign bits = 32 + 5 + 1.5 = 38.5, identical under both
    # protocols for a single-type family.
    fam = _fam_single()
    hist = [np.array([0.25, 0.5, 0.25])]
    assert code_length_bound(hist, fam) == pytest.approx(38.5)
    assert code_length_bound(hist, fam, protocol="alternating") == pytest.approx(38.5)


def test_code_length_bound_alternating_adds_type_entropy():
    fam = _fam_two(d=4)
    hist = _hist_for(fam)
    main = code_length_bound(hist, fam)
    alt = code_length_bound(hist, fam, protocol="alternating")
    # Equal type proportions add exactly one bit per coordinate.
    assert alt == pytest.approx(main + 4.0)


def test_measured_bits_respect_bound():
    rng = np.random.default_rng(77)
    fam = _fam_two(d=32)
    rows = [rng.dirichlet(np.ones(s.alpha + 2)) for s in fam.sequences]
    for protocol in ("main", "alternating"):
        books = build_codebook(fam, rows, protocol)
        total = 0
        n = 400
        for _ in range(n):
            idx = np.concatenate(
                [
                    rng.choice(len(rows[m]), size=fam.counts[m], p=rows[m])
                    for m in range(fam.num_types)
                ]
            ).astype(np.int32)
            signs = np.where(idx > 0, rng.choice([-1, 1], size=32), 1).astype(np.int8)
            qv = QuantizedVector(1.0, signs, idx, fam.fingerprint())
            total += encode(qv, books).nbits
        assert total / n <= code_length_bound(rows, fam, protocol)


def test_empty_batch_goes_through_the_wire():
    fam = _fam_scattered()
    books = build_codebook(fam, scheme="elias")
    norms, signs, idx = quantize_batch(np.zeros((0, 9)), fam, rng=np.random.default_rng(0))
    assert encode_batch(norms, signs, idx, books) == []
    got = decode_batch([], books)
    assert [(a.shape, a.dtype) for a in got] == [
        ((0,), np.float64), ((0, 9), np.int8), ((0, 9), np.int32)]
    codec.verify_wire(norms, signs, idx, books, 0)


@pytest.mark.parametrize("regime", ["warnings", "errstate"])
@pytest.mark.parametrize("header", ["7fa00000", "7fb4faf9", "ffa00001", "7fc00000"])
def test_a_nan_norm_header_is_an_invalid_codeword(regime, header):
    # A signalling NaN (quiet bit clear) raises numpy's "invalid" flag when
    # it is widened to float64; it must be rejected like a quiet NaN, with
    # warnings as errors and under the solver's errstate alike.
    fam = _fam_scattered()
    books = build_codebook(fam, scheme="elias")
    good = encode_batch([1.0], np.ones((1, 9), np.int8), np.ones((1, 9), np.int32), books)[0]
    bad = codec.EncodedMessage(bytes.fromhex(header) + good.data[4:], good.nbits)
    strict = (warnings.catch_warnings() if regime == "warnings"
              else np.errstate(over="raise", invalid="raise"))
    with strict:
        if regime == "warnings":
            warnings.simplefilter("error")
        with pytest.raises(InvalidCodeword, match="norm header"):
            decode(bad, books)
        with pytest.raises(InvalidCodeword, match="norm header"):
            decode_batch([good, bad], books)


def _draw_book(data):
    """A codebook over a drawn family: random (contiguous or scattered, 1-4
    types), ``_fam_scattered`` or a halving book with 23- or 79-bit codewords."""
    protocol = data.draw(st.sampled_from(["main", "alternating"]))
    scheme = data.draw(st.sampled_from(["huffman", "elias"]))
    kind = data.draw(st.sampled_from(["contiguous", "scattered", "fixed", "halving"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "halving":
        fam, hist = _halving_hist(data.draw(st.sampled_from([24, 80])))
    else:
        if kind == "fixed":
            fam = _fam_scattered()
        else:
            M = data.draw(st.integers(1, 4))
            seqs = [LevelSequence(np.concatenate(([0.0], np.sort(rng.random(a)), [1.0])))
                    for a in rng.integers(0, 7, M)]
            assign = rng.integers(0, M, data.draw(st.integers(1, 12)))
            fam = LevelFamily(seqs, np.sort(assign) if kind == "contiguous" else assign)
        hist = [rng.dirichlet(np.full(s.alpha + 2, 0.3)) for s in fam.sequences]
    return build_codebook(fam, hist, protocol, scheme), fam, rng


def _random_rows(fam, rng):
    """Rows at every level of every type, with zero, tiny and huge norms."""
    K = int(rng.integers(1, 5))
    size = fam.flat_levels()[2]
    idx = (rng.random((K, size.size)) * size).astype(np.int32)
    signs = np.where((idx > 0) & (rng.random(idx.shape) < 0.5), -1, 1).astype(np.int8)
    norms = rng.choice([0.0, 1e-45, 1.0, 3e38], K) * rng.random(K)
    norms = norms.astype(np.float32).astype(np.float64)
    # A zero-norm row is sent as its bare header: level 0 and sign +1.
    idx[norms == 0.0] = 0
    signs[norms == 0.0] = 1
    return norms, signs, idx


def _outcome(f):
    """f()'s result, or the class of the exception it raised."""
    try:
        return f()
    except (TruncatedMessage, InvalidCodeword, TrailingBits) as err:
        return type(err)


def _corrupted(data, nbits, rng):
    """The message truncated, bit-flipped, byte-appended and with dirty padding."""
    flip = bytearray(data)
    bit = int(rng.integers(0, 8 * len(data)))
    flip[bit // 8] ^= 0x80 >> bit % 8
    out = [data[:int(rng.integers(0, len(data)))], bytes(flip),
           data + bytes([int(rng.integers(0, 256))])]
    if nbits % 8:
        out.append(data[:-1] + bytes([data[-1] | 1 << int(rng.integers(0, -nbits % 8))]))
    return out


def _reference_decode(data, books):
    norm, idx, signs = reference.decode_message(data, books)
    return norm, list(signs), list(idx)


def _decode(data, books):
    qv = decode(codec.EncodedMessage(data, 0), books)
    return qv.norm, qv.signs.tolist(), qv.level_idx.tolist()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_wire_matches_the_per_coordinate_reference(data):
    books, fam, rng = _draw_book(data)
    norms, signs, idx = _random_rows(fam, rng)
    msgs = encode_batch(norms, signs, idx, books)
    assert [(m.data, m.nbits) for m in msgs] == reference.encode_batch(norms, signs, idx, books)
    got = decode_batch(msgs, books)
    for a, b in zip(got, (norms, signs, idx)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    corrupt = [_corrupted(m.data, m.nbits, rng) for m in msgs]
    for bad in corrupt:
        for msg in bad:
            assert _outcome(lambda: _decode(msg, books)) == _outcome(
                lambda: _reference_decode(msg, books))
    # A batch raises the error of its first failing message.
    batch = [bad[int(rng.integers(0, len(bad)))] for bad in corrupt]
    first = next((r for r in (_outcome(lambda: _reference_decode(msg, books)) for msg in batch)
                  if isinstance(r, type)), None)
    got = _outcome(lambda: decode_batch([codec.EncodedMessage(x, 0) for x in batch], books))
    assert got == first if first else isinstance(got, tuple)


def _python_calls(f):
    """Python and C function calls made while f runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        f()
    finally:
        sys.setprofile(None)
    return calls


def _layered(d, protocol, scheme):
    """A K = 4 batch and its book for four contiguous types of d / 4 coordinates."""
    sizes = [d // 4] * 3 + [d - 3 * (d // 4)]
    fam = LevelFamily([LevelSequence(np.linspace(0.0, 1.0, a + 2)) for a in (2, 3, 5, 7)],
                      assignment_from_layer_sizes(sizes))
    books = build_codebook(fam, _hist_for(fam), protocol, scheme)
    rng = np.random.default_rng(0)
    return quantize_batch(rng.standard_normal((4, d)), fam, rng=rng), books


@pytest.mark.parametrize("protocol, scheme", [("main", "huffman"), ("alternating", "elias")])
def test_wire_calls_do_not_grow_with_the_dimension(protocol, scheme):
    calls = []
    for d in (250, 4000):
        rows, books = _layered(d, protocol, scheme)
        msgs = encode_batch(*rows, books)
        calls.append(_python_calls(lambda: (encode_batch(*rows, books),
                                            decode_batch(msgs, books))))
    assert calls[1] <= 2 * calls[0]


def test_verify_wire_stays_small():
    rows, books = _layered(1000, "alternating", "elias")
    bits = int(_message_bits(books, rows[0], rows[2]).sum())
    codec.verify_wire(*rows, books, bits)
    _, peak = _traced_peak(lambda: codec.verify_wire(*rows, books, bits))
    assert peak < 2 << 20

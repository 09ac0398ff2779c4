"""Canonical length-limited Huffman coding.

The reference functions below are the library's earlier per-symbol
implementations: a ``heapq`` tree build, the shift-and-increment
canonical coder and a slice-filled decode table read one bit window at
a time.  The array kernels must match them exactly, on damaged and
over-subscribed tables too.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bzip2.huffman import (
    MAX_CODE_LEN,
    HuffmanCode,
    canonical_codes,
    huffman_code_lengths,
    huffman_decode,
    huffman_encode,
)
from repro.lzss.parse import reachable_from
from repro.util.bitio import unpack_bits


def code_lengths_reference(freqs, max_len=MAX_CODE_LEN):
    """Heap Huffman build: (weight, tiebreak, symbols) entries, a
    leaf's tiebreak its symbol, a merged node's a counter above every
    symbol; halve the weights and rebuild while too deep."""
    freqs = np.asarray(freqs, dtype=np.int64)
    present = np.nonzero(freqs)[0]
    lengths = np.zeros(freqs.size, dtype=np.int64)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    work = freqs.copy()
    while True:
        heap = [(int(work[s]), int(s), [int(s)]) for s in np.nonzero(work)[0]]
        heapq.heapify(heap)
        depth = np.zeros(freqs.size, dtype=np.int64)
        counter = freqs.size
        while len(heap) > 1:
            w1, _, s1 = heapq.heappop(heap)
            w2, _, s2 = heapq.heappop(heap)
            for s in s1 + s2:
                depth[s] += 1
            heapq.heappush(heap, (w1 + w2, counter, s1 + s2))
            counter += 1
        if int(depth.max()) <= max_len:
            return depth
        work = np.where(work > 0, (work + 1) // 2, 0)


def canonical_codes_reference(lengths):
    """The shift-and-increment loop over (length, symbol) order."""
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.int64)
    code = prev_len = 0
    for sym in np.lexsort((np.arange(lengths.size), lengths)):
        ln = int(lengths[sym])
        if ln == 0:
            continue
        code <<= ln - prev_len
        codes[sym] = code
        code += 1
        prev_len = ln
    return codes


def decode_reference(payload, nbits, code, n_symbols):
    """One table slice per symbol, ``max_len`` shifted adds of bits."""
    if n_symbols == 0:
        return np.zeros(0, dtype=np.int64)
    ml = code.max_len
    if ml == 0:
        raise ValueError("empty code table")
    lut_sym = np.zeros(1 << ml, dtype=np.int64)
    lut_len = np.zeros(1 << ml, dtype=np.int64)
    for sym in np.nonzero(code.lengths)[0]:
        ln = int(code.lengths[sym])
        base = int(code.codes[sym]) << (ml - ln)
        lut_sym[base:base + (1 << (ml - ln))] = sym
        lut_len[base:base + (1 << (ml - ln))] = ln
    bits = unpack_bits(payload, min(nbits, 8 * len(payload)))
    padded = np.concatenate([bits, np.zeros(ml, dtype=np.uint8)])
    npos = bits.size
    if npos == 0:
        raise ValueError("empty Huffman stream")
    windows = np.zeros(npos, dtype=np.int64)
    for k in range(ml):
        windows += padded[k:k + npos].astype(np.int64) << (ml - 1 - k)
    step = lut_len[windows]
    starts = reachable_from(np.arange(npos) + np.maximum(step, 1), 0)
    if starts.size < n_symbols:
        raise ValueError("corrupt Huffman stream: ran out of bits")
    kept = starts[:n_symbols]
    if not (step[kept] > 0).all():
        raise ValueError("corrupt Huffman stream: unknown prefix")
    return lut_sym[windows[kept]]


def _outcome(decode, *args):
    try:
        return decode(*args).tolist()
    except ValueError as exc:
        return str(exc)


#: Frequencies with ties (small counts), absent symbols (0) and heavy
#: skew (powers of two up to 2^40).
freq_tables = st.lists(
    st.one_of(st.just(0), st.integers(1, 4), st.integers(1, 10_000),
              st.integers(0, 40).map(lambda k: 1 << k)),
    min_size=1, max_size=300)


def kraft_sum(lengths: np.ndarray) -> float:
    return sum(2.0 ** -int(ln) for ln in lengths if ln > 0)


class TestCodeLengths:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 10_000), min_size=2, max_size=64))
    def test_kraft_equality(self, freqs):
        freqs = np.array(freqs)
        if (freqs > 0).sum() < 2:
            return
        lengths = huffman_code_lengths(freqs)
        assert kraft_sum(lengths) == pytest.approx(1.0)

    def test_single_symbol_gets_one_bit(self):
        lengths = huffman_code_lengths(np.array([0, 7, 0]))
        assert lengths.tolist() == [0, 1, 0]

    def test_empty(self):
        assert huffman_code_lengths(np.zeros(5, dtype=int)).sum() == 0

    def test_uniform_frequencies_balanced(self):
        lengths = huffman_code_lengths(np.full(8, 10))
        assert set(lengths.tolist()) == {3}

    def test_skew_respects_depth_limit(self):
        # Fibonacci-ish frequencies normally produce deep trees
        freqs = np.array([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233,
                          377, 610, 987, 1597, 2584, 4181, 6765, 10946,
                          17711, 28657, 46368, 75025])
        lengths = huffman_code_lengths(freqs)
        assert lengths.max() <= MAX_CODE_LEN
        assert kraft_sum(lengths) <= 1.0 + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(freq_tables, st.integers(1, MAX_CODE_LEN))
    def test_matches_heap_build(self, freqs, max_len):
        freqs = np.array(freqs, dtype=np.int64)
        max_len = max(max_len, (int((freqs > 0).sum()) - 1).bit_length())
        assert huffman_code_lengths(freqs, max_len).tolist() == \
            code_lengths_reference(freqs, max_len).tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.integers(0, 40), min_size=10, max_size=41),
           st.integers(0, 4), st.randoms(use_true_random=False))
    def test_matches_heap_build_at_the_depth_cap(self, powers, slack,
                                                 random):
        # Distinct powers of two chain into a tree n - 1 deep, past
        # max_len: the limiter must halve exactly as the heap build did.
        weights = [1 << k for k in powers] + [0] * random.randint(0, 20)
        random.shuffle(weights)
        freqs = np.array(weights, dtype=np.int64)
        max_len = (len(powers) - 1).bit_length() + slack
        assert code_lengths_reference(freqs, 64).max() > max_len
        got = huffman_code_lengths(freqs, max_len)
        assert got.max() <= max_len
        assert got.tolist() == code_lengths_reference(freqs, max_len).tolist()

    @pytest.mark.parametrize("n", [2, 3, 10, 64, 257, 258])
    def test_all_ones_build_the_balanced_tree(self, n):
        need = (n - 1).bit_length()
        lengths = huffman_code_lengths(np.ones(n, dtype=np.int64), need)
        assert lengths.max() == need
        assert kraft_sum(lengths) == pytest.approx(1.0)

    def test_max_len_too_short_raises(self):
        # Ten symbols need 4 bits; a 3-bit limit used to halve forever.
        with pytest.raises(ValueError, match="too short for 10 symbols"):
            huffman_code_lengths(np.ones(10, dtype=np.int64), 3)
        with pytest.raises(ValueError):
            HuffmanCode.from_frequencies(np.arange(1, 300), 8)
        assert huffman_code_lengths(np.ones(10, dtype=np.int64), 4).max() == 4

    def test_more_frequent_never_longer(self):
        freqs = np.array([100, 1, 50, 5])
        lengths = huffman_code_lengths(freqs)
        assert lengths[0] <= lengths[1]
        assert lengths[2] <= lengths[3]


class TestCanonical:
    def test_prefix_free(self):
        freqs = np.array([50, 30, 10, 5, 3, 2])
        code = HuffmanCode.from_frequencies(freqs)
        words = []
        for sym in range(freqs.size):
            ln = int(code.lengths[sym])
            if ln:
                words.append(format(int(code.codes[sym]), f"0{ln}b"))
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                if i != j:
                    assert not b.startswith(a)

    def test_lengths_table_reconstructs_codes(self):
        freqs = np.array([9, 5, 3, 1, 1])
        code = HuffmanCode.from_frequencies(freqs)
        rebuilt = HuffmanCode.from_lengths(code.lengths)
        assert rebuilt.codes.tolist() == code.codes.tolist()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 15), max_size=300))
    def test_matches_loop_coder(self, lengths):
        # Arbitrary tables: over- and under-subscribed, or empty.
        lengths = np.array(lengths, dtype=np.int64)
        assert canonical_codes(lengths).tolist() == \
            canonical_codes_reference(lengths).tolist()

    def test_canonical_ordering(self):
        lengths = np.array([2, 1, 3, 3])
        codes = canonical_codes(lengths)
        # shorter code numerically extends: 0, 10, 110, 111
        assert codes.tolist() == [0b10, 0b0, 0b110, 0b111]


class TestEncodeDecode:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=500))
    def test_roundtrip(self, syms):
        syms = np.array(syms)
        freqs = np.bincount(syms, minlength=21)
        code = HuffmanCode.from_frequencies(freqs)
        payload, nbits = huffman_encode(syms, code)
        out = huffman_decode(payload, nbits, code, syms.size)
        assert out.tolist() == syms.tolist()

    def test_single_symbol_stream(self):
        syms = np.zeros(1000, dtype=np.int64)
        code = HuffmanCode.from_frequencies(np.array([1000]))
        payload, nbits = huffman_encode(syms, code)
        assert nbits == 1000
        assert (huffman_decode(payload, nbits, code, 1000) == 0).all()

    def test_symbol_without_code_rejected(self):
        code = HuffmanCode.from_frequencies(np.array([5, 5, 0]))
        with pytest.raises(ValueError):
            huffman_encode(np.array([2]), code)

    def test_truncated_stream_rejected(self):
        syms = np.arange(10) % 4
        code = HuffmanCode.from_frequencies(np.bincount(syms, minlength=4))
        payload, nbits = huffman_encode(syms, code)
        with pytest.raises(ValueError):
            huffman_decode(payload[:1], 8, code, 10)

    @pytest.mark.parametrize("top", [15, 17, 18, MAX_CODE_LEN])
    def test_deep_codes_round_trip(self, top):
        # Lengths 1, 2, ..., top, top: a complete code whose longest
        # words need a 4-byte window at some bit offsets once top > 17.
        lengths = np.array([*range(1, top + 1), top], dtype=np.int64)
        code = HuffmanCode.from_lengths(lengths)
        assert code.max_len == top
        rng = np.random.default_rng(top)
        syms = rng.permutation(np.repeat(np.arange(lengths.size), 9))
        payload, nbits = huffman_encode(syms, code)
        assert nbits == int(lengths[syms].sum())
        assert huffman_decode(payload, nbits, code, syms.size).tolist() == \
            syms.tolist()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, MAX_CODE_LEN), min_size=1, max_size=40),
           st.binary(max_size=64), st.integers(0, 600), st.integers(0, 80))
    def test_matches_reference_decoder_on_any_table(self, lengths, payload,
                                                    nbits, n_symbols):
        # Damaged input: any length table, any bytes, any declared sizes.
        code = HuffmanCode.from_lengths(np.array(lengths, dtype=np.int64))
        args = (payload, nbits, code, n_symbols)
        assert _outcome(huffman_decode, *args) == \
            _outcome(decode_reference, *args)

    def test_compresses_skewed_stream(self):
        rng = np.random.default_rng(0)
        syms = np.where(rng.random(4000) < 0.9, 0, rng.integers(1, 16, 4000))
        code = HuffmanCode.from_frequencies(np.bincount(syms, minlength=16))
        payload, _ = huffman_encode(syms, code)
        assert len(payload) < 4000 * 0.6

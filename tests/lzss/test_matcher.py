"""Hash-chain matcher: exactness against the brute-force reference."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.datasets import generate
from repro.lzss.formats import SERIAL
from repro.lzss.matcher import hash_chain_best_matches
from repro.lzss.reference import reference_find_match


def reference_hash_chain(data: bytes, window: int, max_match: int,
                         max_chain: int, chunk_size: int | None = None,
                         slice_size: int | None = None):
    """Plain-loop oracle of the bounded chain walk.

    Position ``i ≤ n − 3`` with a length cap of at least 3 walks its
    predecessors in its chunk that share its first 3 bytes, nearest
    first, stopping after ``max_chain`` of them or at the first one more
    than ``window`` back.  Each candidate extends to the cap, and only
    a strictly longer match replaces the best one, so ties keep the
    nearest.  Every other position reports ``(0, 0)``.
    """
    n = len(data)
    best_len = np.zeros(n, dtype=np.int32)
    best_dist = np.zeros(n, dtype=np.int32)
    for i in range(n - 2):
        first = i - i % chunk_size if chunk_size else 0
        cap = min(max_match, n - i)
        if chunk_size:
            cap = min(cap, first + chunk_size - i)
        if slice_size:
            cap = min(cap, slice_size - i % slice_size)
        if cap < 3:
            continue
        seen = 0
        for j in range(i - 1, first - 1, -1):
            if data[j:j + 3] != data[i:i + 3]:
                continue
            if i - j > window or seen == max_chain:
                break
            seen += 1
            length = 0
            while length < cap and data[j + length] == data[i + length]:
                length += 1
            if length > best_len[i]:
                best_len[i], best_dist[i] = length, i - j
    return best_len, best_dist


class TestAgainstReference:
    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=0, max_size=300))
    def test_exhaustive_chain_is_exact(self, data):
        blen, bdist = hash_chain_best_matches(data, SERIAL.window,
                                              SERIAL.max_match,
                                              max_chain=10 ** 6)
        for i in range(len(data)):
            dist, length = reference_find_match(data, i, SERIAL)
            if length >= 3:
                assert blen[i] == length, i
                assert bdist[i] == dist, i
            else:
                assert blen[i] == 0, i

    @settings(max_examples=20, deadline=None)
    @given(st.text(alphabet="abc", max_size=400))
    def test_low_entropy_exact(self, text):
        data = text.encode()
        blen, bdist = hash_chain_best_matches(data, SERIAL.window,
                                              SERIAL.max_match,
                                              max_chain=10 ** 6)
        for i in range(0, len(data), 7):
            dist, length = reference_find_match(data, i, SERIAL)
            expect = length if length >= 3 else 0
            assert blen[i] == expect


#: 21 distinct bytes: a match against an earlier copy runs past max_match.
_ALPHABET = b"abcdefghijklmnopqrstu"


class TestBoundedChain:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 300).flatmap(lambda n: st.one_of(
               st.binary(min_size=n, max_size=n),
               st.integers(1, 4).flatmap(lambda k: st.lists(
                   st.integers(0, k - 1), min_size=n, max_size=n)
                   .map(bytes)))),
           st.sampled_from([1, 3, 16, 100, 4096]),
           st.sampled_from([3, 4, 18, 131]),
           st.sampled_from([1, 2, 3, 8, 64]),
           st.sampled_from([None, 1, 16, 64, 96, 4096]),
           st.sampled_from([None, 1, 8, 16, 32]))
    # every position saturates in round 1; the walk ends there
    @example(bytes(200), 4096, 18, 64, 64, 16)
    # runs of candidates that continue their left neighbour's pair, each
    # beside members whose matches pass max_match: one run to the input's
    # end; a run cut off by a nearer candidate ("efg"), whose tail's own
    # match stops at max_match; runs that end at 32-byte slice ends and
    # at chunk ends; and a run too far back for the window
    @example(b"ab" * 60, 4096, 18, 1, None, None)
    @example(_ALPHABET + b"efg" + _ALPHABET + b"!", 4096, 18, 8, None, None)
    @example(b"abc" * 40, 4096, 18, 4, 64, 32)
    @example(b"ab" * 80, 4096, 18, 2, 64, None)
    @example(b"ab" * 12 + _ALPHABET + bytes(30) + _ALPHABET, 16, 18, 8,
             None, None)
    def test_matches_plain_loop_oracle(self, data, window, max_match,
                                       max_chain, chunk_size, slice_size):
        assume(not (chunk_size and slice_size and chunk_size % slice_size))
        blen, bdist = hash_chain_best_matches(
            data, window, max_match, max_chain=max_chain,
            chunk_size=chunk_size, slice_size=slice_size)
        want_len, want_dist = reference_hash_chain(
            data, window, max_match, max_chain, chunk_size, slice_size)
        assert blen.dtype == bdist.dtype == np.int32
        assert np.array_equal(blen, want_len)
        assert np.array_equal(bdist, want_dist)

    def test_bounded_never_beats_exhaustive(self, text_data):
        data = text_data[:3000]
        exact_len, _ = hash_chain_best_matches(data, 4096, 18,
                                               max_chain=10 ** 6)
        approx_len, _ = hash_chain_best_matches(data, 4096, 18, max_chain=4)
        assert (approx_len <= exact_len).all()

    def test_reported_matches_are_real(self, text_data):
        data = text_data[:2000]
        arr = np.frombuffer(data, dtype=np.uint8)
        blen, bdist = hash_chain_best_matches(data, 4096, 18, max_chain=8)
        idx = np.nonzero(blen)[0]
        for i in idx[:200]:
            d, ln = int(bdist[i]), int(blen[i])
            for k in range(ln):
                assert arr[i + k] == arr[i - d + k]


class TestConstraints:
    def test_chunk_isolation(self):
        data = b"hello world! " * 40
        blen, bdist = hash_chain_best_matches(data, 4096, 18,
                                              chunk_size=64, max_chain=10 ** 4)
        pos = np.arange(len(data))
        valid = blen > 0
        assert (bdist[valid] <= (pos % 64)[valid]).all()

    def test_slice_caps_length(self):
        data = b"hello world! " * 40
        blen, _ = hash_chain_best_matches(data, 4096, 18, chunk_size=64,
                                          slice_size=16, max_chain=10 ** 4)
        pos = np.arange(len(data))
        room = 16 - (pos % 16)
        assert (blen <= room).all()

    def test_slice_must_divide_chunk(self):
        with pytest.raises(ValueError):
            hash_chain_best_matches(b"x" * 100, 64, 18, chunk_size=30,
                                    slice_size=7)

    def test_tiny_inputs(self):
        for n in range(5):
            blen, bdist = hash_chain_best_matches(b"a" * n, 4096, 18)
            assert blen.size == n
            assert (blen[:1] == 0).all()  # position 0 never matches

    def test_window_limits_distance(self):
        data = b"UNIQ" + bytes(range(200)) + b"UNIQ"
        blen, bdist = hash_chain_best_matches(data, window=64, max_match=18,
                                              max_chain=10 ** 4)
        assert blen[204] == 0  # the only match is 204 bytes back


#: sha256 of ``best_len`` then ``best_dist`` (int32 bytes) for each
#: caller's configuration on seeded 64 KiB buffers, recorded before the
#: walk was rewritten: any change to which candidate wins shows here.
CALLER_CONFIGS = {
    # V1: whole-chunk window, 32-byte slices cap the length
    "v1": dict(window=4096, max_match=18, max_chain=64, chunk_size=4096,
               slice_size=32),
    # serial coder: one unchunked stream
    "serial": dict(window=4096, max_match=18, max_chain=64),
    # lz4s: shallow chain, long matches
    "lz4s": dict(window=4096, max_match=131, max_chain=8, chunk_size=4096),
    # Pthread driver: 64 KiB over its 8 threads
    "pthread": dict(window=4096, max_match=18, max_chain=64,
                    chunk_size=8192),
}
CHAIN_PINS = {
    ("cfiles", "v1"):
        "febc4bb22c0b1ad091d2936bab123aefcad424f4f6f8f89ad2fb5b2304c2f873",
    ("cfiles", "serial"):
        "4f2b818af541d211d5a67e5693cb5efed71e89442376e0ac3971a57674f3e764",
    ("cfiles", "lz4s"):
        "3536237158c443bcf5c72531d60d8da076f4256d21b49c9b99240ad809fdd33e",
    ("cfiles", "pthread"):
        "cfcb170eb0166ed4534910544ea0bfbd38b6eec0f2d0bbb0d724871f6bf13b6c",
    ("highly_compressible", "v1"):
        "9c91f2937d3ef118e50bcd9f5292015b365fb38e234ea73da960069b7a04dec5",
    ("highly_compressible", "serial"):
        "8206441ef3774450929def6cc7097ee7578a443ec1cdd996de2002c77cb536ef",
    ("highly_compressible", "lz4s"):
        "6fd96930019f7c93ce78ddcff3ada117bfc3a9b6ac05adeafc1290f87a6ed077",
    ("highly_compressible", "pthread"):
        "5ac1181a2a726dab2737f3318dc3b9fdb17d4c6259bf04bf877e35cc621fc36b",
    ("zeros", "v1"):
        "8ff2a1e3ea2adba9199e98f39f3277eb2ee0cabab4997d0497c04dbd443d1e93",
    ("zeros", "serial"):
        "34062adb6286ba39b9c5af649f2143cd58b9e70743ed175ac4cd78c3a7c4031c",
    ("zeros", "lz4s"):
        "489278a5cf66b3ad3810fad3f1232ea4925b472c2d0d8ecc4bf1175705983270",
    ("zeros", "pthread"):
        "e78be6db8502e1e86ed1492c9242e86b70e1633422f300dfc869889d3a3dd172",
}


@pytest.fixture(scope="module")
def pin_inputs():
    size = 64 << 10
    return {"cfiles": generate("cfiles", size, seed=2011),
            "highly_compressible": generate("highly_compressible", size,
                                            seed=2011),
            "zeros": bytes(size)}


@pytest.mark.parametrize("name, config", sorted(CHAIN_PINS))
def test_caller_outputs_frozen(pin_inputs, name, config):
    blen, bdist = hash_chain_best_matches(pin_inputs[name],
                                          **CALLER_CONFIGS[config])
    assert blen.dtype == bdist.dtype == np.int32
    digest = hashlib.sha256(blen.tobytes() + bdist.tobytes()).hexdigest()
    assert digest == CHAIN_PINS[name, config]

"""Greedy-parse machinery: chunk-seeded jump doubling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lzss.parse import (
    greedy_token_starts,
    greedy_token_starts_reference,
    reachable_from,
)


class TestReachableFrom:
    def test_unit_steps_visit_everything(self):
        jump = np.arange(10) + 1
        assert reachable_from(jump, 0).tolist() == list(range(10))

    def test_strides(self):
        jump = np.arange(12) + 3
        assert reachable_from(jump, 0).tolist() == [0, 3, 6, 9]

    def test_start_offset(self):
        jump = np.arange(10) + 2
        assert reachable_from(jump, 1).tolist() == [1, 3, 5, 7, 9]

    def test_start_past_end(self):
        assert reachable_from(np.array([1, 2]), 5).size == 0

    def test_several_starts(self):
        # Orbits of 0 and 6 under +4 jumps clipped at 6: the chunked parse.
        jump = np.minimum(np.arange(10) + 4, [6] * 6 + [10] * 4)
        assert reachable_from(jump, np.array([0, 6])).tolist() == [0, 4, 6]

    def test_non_forward_rejected(self):
        with pytest.raises(ValueError):
            reachable_from(np.array([0, 2]), 0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 7), min_size=1, max_size=300))
    def test_property_matches_walk(self, advances):
        adv = np.array(advances, dtype=np.int64)
        jump = np.arange(adv.size) + adv
        got = reachable_from(jump, 0).tolist()
        expect, pos = [], 0
        while pos < adv.size:
            expect.append(pos)
            pos += int(adv[pos])
        assert got == expect

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 40), st.integers(0, 2**32),
           st.lists(st.integers(0, 399), max_size=8))
    def test_property_several_starts_match_walks(self, n, max_step, seed,
                                                 cuts):
        # Each start's jumps are clipped at the next start, the way the
        # chunked parse and the decoders' group scan build their tables.
        rng = np.random.default_rng(seed)
        jump = np.arange(n) + rng.integers(1, max_step + 1, n)
        starts = sorted({0, *(c for c in cuts if c < n)})
        ends = starts[1:] + [n]
        for lo, hi in zip(starts, ends):
            jump[lo:hi] = np.minimum(jump[lo:hi], hi)
        expect = []
        for lo, hi in zip(starts, ends):
            pos = lo
            while pos < hi:
                expect.append(pos)
                pos = int(jump[pos])
        got = reachable_from(jump, np.array(starts)).tolist()
        assert got == expect


class TestGreedyTokenStarts:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=200),
           st.sampled_from([None, 1, 3, 8, 16, 64, 512]))
    def test_property_matches_reference(self, advances, chunk):
        adv = np.array(advances, dtype=np.int64)
        got = greedy_token_starts(adv, chunk)
        expect = greedy_token_starts_reference(adv, chunk)
        assert got.tolist() == expect.tolist()

    def test_chunked_restarts_at_boundaries(self):
        adv = np.full(32, 5, dtype=np.int64)
        starts = greedy_token_starts(adv, 8)
        # every chunk begins a fresh parse
        assert set(range(0, 32, 8)).issubset(set(starts.tolist()))

    def test_jump_clipped_at_chunk_end(self):
        # The match at 6 reaches past the chunk end at 8; the next chunk
        # still parses from 8 in steps of 2, so 11 is no token start.
        adv = np.array([1] * 6 + [5, 1] + [2] * 8, dtype=np.int64)
        assert greedy_token_starts(adv, 8).tolist() == \
            [0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 14]

    def test_empty(self):
        assert greedy_token_starts(np.array([], dtype=np.int64)).size == 0

    def test_zero_advance_rejected(self):
        with pytest.raises(ValueError):
            greedy_token_starts(np.array([1, 0, 1]))

    def test_advance_past_end_ok(self):
        starts = greedy_token_starts(np.array([100], dtype=np.int64))
        assert starts.tolist() == [0]

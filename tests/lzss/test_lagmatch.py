"""The exact all-position matcher (the V2 kernel math)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lzss import lagmatch
from repro.lzss.formats import CUDA_V2
from repro.lzss.lagmatch import LagMatchResult, lag_best_matches
from repro.lzss.reference import reference_find_match


def reference_lag_matches(data: bytes, window: int, max_match: int,
                          chunk_size: int | None):
    """Plain-loop oracle for every output of :func:`lag_best_matches`.

    Lag ``d`` is valid at ``i`` when ``d ≤ min(window, i − chunk_start)``;
    its run counts equal bytes up to ``cap = min(max_match, chunk_end −
    i)`` and costs ``min(run + 1, max(cap, 1))`` compares; the best match
    keeps the smallest ``d`` on ties; a warp pays, per lag, its busiest
    of 32 lanes.
    """
    n = len(data)
    chunk = chunk_size or max(n, 1)
    compares = np.zeros((window + 1, n), dtype=np.int64)  # [d, i]
    best_len = np.zeros(n, dtype=np.int32)
    best_dist = np.zeros(n, dtype=np.int32)
    for i in range(n):
        start = i - i % chunk
        cap = min(max_match, start + chunk - i, n - i)
        for d in range(1, min(window, i - start) + 1):
            run = 0
            while run < cap and data[i - d + run] == data[i + run]:
                run += 1
            compares[d, i] = min(run + 1, max(cap, 1))
            if run > best_len[i]:
                best_len[i], best_dist[i] = run, d
    warps = [compares[:, w:w + 32].max(axis=1).sum() for w in range(0, n, 32)]
    return (best_len, best_dist, int(compares.sum()), compares.sum(axis=0),
            np.array(warps, dtype=np.int64))


class TestBestMatches:
    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=0, max_size=250))
    def test_agrees_with_reference(self, data):
        res = lag_best_matches(data, CUDA_V2.window, CUDA_V2.max_match)
        for i in range(len(data)):
            dist, length = reference_find_match(data, i, CUDA_V2)
            if length >= 1:
                assert res.best_len[i] == length, i
                if length > 0:
                    assert res.best_dist[i] == dist, i
            else:
                assert res.best_len[i] == 0

    def test_chunk_isolation(self):
        data = b"ABCDEF" * 4  # period 6, matches everywhere
        res = lag_best_matches(data, 64, 18, chunk_size=6)
        # every chunk restarts: no position may reference a prior chunk
        pos = np.arange(len(data))
        assert (res.best_dist <= pos % 6).all()

    def test_chunk_end_caps_length(self):
        data = b"ab" * 16
        res = lag_best_matches(data, 64, 18, chunk_size=8)
        pos = np.arange(len(data))
        room = 8 - (pos % 8)
        assert (res.best_len <= room).all()

    def test_empty_input(self):
        res = lag_best_matches(b"", 128, 66)
        assert res.best_len.size == 0
        assert res.compare_count == 0

    def test_compare_count_positive_and_bounded(self, text_data):
        data = text_data[:2000]
        res = lag_best_matches(data, 128, 66)
        n = len(data)
        assert 0 < res.compare_count <= n * 128 * 66

    def test_per_position_sum_equals_total(self, text_data):
        data = text_data[:1500]
        res = lag_best_matches(data, 64, 18, collect_per_position=True)
        assert int(res.per_position_compares.sum()) == res.compare_count


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300).flatmap(lambda n: st.one_of(
               st.binary(min_size=n, max_size=n),
               st.integers(2, 4).flatmap(lambda k: st.lists(
                   st.integers(0, k - 1), min_size=n, max_size=n)
                   .map(bytes)))),
           st.sampled_from([1, 3, 16, 128, 200, 512]),
           st.sampled_from([1, 2, 18, 66, 130, 258]),
           st.sampled_from([None, 1, 3, 6, 33, 100, 4096]),
           st.booleans(),
           # on ≤ 300 bytes: one lag a block, blocks of 3–31 lags (the
           # last one often short), and every lag in a single block
           st.sampled_from([1, 1000, lagmatch.BLOCK_CELLS]))
    # position 32 alone has the longest lag-32 run: warp 1's cost rests
    # on its first lane
    @example(bytes(range(32)) * 2, 128, 258, None, True,
             lagmatch.BLOCK_CELLS)
    # runs past every doubling step (the saturated state), on small
    # windows; a changed byte ends some of them just below max_match
    # (2 or 1 short of it, at or above the last step's shift)
    @example(b"a" * 250, 16, 66, None, True, lagmatch.BLOCK_CELLS)
    @example(b"a" * 200 + b"b" * 60, 32, 66, None, False, 1000)
    @example(b"\x07" * 220, 20, 64, 100, False, lagmatch.BLOCK_CELLS)
    @example(b"ab" * 100 + b"c" + b"ab" * 40, 24, 130, None, True, 1)
    @example(b"ab" * 100 + b"c" + b"ab" * 40, 16, 130, 100, False, 1000)
    @example(b"xy" * 100 + b"z" + b"xy" * 30, 16, 18, None, True, 1)
    @example(b"abc" * 40 + b"x" + b"abc" * 50, 16, 18, 33, True, 1000)
    @example(b"abc" * 70 + b"x" + b"abc" * 20, 32, 66, 33, False,
             lagmatch.BLOCK_CELLS)
    def test_every_output_exact(self, data, window, max_match, chunk_size,
                                detail, block_cells):
        # patched in the body: hypothesis rejects function-scoped fixtures
        with mock.patch.object(lagmatch, "BLOCK_CELLS", block_cells):
            res = lag_best_matches(data, window, max_match,
                                   chunk_size=chunk_size,
                                   collect_per_position=detail)
        best_len, best_dist, count, per_pos, warps = reference_lag_matches(
            data, window, max_match, chunk_size)

        def same(a, b):  # dtype too: int32 matches, int64 compares
            return a.dtype == b.dtype and np.array_equal(a, b)

        assert same(res.best_len, best_len)
        assert same(res.best_dist, best_dist)
        assert res.compare_count == count
        if detail:
            assert same(res.per_position_compares, per_pos)
            assert same(res.warp_compares, warps)
        else:
            assert res.per_position_compares is None
            assert res.warp_compares is None


class TestSaturatedRuns:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 300), max_size=12), st.booleans(),
           st.sampled_from([1, 2, 4, 8, 32, 128, 256, 1024]))
    def test_matches_plain_loop(self, lengths, ones_first, sat):
        # alternating runs of ones and zeros; the last may reach the end
        flags = np.concatenate(
            [np.full(n, (k + ones_first) % 2, dtype=bool)
             for k, n in enumerate(lengths)] + [np.zeros(0, dtype=bool)])
        r = flags.astype(np.min_scalar_type(sat + sat // 2 + 1))
        lagmatch._saturated_runs(r, sat, np.empty_like(r))
        run = np.zeros(flags.size + 1, dtype=np.int64)
        for k in range(flags.size - 1, -1, -1):
            run[k] = run[k + 1] + 1 if flags[k] else 0
        for k in range(flags.size):
            want = min(run[k], sat)
            # a run reaching the end may skip its last steps and read sat
            to_end = run[k] == flags.size - k
            assert r[k] == want or (to_end and r[k] == sat), k


class TestWarpCompares:
    def test_warp_bound_between_mean_and_sum(self, text_data):
        data = text_data[:1600]
        res = lag_best_matches(data, 64, 18, collect_per_position=True)
        per_pos = res.per_position_compares
        warps = res.warp_compares
        n_warps = warps.size
        for w in range(n_warps):
            lanes = per_pos[w * 32:(w + 1) * 32]
            # lockstep cost ≥ the busiest single lane, ≤ the lane sum
            assert warps[w] >= lanes.max()
            assert warps[w] <= lanes.sum()

    def test_uniform_lanes_cost_single_lane(self):
        # all-zero input: every lane in a warp does identical work, so
        # lockstep max == any single lane's compare count
        data = bytes(128)
        res = lag_best_matches(data, 16, 18, collect_per_position=True)
        lane_63 = int(res.per_position_compares[63])
        warp_1 = int(res.warp_compares[1])
        # warp 1 covers positions 32..63; the deepest lane dominates
        assert warp_1 <= int(res.per_position_compares[32:64].max()) * 16 + 16
        assert warp_1 >= lane_63


class TestResultDataclass:
    def test_fields(self):
        res = lag_best_matches(b"hello hello", 16, 18)
        assert isinstance(res, LagMatchResult)
        assert res.per_position_compares is None  # not collected

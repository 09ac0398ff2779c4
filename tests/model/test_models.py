"""Timing models: measurement, estimation, scaling, monotonicity."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bzip2.pipeline import compress as bz_compress
from repro.lzss.encoder import encode
from repro.lzss.formats import SERIAL
from repro.model.bzip2 import LCP_CAP, Bzip2Model, sort_compares
from repro.model.calibration import CPU_CLOCK_HZ, default_calibration
from repro.model.cpu import (
    EXTENSION_COMPARE_WEIGHT,
    MatchSampleStats,
    PthreadModel,
    SerialCpuModel,
    effective_candidate_cost,
    estimate_serial_compares,
    expected_scan_length,
    sample_match_statistics,
)
from repro.model.gpu import scale_to_paper


@pytest.fixture(scope="module")
def cal():
    return default_calibration()


def reference_sample_statistics(data: bytes) -> MatchSampleStats:
    """Plain-loop κ / p_cap of a buffer small enough to be its own sample.

    Lags 1..64 count once each; beyond 64 every ``step``-th lag stands
    in for ``step`` lags, ``step`` doubling every eight of them, out to
    the window ``min(4096, n − 1)``.  Candidate ``k`` at lag ``d``
    compares bytes until the first mismatch, the buffer end, or the
    18-byte cap: ``min(run + 1, 18)`` compares, capped when ``run`` is
    18.  Each lag's integer totals enter the float sums with its weight.
    """
    n, cap = len(data), 18
    window = min(4096, n - 1)
    lags = [(d, 1.0) for d in range(1, min(64, window) + 1)]
    lo, step = 64, 8
    while lo < window:
        hi = min(lo + 8 * step, window)
        lags += [(d, float(step)) for d in range(lo + step, hi + 1, step)]
        lo, step = hi, 2 * step
    compares = capped = candidates = 0.0
    for d, weight in lags:
        total = hits = 0
        for k in range(n - d):
            run = 0
            while (run < cap and k + d + run < n
                   and data[k + run] == data[k + d + run]):
                run += 1
            total += min(run + 1, cap)
            hits += run == cap
        compares += weight * total
        capped += weight * hits
        candidates += weight * (n - d)
    return MatchSampleStats(kappa=compares / candidates,
                            p_cap=max(capped / candidates, 1e-9),
                            sample_bytes=n)


class TestSampleStatistics:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 300).flatmap(lambda n: st.one_of(
        st.binary(min_size=n, max_size=n),
        st.integers(1, 3).flatmap(lambda k: st.lists(
            st.integers(0, k - 1), min_size=n, max_size=n).map(bytes)))))
    @example(bytes(300))  # every candidate runs to the cap
    @example(b"abcdefghijklmnopqrst" * 15)  # long runs at lags 20, 40, ...
    def test_matches_plain_loop_oracle(self, data):
        assert sample_match_statistics(data) == \
            reference_sample_statistics(data)

    def test_kappa_bounds(self, text_data, binary_data, runny_data):
        for data in (text_data, binary_data, runny_data):
            s = sample_match_statistics(data)
            assert 1.0 <= s.kappa <= 18.0
            assert 0.0 <= s.p_cap <= 1.0

    def test_random_data_kappa_near_one(self, binary_data):
        s = sample_match_statistics(binary_data)
        assert s.kappa < 1.1
        assert s.p_cap < 1e-3

    def test_runny_data_kappa_higher(self, runny_data, binary_data):
        assert (sample_match_statistics(runny_data).kappa
                > sample_match_statistics(binary_data).kappa)

    def test_deterministic(self, text_data):
        a = sample_match_statistics(text_data)
        b = sample_match_statistics(text_data)
        assert a == b

    def test_tiny_input_degenerates(self):
        s = sample_match_statistics(b"ab")
        assert s.kappa == 1.0


class TestScanMath:
    def test_expected_scan_limits(self):
        # p→0: scan the whole window; p large: scan ~1/p
        assert expected_scan_length(4096.0, 1e-9) == pytest.approx(4096, rel=1e-3)
        assert expected_scan_length(4096.0, 0.5) == pytest.approx(2.0, rel=0.01)

    def test_effective_candidate_cost(self):
        assert effective_candidate_cost(1.0) == 1.0
        assert effective_candidate_cost(5.0) == 1.0 + 4 * EXTENSION_COMPARE_WEIGHT


class TestSerialModel:
    def test_compares_require_detail(self, text_data):
        stats = encode(text_data, SERIAL).stats  # no detail
        sample = sample_match_statistics(text_data)
        with pytest.raises(ValueError):
            estimate_serial_compares(stats, sample)

    def test_compares_grow_with_window(self, text_data):
        stats = encode(text_data, SERIAL, collect_detail=True).stats
        sample = sample_match_statistics(text_data)
        small = estimate_serial_compares(stats, sample, window=256)
        large = estimate_serial_compares(stats, sample, window=4096)
        assert large > small

    def test_seconds_positive_and_linear_in_cycles(self, text_data, cal):
        stats = encode(text_data, SERIAL, collect_detail=True).stats
        sample = sample_match_statistics(text_data)
        model = SerialCpuModel(cal)
        t = model.compress_seconds(stats, sample)
        assert t > 0
        compares = estimate_serial_compares(stats, sample)
        assert t == pytest.approx(compares * cal.cpu_cycles_per_compare
                                  / CPU_CLOCK_HZ)

    def test_decompress_seconds(self, cal):
        t = SerialCpuModel(cal).decompress_seconds(10 ** 6, 10 ** 5)
        assert t > 0


class TestPthreadModel:
    def test_speedup_near_effective_parallelism(self, cal):
        t = PthreadModel(cal).compress_seconds(10.0, 0)
        assert t == pytest.approx(10.0 / cal.pthread_effective_parallelism)

    def test_merge_term_additive(self, cal):
        base = PthreadModel(cal).compress_seconds(10.0, 0)
        with_merge = PthreadModel(cal).compress_seconds(10.0, 10 ** 9)
        assert with_merge > base


class TestBzip2Model:
    def test_sort_compares_monotone_in_lcp(self):
        assert sort_compares(1000, 50.0) > sort_compares(1000, 2.0)

    def test_lcp_capped(self):
        assert sort_compares(1000, LCP_CAP) == sort_compares(1000, LCP_CAP * 10)

    def test_periodic_data_costs_more(self, cal, binary_data):
        # the Table I blow-up: long-LCP data pays the sort-depth budget
        model = Bzip2Model(cal)
        random_ = bz_compress(binary_data)
        periodic = bz_compress(b"abcdefghijklmnopqrst" * 900)
        t_rand = model.compress_seconds(random_) / random_.original_size
        t_per = model.compress_seconds(periodic) / periodic.original_size
        assert t_per > t_rand * 3


class TestScaling:
    def test_scale_to_paper(self):
        assert scale_to_paper(1.0, 1 << 20) == pytest.approx(128.0)

    def test_zero_bytes_rejected(self):
        with pytest.raises(ValueError):
            scale_to_paper(1.0, 0)

"""V2's CPU fixup pass: the shared vectorized parse vs the serial walk."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fixup import fixup_matches_reference
from repro.lzss.encoder import tokenize
from repro.lzss.formats import CUDA_V2
from repro.lzss.lagmatch import lag_best_matches
from repro.util.buffers import as_u8


def _fixup(data, chunk=None):
    """The vectorized fixup: V2 matches → greedy parse → tokens."""
    return tokenize(as_u8(data), CUDA_V2, chunk)[0]


class TestEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=500), st.sampled_from([None, 64, 128]))
    def test_matches_reference_walk(self, data, chunk):
        res = lag_best_matches(data, CUDA_V2.window, CUDA_V2.max_match,
                               chunk_size=chunk)
        fast = _fixup(data, chunk)
        ref = fixup_matches_reference(res.best_len, res.best_dist,
                                      CUDA_V2, chunk)
        assert fast.starts.tolist() == ref.starts.tolist()
        assert fast.is_pair.tolist() == ref.is_pair.tolist()
        assert fast.lengths.tolist() == ref.lengths.tolist()
        assert fast.distances.tolist() == ref.distances.tolist()


class TestSemantics:
    def test_redundant_matches_eliminated(self, text_data):
        data = text_data[:2000]
        res = lag_best_matches(data, 128, 66)
        fix = _fixup(data)
        # kept tokens tile the input without overlap
        expected_next = 0
        for s, ln in zip(fix.starts, fix.lengths):
            assert s == expected_next
            expected_next = s + ln
        assert expected_next == len(data)
        # far fewer tokens than candidate matches
        assert fix.starts.size < np.count_nonzero(res.best_len) + len(data)

    def test_flags_generated(self, text_data):
        fix = _fixup(text_data[:500])
        assert fix.is_pair.dtype == bool
        assert (fix.lengths[~fix.is_pair] == 1).all()
        assert (fix.distances[~fix.is_pair] == 0).all()
        assert (fix.lengths[fix.is_pair] >= CUDA_V2.min_match).all()

    def test_agrees_with_encoder_tokens(self, text_data):
        # the reference walk over the kernel output is exactly the V2
        # encoder's parse
        data = text_data[:4096]
        tokens = _fixup(data, 1024)
        res = lag_best_matches(data, CUDA_V2.window, CUDA_V2.max_match,
                               chunk_size=1024)
        ref = fixup_matches_reference(res.best_len, res.best_dist,
                                      CUDA_V2, 1024)
        assert ref.starts.tolist() == tokens.starts.tolist()
        assert ref.lengths.tolist() == tokens.lengths.tolist()

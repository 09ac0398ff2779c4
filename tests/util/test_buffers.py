"""Buffer conversions for the public API surface."""

import numpy as np
import pytest

from repro.util.buffers import as_bytes, as_u8


class TestAsU8:
    def test_bytes_zero_copy_view(self):
        arr = as_u8(b"abc")
        assert arr.dtype == np.uint8
        assert arr.tolist() == [97, 98, 99]

    def test_bytearray_and_memoryview(self):
        assert as_u8(bytearray(b"xy")).tolist() == [120, 121]
        assert as_u8(memoryview(b"xy")).tolist() == [120, 121]

    def test_ndarray_passthrough(self):
        src = np.array([1, 2, 3], dtype=np.uint8)
        assert as_u8(src) is not None
        assert as_u8(src).tolist() == [1, 2, 3]

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError):
            as_u8(np.array([1, 2], dtype=np.int32))

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValueError):
            as_u8(np.zeros((2, 2), dtype=np.uint8))

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            as_u8("a string")


class TestAsBytes:
    def test_identity_for_bytes(self):
        b = b"abc"
        assert as_bytes(b) is b

    def test_from_array(self):
        assert as_bytes(np.array([65, 66], dtype=np.uint8)) == b"AB"

    def test_rejects_other(self):
        with pytest.raises(TypeError):
            as_bytes(123)

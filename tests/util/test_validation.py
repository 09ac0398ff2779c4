"""Argument-checking helpers."""

import pytest

from repro.util.validation import require, require_range, require_type


def test_require_passes_and_fails():
    require(True, "never raised")
    with pytest.raises(ValueError, match="boom"):
        require(False, "boom")


def test_require_range_bounds_inclusive():
    require_range(0, 0, 10)
    require_range(10, 0, 10)
    with pytest.raises(ValueError, match="knob"):
        require_range(11, 0, 10, "knob")
    with pytest.raises(ValueError):
        require_range(-1, 0, 10)


def test_require_type_single_and_tuple():
    require_type(1, int)
    require_type("x", (int, str))
    with pytest.raises(TypeError, match="must be int"):
        require_type("x", int, "field")

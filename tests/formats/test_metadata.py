"""Tests for 2-bit metadata index validation and byte counts."""

import numpy as np
import pytest

from repro.formats.metadata import BITS_PER_INDEX, metadata_bytes, validate_indices


class TestValidateIndices:
    def test_accepts_valid_range(self):
        out = validate_indices([0, 1, 2, 3], group_size=4)
        assert out.dtype == np.uint8

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_indices([0, 4], group_size=4)
        with pytest.raises(ValueError):
            validate_indices([-1], group_size=4)

    def test_accepts_integral_floats(self):
        out = validate_indices(np.array([0.0, 3.0]), group_size=4)
        assert list(out) == [0, 3]

    def test_rejects_fractional(self):
        with pytest.raises(TypeError):
            validate_indices(np.array([0.5]), group_size=4)


class TestMetadataBytes:
    def test_two_bits_per_value(self):
        assert BITS_PER_INDEX == 2
        assert metadata_bytes(16) == 4.0
        assert metadata_bytes(1) == 0.25

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            metadata_bytes(-1)

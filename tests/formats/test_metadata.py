"""Tests for 2-bit metadata packing/unpacking."""

import numpy as np
import pytest

from repro.formats.metadata import (
    BITS_PER_INDEX,
    INDICES_PER_WORD,
    metadata_bytes,
    pack_indices,
    unpack_indices,
    validate_indices,
)


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


class TestPackUnpack:
    def test_constants(self):
        assert BITS_PER_INDEX == 2
        assert INDICES_PER_WORD == 16

    def test_roundtrip_exact_word(self):
        idx = np.arange(16) % 4
        words = pack_indices(idx)
        assert words.shape == (1,)
        assert np.array_equal(unpack_indices(words, 16), idx.astype(np.uint8))

    def test_roundtrip_partial_word(self):
        idx = np.array([3, 2, 1, 0, 3])
        words = pack_indices(idx)
        assert words.shape == (1,)
        assert np.array_equal(unpack_indices(words, 5), idx.astype(np.uint8))

    def test_roundtrip_multiple_words(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 4, size=1000)
        words = pack_indices(idx)
        assert words.shape == (-(-1000 // 16),)
        assert np.array_equal(unpack_indices(words, 1000), idx.astype(np.uint8))

    def test_little_endian_packing(self):
        # First index occupies the least-significant bits.
        words = pack_indices([1, 2])
        assert words[0] == 1 | (2 << 2)

    def test_empty(self):
        assert pack_indices([]).size == 0
        assert unpack_indices(np.zeros(0, dtype=np.uint32), 0).size == 0

    def test_unpack_too_many_raises(self):
        with pytest.raises(ValueError):
            unpack_indices(np.zeros(1, dtype=np.uint32), 17)

    def test_unpack_negative_count_raises(self):
        with pytest.raises(ValueError):
            unpack_indices(np.zeros(1, dtype=np.uint32), -1)


class TestMetadataBytes:
    def test_two_bits_per_value(self):
        assert metadata_bytes(16) == 4.0
        assert metadata_bytes(1) == 0.25

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            metadata_bytes(-1)

"""Tests for unstructured magnitude pruning."""

import numpy as np
import pytest

from repro.pruning.magnitude import magnitude_mask


class TestMagnitudeMask:
    def test_exact_count_pruned(self, rng):
        w = rng.normal(size=(10, 10))
        mask = magnitude_mask(w, 0.37)
        assert (~mask).sum() == round(0.37 * 100)

    def test_smallest_magnitudes_removed(self):
        w = np.array([[0.1, -5.0, 0.2, 3.0]])
        mask = magnitude_mask(w, 0.5)
        assert list(mask[0]) == [False, True, False, True]

    def test_zero_sparsity_keeps_all(self, rng):
        w = rng.normal(size=(4, 4))
        assert magnitude_mask(w, 0.0).all()

    def test_full_sparsity_removes_all(self, rng):
        w = rng.normal(size=(4, 4))
        assert not magnitude_mask(w, 1.0).any()

    def test_invalid_sparsity(self, rng):
        with pytest.raises(ValueError):
            magnitude_mask(rng.normal(size=(4, 4)), 1.5)

    def test_deterministic(self, rng):
        w = rng.normal(size=(16, 16))
        assert np.array_equal(magnitude_mask(w, 0.5), magnitude_mask(w, 0.5))

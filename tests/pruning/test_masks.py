"""Tests for mask utilities."""

import numpy as np
import pytest

from repro.formats.nm import check_nm_pattern
from repro.formats.vnm import check_vnm_pattern
from repro.pruning.masks import (
    PruningResult,
    apply_mask,
    mask_density,
    mask_sparsity,
    validate_weight_matrix,
)


class TestValidation:
    def test_returns_float64(self):
        out = validate_weight_matrix(np.ones((2, 2), dtype=np.float32))
        assert out.dtype == np.float64

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            validate_weight_matrix(np.ones(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_weight_matrix(np.ones((0, 2)))

    def test_rejects_complex(self):
        with pytest.raises(TypeError):
            validate_weight_matrix(np.ones((2, 2), dtype=complex))


class TestApplyMask:
    def test_zeroes_pruned_entries(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = np.array([[True, False], [False, True]])
        out = apply_mask(w, m)
        assert np.array_equal(out, [[1.0, 0.0], [0.0, 4.0]])

    def test_does_not_mutate_input(self):
        w = np.ones((2, 2))
        apply_mask(w, np.zeros((2, 2), dtype=bool))
        assert np.all(w == 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_mask(np.ones((2, 2)), np.ones((2, 3), dtype=bool))

    def test_preserves_dtype(self):
        w = np.ones((2, 2), dtype=np.float32)
        assert apply_mask(w, np.ones((2, 2), dtype=bool)).dtype == np.float32


class TestSparsityMeasures:
    def test_mask_sparsity(self):
        m = np.array([[True, False], [False, False]])
        assert mask_sparsity(m) == pytest.approx(0.75)
        assert mask_density(m) == pytest.approx(0.25)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            mask_sparsity(np.zeros((0,), dtype=bool))


class TestStructuralChecks:
    def test_check_mask_nm(self):
        good = np.array([[True, True, False, False]])
        bad = np.array([[True, True, True, False]])
        assert check_nm_pattern(good, 2, 4)
        assert not check_nm_pattern(bad, 2, 4)

    def test_check_mask_nm_shape_mismatch(self):
        assert not check_nm_pattern(np.ones((1, 6), dtype=bool), 2, 4)

    def test_check_mask_vnm(self, rng):
        from repro.pruning.vnm import vnm_mask

        w = rng.normal(size=(16, 32))
        assert check_vnm_pattern(vnm_mask(w, v=8, n=2, m=8), v=8, n=2, m=8)
        assert not check_vnm_pattern(np.ones((16, 32), dtype=bool), v=8, n=2, m=8)


class TestPruningResult:
    def test_counts(self):
        mask = np.array([[True, False], [True, True]])
        res = PruningResult(mask=mask, pruned_weights=np.ones((2, 2)), target_sparsity=0.25)
        assert res.kept == 3
        assert res.pruned == 1
        assert res.sparsity == pytest.approx(0.25)
        assert res.density == pytest.approx(0.75)

    def test_energy_shortcut(self, rng):
        w = rng.normal(size=(4, 4))
        mask = np.abs(w) > np.median(np.abs(w))
        res = PruningResult(mask=mask, pruned_weights=apply_mask(w, mask))
        assert 0.0 < res.energy(w) <= 1.0

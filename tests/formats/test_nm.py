"""Tests for the row-wise N:M format (paper Figure 1)."""

import numpy as np
import pytest

from repro.formats.nm import NMSparseMatrix, check_nm_pattern, nm_violations
from repro.pruning.masks import apply_mask
from repro.pruning.nm import nm_mask


class TestPatternChecks:
    def test_compliant_matrix(self, dense_24):
        assert check_nm_pattern(dense_24, 2, 4)
        assert nm_violations(dense_24, 2, 4) == 0

    def test_dense_matrix_violates(self, rng):
        dense = rng.normal(size=(8, 16)) + 10.0  # no zeros
        assert not check_nm_pattern(dense, 2, 4)
        assert nm_violations(dense, 2, 4) == 8 * 4

    def test_wrong_column_multiple(self):
        assert not check_nm_pattern(np.zeros((4, 6)), 2, 4)

    def test_violations_requires_divisible(self):
        with pytest.raises(ValueError):
            nm_violations(np.zeros((4, 6)), 2, 4)


class TestCompression:
    def test_shapes_match_paper(self, nm_matrix, dense_24):
        r, k = dense_24.shape
        assert nm_matrix.values.shape == (r, k // 4 * 2)
        assert nm_matrix.indices.shape == nm_matrix.values.shape
        assert nm_matrix.shape == (r, k)

    def test_roundtrip_exact(self, nm_matrix, dense_24):
        assert np.array_equal(nm_matrix.to_dense(), dense_24)

    def test_strict_rejects_noncompliant(self, rng):
        dense = rng.normal(size=(8, 16)) + 10.0
        with pytest.raises(ValueError):
            NMSparseMatrix.from_dense(dense, 2, 4, strict=True)

    def test_non_strict_prunes(self, rng):
        dense = rng.normal(size=(8, 16)) + 10.0
        sp = NMSparseMatrix.from_dense(dense, 2, 4, strict=False)
        assert check_nm_pattern(sp.to_dense(), 2, 4)
        # the kept values are the two largest magnitudes of each group
        groups = np.abs(dense).reshape(8, 4, 4)
        expected_mass = np.sort(groups, axis=2)[:, :, -2:].sum()
        assert np.abs(sp.to_dense()).sum() == pytest.approx(expected_mass, rel=1e-5)

    def test_other_patterns(self, rng):
        dense = rng.normal(size=(6, 24))
        pruned = apply_mask(dense, nm_mask(dense, n=1, m=8))
        sp = NMSparseMatrix.from_dense(pruned, n=1, m=8)
        assert sp.values.shape == (6, 3)
        assert np.allclose(sp.to_dense(), pruned)

    def test_k_not_divisible_raises(self):
        with pytest.raises(ValueError):
            NMSparseMatrix.from_dense(np.zeros((4, 10)), 2, 4)

    def test_invalid_pattern_raises(self):
        with pytest.raises(ValueError):
            NMSparseMatrix.from_dense(np.zeros((4, 8)), 5, 4)

    def test_groups_with_fewer_nonzeros_padded(self):
        dense = np.zeros((1, 8), dtype=np.float32)
        dense[0, 1] = 3.0  # only one non-zero in the first group, none in the second
        sp = NMSparseMatrix.from_dense(dense, 2, 4)
        assert sp.values.shape == (1, 4)
        assert np.array_equal(sp.to_dense(), dense)


class TestDerivedViews:
    def test_nnz_and_density(self, nm_matrix):
        assert nm_matrix.nnz == nm_matrix.values.size
        assert nm_matrix.density == pytest.approx(0.5)

    def test_footprint_smaller_than_dense(self, nm_matrix):
        fp = nm_matrix.footprint("fp16")
        assert fp.total_bytes < nm_matrix.dense_bytes("fp16")
        assert fp.metadata_bytes == nm_matrix.nnz * 0.25

    def test_column_indices_absolute(self, nm_matrix, dense_24):
        cols = nm_matrix.column_indices()
        assert cols.shape == nm_matrix.values.shape
        # every stored value must match the dense matrix at its column
        for r in range(dense_24.shape[0]):
            for j in range(cols.shape[1]):
                assert dense_24[r, cols[r, j]] == pytest.approx(nm_matrix.values[r, j])

    def test_groups_per_row(self, nm_matrix, dense_24):
        assert nm_matrix.groups_per_row == dense_24.shape[1] // 4

    def test_indices_shape_validation(self, dense_24):
        sp = NMSparseMatrix.from_dense(dense_24, 2, 4)
        with pytest.raises(ValueError):
            NMSparseMatrix(values=sp.values, indices=sp.indices[:, :-1], n=2, m=4, k=sp.k)

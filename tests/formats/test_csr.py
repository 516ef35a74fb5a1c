"""Tests for the CSR format (Sputnik substrate)."""

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.pruning.magnitude import magnitude_mask
from repro.pruning.masks import apply_mask


@pytest.fixture
def sparse_dense(rng):
    w = rng.normal(size=(16, 24))
    return apply_mask(w, magnitude_mask(w, 0.75)).astype(np.float32)


class TestConstruction:
    def test_roundtrip(self, sparse_dense):
        csr = CSRMatrix.from_dense(sparse_dense)
        assert np.array_equal(csr.to_dense(), sparse_dense)

    def test_nnz_matches(self, sparse_dense):
        csr = CSRMatrix.from_dense(sparse_dense)
        assert csr.nnz == np.count_nonzero(sparse_dense)

    def test_indices_sorted_within_rows(self, sparse_dense):
        csr = CSRMatrix.from_dense(sparse_dense)
        for r in range(csr.shape[0]):
            lo, hi = csr.indptr[r], csr.indptr[r + 1]
            row_cols = csr.indices[lo:hi]
            assert np.all(np.diff(row_cols) > 0)

    def test_tolerance_drops_small_values(self):
        dense = np.array([[1e-9, 1.0], [0.0, 2.0]], dtype=np.float32)
        csr = CSRMatrix.from_dense(dense, tol=1e-6)
        assert csr.nnz == 2

    def test_empty_rows_supported(self):
        dense = np.zeros((3, 4), dtype=np.float32)
        dense[1, 2] = 5.0
        csr = CSRMatrix.from_dense(dense)
        assert csr.nnz == 1
        assert np.array_equal(csr.to_dense(), dense)

    def test_validation_of_indptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(data=np.ones(2), indices=np.array([0, 1]), indptr=np.array([0, 1]), ncols=4)

    def test_validation_of_column_range(self):
        with pytest.raises(ValueError):
            CSRMatrix(data=np.ones(1), indices=np.array([5]), indptr=np.array([0, 1]), ncols=4)

    def test_mismatched_data_indices(self):
        with pytest.raises(ValueError):
            CSRMatrix(data=np.ones(2), indices=np.array([0]), indptr=np.array([0, 2]), ncols=4)


class TestStatistics:
    def test_row_lengths(self, sparse_dense):
        csr = CSRMatrix.from_dense(sparse_dense)
        assert np.array_equal(csr.row_lengths(), (sparse_dense != 0).sum(axis=1))

    def test_load_imbalance_of_balanced_matrix(self):
        dense = np.eye(8, dtype=np.float32)
        assert CSRMatrix.from_dense(dense).load_imbalance() == pytest.approx(1.0)

    def test_load_imbalance_of_skewed_matrix(self):
        dense = np.zeros((4, 8), dtype=np.float32)
        dense[0, :] = 1.0  # one full row, three empty
        assert CSRMatrix.from_dense(dense).load_imbalance() == pytest.approx(4.0)

    def test_footprint_includes_indices(self, sparse_dense):
        csr = CSRMatrix.from_dense(sparse_dense)
        fp = csr.footprint("fp16")
        assert fp.values_bytes == csr.nnz * 2
        assert fp.index_bytes > 0

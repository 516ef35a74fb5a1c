"""Equivalence tests for the vectorized format compressors.

Every rewritten construction/reconstruction path must reproduce its
retained loop reference bit-exactly (the compressors move values, they do
no arithmetic).
"""

import numpy as np
import pytest

from repro.formats.blocked_ell import BlockedEllMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.cvse import CVSEMatrix
from repro.formats.vnm import VNMSparseMatrix


def sparse_dense(rng, rows, cols, density=0.3):
    return (rng.normal(size=(rows, cols)) * (rng.random(size=(rows, cols)) < density)).astype(
        np.float32
    )


class TestCSRVectorized:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(16, 24), (7, 13), (1, 5)])
    def test_to_dense_matches_reference(self, seed, shape):
        rng = np.random.default_rng(seed)
        a = CSRMatrix.from_dense(sparse_dense(rng, *shape))
        assert np.array_equal(a.to_dense(), a.to_dense_reference())

    def test_empty_matrix(self):
        a = CSRMatrix.from_dense(np.zeros((4, 6), dtype=np.float32))
        assert np.array_equal(a.to_dense(), a.to_dense_reference())
        assert not a.to_dense().any()


class TestCVSEVectorized:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("l", [2, 4, 8])
    def test_from_dense_matches_reference(self, seed, l):
        """The compressor is the loop; the per-vector reference decompressor
        is its oracle: every kept vector in ascending column order per block,
        and nothing else."""
        rng = np.random.default_rng(seed)
        dense = sparse_dense(rng, 16, 12)
        a = CVSEMatrix.from_dense(dense, l=l)
        assert np.array_equal(a.to_dense_reference(), dense)
        kept = np.abs(dense).reshape(16 // l, l, 12).max(axis=1) > 0
        assert np.array_equal(a.vectors_per_block(), kept.sum(axis=1))
        assert np.array_equal(a.vector_cols, np.nonzero(kept)[1])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_to_dense_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        a = CVSEMatrix.from_dense(sparse_dense(rng, 16, 12), l=4)
        assert np.array_equal(a.to_dense(), a.to_dense_reference())


class TestBlockedEllVectorized:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("bsize", [2, 4])
    def test_from_dense_matches_reference(self, seed, bsize):
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(4 * bsize, 5 * bsize))
        mask = rng.random(size=(4, 5)) < 0.4
        dense = (dense * np.kron(mask, np.ones((bsize, bsize)))).astype(np.float32)
        vec = BlockedEllMatrix.from_dense(dense, b=bsize)
        ref = BlockedEllMatrix.from_dense_reference(dense, b=bsize)
        assert np.array_equal(vec.blocks, ref.blocks)
        assert np.array_equal(vec.block_cols, ref.block_cols)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_to_dense_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        dense = sparse_dense(rng, 8, 12, density=0.2)
        a = BlockedEllMatrix.from_dense(dense, b=2)
        assert np.array_equal(a.to_dense(), a.to_dense_reference())

    def test_empty_matrix(self):
        a = BlockedEllMatrix.from_dense(np.zeros((4, 4), dtype=np.float32), b=2)
        ref = BlockedEllMatrix.from_dense_reference(np.zeros((4, 4), dtype=np.float32), b=2)
        assert np.array_equal(a.blocks, ref.blocks)
        assert np.array_equal(a.block_cols, ref.block_cols)
        assert not a.to_dense().any()


class TestStorageOrderVectorized:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "case",
        [
            # (rows, cols, v, n, m, ws_m) — ragged row tiles and ragged
            # 4-value chunks both exercised.
            (64, 64, 16, 2, 8, 32),
            (24, 40, 8, 2, 10, 32),  # odd M
            (8, 50, 4, 1, 10, 3),  # stored width 5: ragged 4-value chunk
            (16, 16, 4, 3, 4, 5),  # ws_m does not divide rows
            (8, 8, 8, 1, 8, 32),  # single tile, single chunk
        ],
    )
    def test_matches_reference(self, seed, case):
        rows, cols, v, n, m, ws_m = case
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(rows, cols)).astype(np.float32)
        a = VNMSparseMatrix.from_dense(dense, v=v, n=n, m=m, strict=False)
        vec = a.storage_order_values(ws_m=ws_m)
        ref = a.storage_order_values_reference(ws_m=ws_m)
        assert np.array_equal(vec, ref)
        # Both must be permutations of the stored values.
        assert np.array_equal(np.sort(vec), np.sort(a.values.ravel()))

    def test_invalid_tile_params_rejected(self, rng):
        dense = rng.normal(size=(8, 8)).astype(np.float32)
        a = VNMSparseMatrix.from_dense(dense, v=4, n=2, m=8, strict=False)
        with pytest.raises(ValueError):
            a.storage_order_values(ws_m=0)
        with pytest.raises(ValueError):
            a.storage_order_values_reference(mma_k=0)

"""Tests for the Blocked-ELL format."""

import numpy as np
import pytest

from repro.formats.blocked_ell import BlockedEllMatrix


@pytest.fixture
def block_pruned(rng):
    keep = np.kron(rng.random((4, 4)) >= 0.75, np.ones((8, 8), bool))
    return np.where(keep, rng.normal(size=(32, 32)), 0.0).astype(np.float32)


class TestConstruction:
    def test_roundtrip(self, block_pruned):
        ell = BlockedEllMatrix.from_dense(block_pruned, b=8)
        assert np.array_equal(ell.to_dense(), block_pruned)

    def test_ell_width_is_max_blocks_per_row(self, block_pruned):
        ell = BlockedEllMatrix.from_dense(block_pruned, b=8)
        keep = np.abs(block_pruned).reshape(4, 8, 4, 8).transpose(0, 2, 1, 3).max(axis=(2, 3)) > 0
        assert ell.ell_width == max(1, int(keep.sum(axis=1).max()))

    def test_padding_fraction(self):
        dense = np.zeros((16, 16), dtype=np.float32)
        dense[:8, :8] = 1.0  # one block in the first block row, none in the second
        ell = BlockedEllMatrix.from_dense(dense, b=8)
        assert ell.padding_fraction() == pytest.approx(0.5)

    def test_dimensions_must_divide(self):
        with pytest.raises(ValueError):
            BlockedEllMatrix.from_dense(np.zeros((10, 16)), b=8)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            BlockedEllMatrix.from_dense(np.zeros((8, 8)), b=0)

    def test_block_col_range_validation(self, block_pruned):
        ell = BlockedEllMatrix.from_dense(block_pruned, b=8)
        bad = ell.block_cols.copy()
        bad[0, 0] = 100
        with pytest.raises(ValueError):
            BlockedEllMatrix(blocks=ell.blocks, block_cols=bad, b=8, nrows=32, ncols=32)


class TestAccounting:
    def test_nnz_counts_whole_blocks(self):
        dense = np.zeros((8, 8), dtype=np.float32)
        dense[0, 0] = 1.0
        ell = BlockedEllMatrix.from_dense(dense, b=4)
        assert ell.nnz == 16  # the whole 4x4 block is stored

    def test_footprint_counts_padding_slots(self, block_pruned):
        ell = BlockedEllMatrix.from_dense(block_pruned, b=8)
        fp = ell.footprint("fp16")
        assert fp.values_bytes == ell.blocks.size * 2

    def test_empty_matrix(self):
        ell = BlockedEllMatrix.from_dense(np.zeros((8, 8), dtype=np.float32), b=4)
        assert np.array_equal(ell.to_dense(), np.zeros((8, 8)))

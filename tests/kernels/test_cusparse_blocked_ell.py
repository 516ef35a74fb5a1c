"""Tests for the cuSPARSE Blocked-ELL SpMM baseline."""

import numpy as np
import pytest

from repro.formats.blocked_ell import BlockedEllMatrix
from repro.kernels import cusparse
from repro.kernels.common import reference_matmul_fp16


@pytest.fixture
def operands(rng):
    keep = np.kron(rng.random((4, 8)) >= 0.75, np.ones((8, 8), bool))
    pruned = np.where(keep, rng.normal(size=(32, 64)), 0.0).astype(np.float32)
    b = rng.normal(size=(64, 16)).astype(np.float32)
    return BlockedEllMatrix.from_dense(pruned, b=8), pruned, b


class TestFunctional:
    def test_matches_dense_reference(self, operands):
        a_sparse, pruned, b = operands
        out = cusparse.spmm(a_sparse, b)
        assert np.allclose(out, reference_matmul_fp16(pruned, b), atol=2e-2, rtol=1e-2)

    @pytest.mark.parametrize("block", [4, 8, 16])
    @pytest.mark.parametrize("c", [1, 16])
    def test_block_sizes_match_dense_reference(self, rng, block, c):
        """Block-wise pruning at each block size runs exactly the stored
        blocks: the product equals the fp16 reference on the pruned matrix."""
        keep = np.kron(rng.random((32 // block, 64 // block)) >= 0.6, np.ones((block, block), bool))
        pruned = np.where(keep, rng.normal(size=(32, 64)), 0.0).astype(np.float32)
        b = rng.normal(size=(64, c)).astype(np.float32)
        out = cusparse.spmm(BlockedEllMatrix.from_dense(pruned, b=block), b)
        assert np.allclose(out, reference_matmul_fp16(pruned, b), atol=2e-2, rtol=1e-2)

    def test_wrong_operand_type(self, rng):
        with pytest.raises(TypeError):
            cusparse.spmm(rng.normal(size=(4, 8)), rng.normal(size=(8, 2)))

    def test_shape_mismatch(self, operands):
        a_sparse, _, _ = operands
        with pytest.raises(ValueError):
            cusparse.spmm(a_sparse, np.ones((5, 4)))

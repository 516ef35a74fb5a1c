"""Tests for the cuSPARSE Blocked-ELL SpMM baseline."""

import numpy as np
import pytest

from repro.formats.blocked_ell import BlockedEllMatrix
from repro.kernels import cublas, cusparse
from repro.kernels.common import GemmProblem, reference_matmul_fp16
from repro.kernels.dispatch import CusparseBlockedEllBackend, SpmmOperand


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

    def test_backend_times_and_runs_the_operand(self, operands, gpu):
        a_sparse, pruned, b = operands
        operand = SpmmOperand(blocked_ell=a_sparse, allow_dense=False)
        backend = CusparseBlockedEllBackend()
        res = backend.estimate(operand, c=16, gpu=gpu)
        assert res.kernel == "cusparse_blocked_ell_spmm"
        assert res.problem.sparsity == pytest.approx(1 - np.count_nonzero(pruned) / pruned.size)
        assert np.array_equal(backend.execute(operand, b), cusparse.spmm(a_sparse, b))

    def test_wrong_operand_type(self, rng):
        with pytest.raises(TypeError):
            cusparse.spmm(rng.normal(size=(4, 8)), rng.normal(size=(8, 2)))

    def test_shape_mismatch(self, operands):
        a_sparse, _, _ = operands
        with pytest.raises(ValueError):
            cusparse.spmm(a_sparse, np.ones((5, 4)))


class TestPerformanceModel:
    def test_time_scales_with_density(self, gpu):
        p_dense = GemmProblem(2048, 2048, 4096, sparsity=0.5)
        p_sparse = GemmProblem(2048, 2048, 4096, sparsity=0.9)
        assert (
            cusparse.estimate_time(p_sparse, gpu=gpu).time_us
            < cusparse.estimate_time(p_dense, gpu=gpu).time_us
        )

    def test_padding_hurts(self, gpu):
        p = GemmProblem(2048, 2048, 4096, sparsity=0.9)
        clean = cusparse.estimate_time(p, gpu=gpu, padding_fraction=0.0)
        padded = cusparse.estimate_time(p, gpu=gpu, padding_fraction=0.4)
        assert padded.time_us > clean.time_us

    def test_slower_than_spatha_at_same_sparsity(self, gpu):
        """Block-wise + cuSPARSE loses to V:N:M + Spatha (the paper's pitch)."""
        from repro.kernels.spatha import estimate_time as spatha_time

        p = GemmProblem.from_nm(1024, 4096, 4096, 2, 20, v=128)
        assert spatha_time(p, gpu=gpu).time_us < cusparse.estimate_time(p, gpu=gpu).time_us

    def test_beats_dense_only_at_high_sparsity(self, gpu):
        dense_time = cublas.estimate_time(GemmProblem(1024, 4096, 4096), gpu=gpu).time_us
        moderate = cusparse.estimate_time(GemmProblem(1024, 4096, 4096, sparsity=0.5), gpu=gpu)
        high = cusparse.estimate_time(GemmProblem(1024, 4096, 4096, sparsity=0.95), gpu=gpu)
        assert moderate.time_us > dense_time
        assert high.time_us < dense_time

    def test_invalid_arguments(self, gpu):
        with pytest.raises(ValueError):
            cusparse.estimate_time(GemmProblem(64, 64, 64, sparsity=0.5), gpu=gpu, padding_fraction=1.0)
        with pytest.raises(ValueError):
            cusparse.CusparseBlockedEllConfig(block_size=0)
        with pytest.raises(ValueError):
            cusparse.CusparseBlockedEllConfig(compute_efficiency=2.0)

"""Tests for the baseline kernel libraries: cuBLAS, cuSparseLt, Sputnik, CLASP."""

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.formats.cvse import CVSEMatrix
from repro.formats.nm import NMSparseMatrix
from repro.kernels import clasp, cublas, cusparselt, sputnik
from repro.kernels.common import GemmProblem, reference_matmul_fp16
from repro.kernels.dispatch import CublasDenseBackend, SpmmOperand
from repro.pruning.magnitude import magnitude_mask
from repro.pruning.masks import apply_mask
from repro.pruning.vector_wise import vector_wise_mask


class TestCublas:
    def test_functional_matches_reference(self, rng):
        a = rng.normal(size=(16, 32)).astype(np.float32)
        b = rng.normal(size=(32, 8)).astype(np.float32)
        assert np.allclose(cublas.gemm(a, b), reference_matmul_fp16(a, b))

    def test_backend_times_and_runs_the_operand(self, rng, gpu):
        a = rng.normal(size=(16, 32)).astype(np.float32)
        b = rng.normal(size=(32, 8)).astype(np.float32)
        operand = SpmmOperand(dense=a)
        backend = CublasDenseBackend()
        res = backend.estimate(operand, c=8, gpu=gpu)
        assert res.time_us > 0
        assert res.problem.sparsity == 0.0
        assert np.array_equal(backend.execute(operand, b), cublas.gemm(a, b))

    def test_time_grows_with_problem_size(self, gpu):
        small = cublas.estimate_time(GemmProblem(1024, 1024, 1024), gpu=gpu)
        large = cublas.estimate_time(GemmProblem(1024, 8192, 1024), gpu=gpu)
        assert large.time_us > small.time_us

    def test_efficiency_grows_with_size(self, gpu):
        """Small GEMMs are launch/tail-bound; larger ones approach peak."""
        small = cublas.estimate_time(GemmProblem(768, 768, 4096), gpu=gpu)
        large = cublas.estimate_time(GemmProblem(768, 12288, 4096), gpu=gpu)
        assert large.tflops_dense_equivalent > small.tflops_dense_equivalent

    def test_realistic_tflops_range(self, gpu):
        """cuBLAS on BERT-large-sized GEMMs lands in the 40-80 TFLOP/s band
        the paper's Figure 12 shows."""
        res = cublas.estimate_time(GemmProblem(1024, 8192, 4096), gpu=gpu)
        assert 40.0 < res.tflops_dense_equivalent < 85.0

    def test_tile_heuristic_never_worse_than_fixed_tile(self, gpu):
        p = GemmProblem(1024, 4096, 4096)
        auto = cublas.estimate_time(p, gpu=gpu)
        fixed = cublas.estimate_time(p, gpu=gpu, config=cublas.CublasConfig(tile_r=64, tile_c=64))
        assert auto.time_us <= fixed.time_us + 1e-6

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            cublas.CublasConfig(tile_r=0)
        with pytest.raises(ValueError):
            cublas.CublasConfig(compute_efficiency=0.0)


class TestCusparseLt:
    @pytest.fixture
    def operands(self, rng):
        a_dense = rng.normal(size=(32, 64))
        a_dense = apply_mask(a_dense, np.abs(a_dense) > 0)  # keep as float64
        from repro.pruning.nm import nm_mask

        a_pruned = apply_mask(a_dense, nm_mask(a_dense, 2, 4)).astype(np.float32)
        b = rng.normal(size=(64, 16)).astype(np.float32)
        return NMSparseMatrix.from_dense(a_pruned, 2, 4), a_pruned, b

    def test_functional_matches_dense_reference(self, operands):
        a_sparse, a_pruned, b = operands
        out = cusparselt.spmm(a_sparse, b)
        assert np.allclose(out, reference_matmul_fp16(a_pruned, b), atol=1e-2, rtol=1e-2)

    def test_operand_problem_time_and_output(self, operands, gpu):
        a_sparse, _, b = operands
        r, k = a_sparse.shape
        problem = GemmProblem.from_nm(r=r, k=k, c=b.shape[1], n=a_sparse.n, m=a_sparse.m)
        assert problem.sparsity == pytest.approx(0.5)
        assert cusparselt.estimate_time(problem, gpu=gpu).time_us > 0
        assert cusparselt.spmm(a_sparse, b).shape == (32, 16)

    def test_only_50_percent_supported(self, gpu):
        with pytest.raises(ValueError):
            cusparselt.estimate_time(GemmProblem.from_nm(1024, 4096, 4096, 2, 8), gpu=gpu)
        with pytest.raises(ValueError):
            cusparselt.estimate_time(GemmProblem(1024, 4096, 4096, sparsity=0.75), gpu=gpu)

    def test_faster_than_dense_at_large_k(self, gpu):
        p = GemmProblem.from_nm(1024, 8192, 4096, 2, 4)
        dense = cublas.estimate_time(p, gpu=gpu)
        sparse = cusparselt.estimate_time(p, gpu=gpu)
        assert 1.2 < dense.time_us / sparse.time_us <= 2.0

    def test_wrong_operand_type(self, rng):
        with pytest.raises(TypeError):
            cusparselt.spmm(rng.normal(size=(4, 8)), rng.normal(size=(8, 2)))

    def test_shape_mismatch(self, operands):
        a_sparse, _, _ = operands
        with pytest.raises(ValueError):
            cusparselt.spmm(a_sparse, np.ones((10, 4)))


class TestSputnik:
    @pytest.fixture
    def operands(self, rng):
        a_dense = rng.normal(size=(32, 64))
        a_pruned = apply_mask(a_dense, magnitude_mask(a_dense, 0.9)).astype(np.float32)
        b = rng.normal(size=(64, 16)).astype(np.float32)
        return CSRMatrix.from_dense(a_pruned), a_pruned, b

    def test_functional_matches_dense_reference(self, operands):
        a_sparse, a_pruned, b = operands
        out = sputnik.spmm(a_sparse, b)
        assert np.allclose(out, reference_matmul_fp16(a_pruned, b), atol=1e-2, rtol=1e-2)

    def test_row_skew_of_the_operand_slows_the_modelled_kernel(self, operands, gpu):
        a_sparse, a_pruned, b = operands
        problem = GemmProblem(32, 64, 16, sparsity=1.0 - a_sparse.nnz / a_pruned.size)
        assert problem.sparsity == pytest.approx(0.9, abs=0.01)
        assert a_sparse.load_imbalance() > 1.0
        skewed = sputnik.estimate_time(problem, gpu=gpu, load_imbalance=a_sparse.load_imbalance())
        balanced = sputnik.estimate_time(problem, gpu=gpu, load_imbalance=1.0)
        assert skewed.time_us > balanced.time_us

    def test_slower_than_cublas_at_moderate_sparsity(self, gpu):
        """The paper: Sputnik only overtakes cuBLAS above ~90% sparsity on
        LLM-sized matrices."""
        p = GemmProblem(4096, 1024, 4096, sparsity=0.7)
        dense = cublas.estimate_time(p, gpu=gpu)
        spk = sputnik.estimate_time(p, gpu=gpu)
        assert spk.time_us > dense.time_us

    def test_speedup_saturates_at_high_sparsity(self, gpu):
        """Even at 98% sparsity Sputnik stays in the low single digits."""
        p = GemmProblem(4096, 1024, 4096, sparsity=0.98)
        dense = cublas.estimate_time(p, gpu=gpu)
        spk = sputnik.estimate_time(p, gpu=gpu)
        assert dense.time_us / spk.time_us < 6.0

    def test_load_imbalance_slows_kernel(self, gpu):
        p = GemmProblem(4096, 1024, 4096, sparsity=0.9)
        balanced = sputnik.estimate_time(p, gpu=gpu, load_imbalance=1.0)
        skewed = sputnik.estimate_time(p, gpu=gpu, load_imbalance=2.0)
        assert skewed.time_us > balanced.time_us

    def test_invalid_load_imbalance(self, gpu):
        with pytest.raises(ValueError):
            sputnik.estimate_time(GemmProblem(64, 64, 64, sparsity=0.5), gpu=gpu, load_imbalance=0.5)

    def test_wrong_operand_type(self, rng):
        with pytest.raises(TypeError):
            sputnik.spmm(rng.normal(size=(4, 8)), rng.normal(size=(8, 2)))


class TestClasp:
    @pytest.fixture
    def operands(self, rng):
        a_dense = rng.normal(size=(32, 64))
        a_pruned = apply_mask(a_dense, vector_wise_mask(a_dense, 0.75, l=8)).astype(np.float32)
        b = rng.normal(size=(64, 16)).astype(np.float32)
        return CVSEMatrix.from_dense(a_pruned, l=8), a_pruned, b

    def test_functional_matches_dense_reference(self, operands):
        a_sparse, a_pruned, b = operands
        out = clasp.spmm(a_sparse, b)
        assert np.allclose(out, reference_matmul_fp16(a_pruned, b), atol=1e-2, rtol=1e-2)

    def test_operand_problem_time_and_output(self, operands, gpu):
        a_sparse, _, b = operands
        r, k = a_sparse.shape
        problem = GemmProblem(r=r, k=k, c=b.shape[1], sparsity=1.0 - a_sparse.nnz / (r * k))
        assert problem.sparsity == pytest.approx(0.75, abs=0.01)
        res = clasp.estimate_time(
            problem, gpu=gpu, config=clasp.ClaspConfig(vector_length=a_sparse.l),
            load_imbalance=max(1.0, a_sparse.load_imbalance()),
        )
        assert res.time_us > 0
        assert clasp.spmm(a_sparse, b).shape == (32, 16)

    def test_faster_than_sputnik_at_same_sparsity(self, gpu):
        """Tensor-core execution gives CLASP the edge over scalar Sputnik."""
        p = GemmProblem(4096, 1024, 4096, sparsity=0.9)
        assert clasp.estimate_time(p, gpu=gpu).time_us < sputnik.estimate_time(p, gpu=gpu).time_us

    def test_caps_well_below_spatha_at_high_sparsity(self, gpu):
        from repro.kernels.spatha import estimate_time as spatha_time

        p = GemmProblem.from_nm(4096, 1024, 4096, 2, 40, v=64)
        cl = clasp.estimate_time(p, gpu=gpu)
        sp = spatha_time(p, gpu=gpu)
        assert sp.time_us < cl.time_us

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            clasp.ClaspConfig(vector_length=0)
        with pytest.raises(ValueError):
            clasp.ClaspConfig(gather_reuse=1.5)

    def test_wrong_operand_type(self, rng):
        with pytest.raises(TypeError):
            clasp.spmm(rng.normal(size=(4, 8)), rng.normal(size=(8, 2)))

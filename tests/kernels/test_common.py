"""Tests for the shared kernel abstractions (GemmProblem, KernelResult)."""

import numpy as np
import pytest

from repro.kernels import cublas
from repro.kernels.common import (
    GemmProblem,
    KernelResult,
    reference_matmul_fp16,
)


class TestGemmProblem:
    def test_dense_flops(self):
        p = GemmProblem(r=4, k=8, c=2)
        assert p.dense_flops == 2 * 4 * 8 * 2

    def test_effective_flops_scale_with_density(self):
        p = GemmProblem(r=4, k=8, c=2, sparsity=0.75)
        assert p.effective_flops == pytest.approx(p.dense_flops * 0.25)
        assert p.density == pytest.approx(0.25)

    def test_from_nm(self):
        p = GemmProblem.from_nm(1024, 4096, 4096, 2, 10, v=128)
        assert p.sparsity == pytest.approx(0.8)
        assert (p.n, p.m, p.v) == (2, 10, 128)

    def test_with_sparsity(self):
        p = GemmProblem(r=4, k=8, c=2)
        q = p.with_sparsity(0.5, n=2, m=4)
        assert q.sparsity == 0.5 and p.sparsity == 0.0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            GemmProblem(r=0, k=8, c=2)

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            GemmProblem(r=4, k=8, c=2, sparsity=1.0)

    def test_n_and_m_must_come_together(self):
        with pytest.raises(ValueError):
            GemmProblem(r=4, k=8, c=2, n=2)

    def test_invalid_pattern(self):
        with pytest.raises(ValueError):
            GemmProblem.from_nm(4, 8, 2, 5, 4)


class TestKernelResult:
    @pytest.fixture
    def dense_result(self, gpu):
        return cublas.estimate_time(GemmProblem(r=256, k=512, c=256), gpu=gpu)

    def test_time_properties(self, dense_result):
        assert dense_result.time_us > 0
        assert dense_result.time_ms == pytest.approx(dense_result.time_us / 1e3)

    def test_tflops_dense_equivalent_at_least_effective(self, gpu):
        sparse = GemmProblem.from_nm(256, 512, 256, 2, 8, v=64)
        from repro.kernels.spatha import estimate_time

        res = estimate_time(sparse, gpu=gpu)
        assert res.tflops_dense_equivalent > res.tflops_effective

    def test_speedup_over_same_problem(self, gpu, dense_result):
        other = cublas.estimate_time(GemmProblem(r=256, k=512, c=256), gpu=gpu)
        assert dense_result.speedup_over(other) == pytest.approx(1.0)

    def test_speedup_requires_same_dims(self, gpu, dense_result):
        other = cublas.estimate_time(GemmProblem(r=128, k=512, c=256), gpu=gpu)
        with pytest.raises(ValueError):
            dense_result.speedup_over(other)

    def test_as_execution(self, dense_result):
        ex = dense_result.as_execution("gemm")
        assert ex.kernel == dense_result.kernel
        assert ex.time_us == pytest.approx(dense_result.time_us)


class TestReferenceMatmul:
    def test_matches_float64_for_small_values(self, rng):
        a = rng.normal(scale=0.1, size=(16, 32)).astype(np.float32)
        b = rng.normal(scale=0.1, size=(32, 8)).astype(np.float32)
        out = reference_matmul_fp16(a, b)
        expected = a.astype(np.float64) @ b.astype(np.float64)
        assert np.allclose(out, expected, atol=1e-2)

    def test_fp16_rounding_applied(self):
        a = np.array([[1.0 + 2.0**-12]], dtype=np.float32)
        b = np.array([[1.0]], dtype=np.float32)
        assert reference_matmul_fp16(a, b)[0, 0] == pytest.approx(1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            reference_matmul_fp16(np.ones((2, 3)), np.ones((4, 2)))
        with pytest.raises(ValueError):
            reference_matmul_fp16(np.ones(3), np.ones((3, 2)))

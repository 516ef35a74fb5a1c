"""Numerical tests for Spatha's SpMM (the V:N:M kernel)."""

import numpy as np
import pytest

from repro.formats.vnm import VNMSparseMatrix
from repro.kernels.common import GemmProblem
from repro.kernels.spatha import (
    Spatha,
    SpathaTuner,
    default_config,
    estimate_time,
    speedup_vs_dense,
    theoretical_speedup_cap,
)
from repro.kernels.spatha.spmm import spmm, spmm_dense_baseline, spmm_reference
from repro.pruning.masks import apply_mask
from repro.pruning.vnm import vnm_mask


def make_operands(rng, rows=64, cols=96, c=32, v=16, n=2, m=8):
    dense = rng.normal(size=(rows, cols))
    pruned = apply_mask(dense, vnm_mask(dense, v=v, n=n, m=m)).astype(np.float32)
    a = VNMSparseMatrix.from_dense(pruned, v=v, n=n, m=m)
    b = rng.normal(size=(cols, c)).astype(np.float32)
    return a, pruned, b


class TestSpmmNumerics:
    def test_matches_dense_reference(self, rng):
        a, pruned, b = make_operands(rng)
        assert np.allclose(spmm(a, b), spmm_dense_baseline(pruned, b), atol=2e-2, rtol=1e-2)

    def test_matches_decompressed_reference(self, rng):
        a, _, b = make_operands(rng)
        assert np.allclose(spmm(a, b), spmm_reference(a, b), atol=2e-2, rtol=1e-2)

    def test_multiple_vnm_configurations(self, rng):
        for v, n, m in [(16, 2, 4), (16, 1, 8), (32, 2, 16), (16, 2, 10)]:
            cols = 2 * m * 4
            a, pruned, b = make_operands(rng, rows=64, cols=cols, c=16, v=v, n=n, m=m)
            assert np.allclose(spmm(a, b), spmm_dense_baseline(pruned, b), atol=2e-2, rtol=1e-2), (v, n, m)

    def test_bias_added_per_row(self, rng):
        a, _, b = make_operands(rng)
        bias = rng.normal(size=a.shape[0]).astype(np.float32)
        with_bias = spmm(a, b, bias=bias)
        without = spmm(a, b)
        assert np.allclose(with_bias - without, bias[:, None], atol=1e-6)

    def test_bias_shape_validated(self, rng):
        a, _, b = make_operands(rng)
        with pytest.raises(ValueError):
            spmm(a, b, bias=np.ones(3))

    def test_wrong_operand_type(self, rng):
        with pytest.raises(TypeError):
            spmm(rng.normal(size=(4, 8)), rng.normal(size=(8, 2)))

    def test_shape_mismatch(self, rng):
        a, _, _ = make_operands(rng)
        with pytest.raises(ValueError):
            spmm(a, np.ones((5, 5)))

    def test_zero_matrix_gives_zero_output(self, rng):
        a, _, b = make_operands(rng)
        zero = VNMSparseMatrix.from_dense(
            np.zeros(a.shape, dtype=np.float32), v=a.v, n=a.n, m=a.m, strict=True
        )
        assert np.allclose(spmm(zero, b), 0.0)

    def test_identity_like_selection(self):
        """A matrix whose only non-zeros sit in the selected columns must
        reproduce exact row gathers of B."""
        a_dense = np.zeros((16, 16), dtype=np.float32)
        a_dense[0, 3] = 1.0
        a_dense[5, 11] = 2.0
        a = VNMSparseMatrix.from_dense(a_dense, v=16, n=2, m=8, strict=True)
        b = np.arange(16 * 4, dtype=np.float32).reshape(16, 4)
        out = spmm(a, b)
        assert np.allclose(out[0], b[3])
        assert np.allclose(out[5], 2.0 * b[11])


class TestSpathaFacade:
    def test_spmm_and_estimate(self, rng):
        spatha = Spatha(autotune=False)
        a, pruned, b = make_operands(rng, rows=128, cols=128, c=32, v=32, n=2, m=8)
        assert np.allclose(spatha.spmm(a, b), spmm_dense_baseline(pruned, b), atol=2e-2, rtol=1e-2)
        assert spatha.estimate(GemmProblem.from_nm(r=128, k=128, c=32, n=2, m=8, v=32)).time_us > 0


class TestFigure13Patterns:
    """Spatha at every sparsity of the paper's sweep, 2:4 up to 2:100."""

    @staticmethod
    def problem(n, m, v=128):
        return GemmProblem.from_nm(r=1024, k=4096, c=4096, n=n, m=m, v=v)

    def test_spmm_matches_dense_baseline(self, rng, fig13_pattern):
        _, n, m = fig13_pattern
        a, pruned, b = make_operands(rng, rows=32, cols=3 * m, c=8, v=16, n=n, m=m)
        assert np.allclose(spmm(a, b), spmm_dense_baseline(pruned, b), atol=2e-2, rtol=1e-2)

    def test_speedup_over_cublas_within_the_cap(self, gpu, fig13_pattern):
        _, n, m = fig13_pattern
        assert 1.0 < speedup_vs_dense(self.problem(n, m), gpu=gpu) <= theoretical_speedup_cap(n, m)

    def test_tuner_never_worse_than_default(self, gpu, fig13_pattern):
        _, n, m = fig13_pattern
        p = self.problem(n, m)
        record = SpathaTuner(gpu=gpu).tune(p)
        times = [t for _, t in record.results]
        assert times == sorted(times)
        assert record.best_time_us <= estimate_time(p, config=default_config(128), gpu=gpu).time_us

    def test_larger_v_is_not_slower(self, gpu, fig13_pattern):
        """Figure 10: with each V's default template, a taller vector never costs time."""
        _, n, m = fig13_pattern
        times = [
            estimate_time(self.problem(n, m, v), config=default_config(v), gpu=gpu).time_us
            for v in (32, 64, 128)
        ]
        assert times == sorted(times, reverse=True)

"""The kernels' long-lived fp16 operand copies start on a 64-byte line.

The Spatha plan's ``condensed16`` and ``dense16`` and a dense operand's
``dense16()`` are allocated aligned where they are built (the rounding's
output, the scatter), so where they land no longer depends on the
allocator; their bytes are exactly ``quantize_fp16`` of the logical view.
"""

import numpy as np
import pytest

from repro.formats.base import ALIGNMENT, empty_aligned, quantize_fp16, quantize_fp16_aligned
from repro.formats.vnm import VNMSparseMatrix
from repro.kernels.dispatch import SpmmOperand
from repro.kernels.spatha import SpmmPlan


def assert_aligned_copy(copy, expected):
    assert copy.ctypes.data % ALIGNMENT == 0
    assert copy.dtype == np.float32 and copy.shape == expected.shape
    assert copy.flags.c_contiguous
    assert copy.tobytes() == np.ascontiguousarray(expected).tobytes()


#: (R, K): a plan under the rounding kernel's 256-element floor, one chunk,
#: and more than one 32K-element chunk.
SHAPES = ((16, 8), (64, 128), (256, 512))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("pattern", [(16, 2, 4), (16, 2, 8), (8, 1, 8)], ids=lambda p: "%d:%d:%d" % p)
def test_plan_copies_are_aligned_and_exact(rng, shape, pattern):
    v, n, m = pattern
    dense = rng.normal(size=shape).astype(np.float32)
    vnm = VNMSparseMatrix.from_dense(dense, v=v, n=n, m=m, strict=False)
    plan = SpmmPlan(vnm)
    assert_aligned_copy(plan.condensed16, quantize_fp16(vnm.to_condensed()))
    assert_aligned_copy(plan.dense16, quantize_fp16(vnm.to_dense()))


def test_fig13_plan_copies_are_aligned_and_exact(rng, fig13_pattern):
    _, n, m = fig13_pattern
    dense = rng.normal(size=(32, 2 * m)).astype(np.float32)
    vnm = VNMSparseMatrix.from_dense(dense, v=16, n=n, m=m, strict=False)
    plan = SpmmPlan(vnm)
    assert_aligned_copy(plan.condensed16, quantize_fp16(vnm.to_condensed()))
    assert_aligned_copy(plan.dense16, quantize_fp16(vnm.to_dense()))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "%dx%d" % s)
def test_dense_operand_dense16_is_aligned_and_exact(rng, shape):
    weight = rng.normal(size=shape).astype(np.float32)
    weight[0, 0] = 1e9  # rounds to inf: the non-finite chunk path is exact too
    op = SpmmOperand(dense=weight)
    with np.errstate(over="ignore"):
        expected = quantize_fp16(weight)
    assert_aligned_copy(op.dense16(), expected)
    assert op.dense16() is op.dense16()


def test_vnm_operand_dense16_is_the_plans(rng):
    vnm = VNMSparseMatrix.from_dense(rng.normal(size=(64, 128)).astype(np.float32), v=16, n=2, m=8, strict=False)
    assert SpmmOperand.from_vnm(vnm).dense16() is SpmmPlan.for_matrix(vnm).dense16


def test_rounding_keeps_a_fortran_layout(rng):
    """A Fortran-ordered weight keeps its layout (so its GEMM keeps its bits)."""
    weight = np.asfortranarray(rng.normal(size=(96, 64)).astype(np.float32))
    out = quantize_fp16_aligned(weight)
    assert out.flags.f_contiguous and out.ctypes.data % ALIGNMENT == 0
    assert np.array_equal(out, quantize_fp16(weight))
    strided = rng.normal(size=(64, 256)).astype(np.float32)[:, ::2]
    assert np.array_equal(quantize_fp16_aligned(strided), quantize_fp16(strided))


@pytest.mark.parametrize("shape", [(0,), (3,), (5, 7), (128, 33)])
@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.bool_])
def test_empty_aligned(shape, dtype):
    out = empty_aligned(shape, dtype)
    assert out.shape == shape and out.dtype == dtype and out.flags.c_contiguous
    assert out.ctypes.data % ALIGNMENT == 0 or out.size == 0

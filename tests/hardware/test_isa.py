"""Tests for the tensor-core ISA table (paper Table 1)."""

import pytest

from repro.hardware.isa import (
    NATIVE_NM_PATTERN,
    SPARSE_MMA_SHAPES,
    MmaShape,
    default_sparse_shape,
    sparse_mma_shapes,
)


class TestTable1Contents:
    """The table must match the paper's Table 1 exactly."""

    def test_fp16_shapes(self):
        ks = sorted(s.k for s in sparse_mma_shapes("fp16"))
        assert ks == [16, 32]

    def test_fp32_shapes(self):
        ks = sorted(s.k for s in sparse_mma_shapes("fp32"))
        assert ks == [8, 16]

    def test_uint8_shapes(self):
        ks = sorted(s.k for s in sparse_mma_shapes("uint8"))
        assert ks == [32, 64]

    def test_uint4_shapes(self):
        ks = sorted(s.k for s in sparse_mma_shapes("uint4"))
        assert ks == [64, 128]

    def test_m_and_n_fixed_to_16_and_8(self):
        for shapes in SPARSE_MMA_SHAPES.values():
            for s in shapes:
                assert s.m == 16 and s.n == 8

    def test_native_patterns(self):
        assert NATIVE_NM_PATTERN == {"fp16": (2, 4), "fp32": (1, 2), "uint8": (2, 4), "uint4": (2, 4)}

    def test_unknown_precision_raises(self):
        with pytest.raises(KeyError):
            sparse_mma_shapes("bf32")


class TestMmaShape:
    def test_name_mnemonic(self):
        assert MmaShape(16, 8, 32, "fp16", sparse=True).name == "m16n8k32"

    def test_flops(self):
        s = MmaShape(16, 8, 32, "fp16", sparse=True)
        assert s.flops == 2 * 16 * 8 * 32

    def test_sparse_lhs_is_half(self):
        sparse = MmaShape(16, 8, 32, "fp16", sparse=True)
        dense = MmaShape(16, 8, 32, "fp16", sparse=False)
        assert sparse.lhs_elements == dense.lhs_elements // 2

    def test_metadata_bits(self):
        sparse = MmaShape(16, 8, 32, "fp16", sparse=True)
        assert sparse.metadata_bits == 2 * sparse.lhs_elements
        assert MmaShape(16, 8, 16, "fp16", sparse=False).metadata_bits == 0

    def test_rhs_and_acc_sizes(self):
        s = MmaShape(16, 8, 32, "fp16", sparse=True)
        assert s.rhs_elements == 32 * 8
        assert s.acc_elements == 16 * 8


class TestLookups:
    def test_default_sparse_shape_is_k32(self):
        assert default_sparse_shape("fp16").name == "m16n8k32"

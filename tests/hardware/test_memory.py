"""Tests for the memory traffic / transfer-time model."""

import pytest

from repro.hardware.memory import (
    DTYPE_BYTES,
    TrafficRecord,
    TransactionModel,
    dtype_bytes,
    gmem_cycles,
    matrix_bytes,
    smem_cycles,
    transfer_cycles,
)
from repro.hardware.spec import rtx3090


class TestDtypeBytes:
    def test_known_precisions(self):
        assert dtype_bytes("fp16") == 2.0
        assert dtype_bytes("fp32") == 4.0
        assert dtype_bytes("uint4") == 0.5

    def test_case_insensitive(self):
        assert dtype_bytes("FP16") == 2.0

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            dtype_bytes("fp8e4m3")

    def test_table_complete(self):
        assert set(DTYPE_BYTES) >= {"fp16", "fp32", "uint8", "uint4"}


class TestTrafficRecord:
    def test_defaults_zero(self):
        t = TrafficRecord()
        assert t.gmem_total_bytes == 0
        assert t.smem_total_bytes == 0

    def test_merge_adds_componentwise(self):
        a = TrafficRecord(gmem_read_bytes=10, smem_write_bytes=5)
        b = TrafficRecord(gmem_read_bytes=3, gmem_write_bytes=7)
        merged = a.merge(b)
        assert merged.gmem_read_bytes == 13
        assert merged.gmem_write_bytes == 7
        assert merged.smem_write_bytes == 5
        # merge does not mutate the originals
        assert a.gmem_read_bytes == 10

    def test_totals(self):
        t = TrafficRecord(gmem_read_bytes=10, gmem_write_bytes=4, smem_read_bytes=6, smem_write_bytes=2)
        assert t.gmem_total_bytes == 14
        assert t.smem_total_bytes == 8


class TestTransactionModel:
    def test_invalid_width_raises(self):
        with pytest.raises(ValueError):
            TransactionModel(access_bits=48)

    def test_wider_access_fewer_instructions(self):
        assert TransactionModel(128).instructions_per_warp_line < TransactionModel(32).instructions_per_warp_line

    def test_gmem_efficiency_ordering(self):
        assert TransactionModel(128).gmem_efficiency >= TransactionModel(32).gmem_efficiency
        assert TransactionModel(128, coalesced=False).gmem_efficiency < TransactionModel(128).gmem_efficiency

    def test_smem_efficiency_ordering(self):
        assert TransactionModel(128).smem_efficiency > TransactionModel(64).smem_efficiency > TransactionModel(32).smem_efficiency

    def test_bytes_per_access(self):
        assert TransactionModel(128).bytes_per_access == 16.0


class TestTransferCycles:
    def test_scales_linearly_with_bytes(self, gpu):
        t1 = transfer_cycles(1e6, 900.0, gpu, efficiency=0.9)
        t2 = transfer_cycles(2e6, 900.0, gpu, efficiency=0.9)
        assert t2 - 0 == pytest.approx(2 * t1, rel=1e-6)

    def test_latency_added_once(self, gpu):
        base = transfer_cycles(1e6, 900.0, gpu, efficiency=1.0)
        with_lat = transfer_cycles(1e6, 900.0, gpu, efficiency=1.0, latency_cycles=100.0)
        assert with_lat == pytest.approx(base + 100.0)

    def test_negative_bytes_rejected(self, gpu):
        with pytest.raises(ValueError):
            transfer_cycles(-1.0, 900.0, gpu)

    def test_bad_efficiency_rejected(self, gpu):
        with pytest.raises(ValueError):
            transfer_cycles(1.0, 900.0, gpu, efficiency=0.0)
        with pytest.raises(ValueError):
            transfer_cycles(1.0, 900.0, gpu, efficiency=1.5)


class TestLevelModels:
    def test_smem_scales_with_active_sms(self, gpu):
        one = smem_cycles(1e7, gpu, active_sms=1)
        many = smem_cycles(1e7, gpu, active_sms=82)
        assert many < one

    def test_smem_conflicts_slow_it_down(self, gpu):
        clean = smem_cycles(1e7, gpu, active_sms=82, conflict_factor=1.0)
        conflicted = smem_cycles(1e7, gpu, active_sms=82, conflict_factor=4.0)
        assert conflicted > clean

    def test_smem_invalid_args(self, gpu):
        with pytest.raises(ValueError):
            smem_cycles(1.0, gpu, active_sms=0)
        with pytest.raises(ValueError):
            smem_cycles(1.0, gpu, active_sms=1, conflict_factor=0.5)

    def test_narrow_transactions_cost_more(self, gpu):
        wide = gmem_cycles(1e8, gpu, TransactionModel(128))
        narrow = gmem_cycles(1e8, gpu, TransactionModel(32))
        assert narrow > wide


class TestMatrixBytes:
    def test_fp16_matrix(self):
        assert matrix_bytes(128, 64, "fp16") == 128 * 64 * 2

    def test_negative_dims_rejected(self):
        with pytest.raises(ValueError):
            matrix_bytes(-1, 4)

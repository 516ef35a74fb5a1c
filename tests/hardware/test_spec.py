"""Tests for the GPU hardware descriptions."""

import dataclasses

import pytest

from repro.hardware.spec import GPUSpec, MemorySpec, a100_sxm, rtx3090


class TestPresets:
    def test_rtx3090_identity(self):
        gpu = rtx3090()
        assert "3090" in gpu.name
        assert gpu.num_sms == 82

    def test_rtx3090_sparse_rate_is_double_dense(self):
        gpu = rtx3090()
        assert gpu.sparse_fp16_tc_tflops == pytest.approx(2 * gpu.dense_fp16_tc_tflops)

    def test_a100_sparse_rate_is_double_dense(self):
        gpu = a100_sxm()
        assert gpu.sparse_fp16_tc_tflops == pytest.approx(2 * gpu.dense_fp16_tc_tflops)

    def test_a100_has_more_bandwidth_than_3090(self):
        assert a100_sxm().gmem.bandwidth_gbps > rtx3090().gmem.bandwidth_gbps

class TestDerivedQuantities:
    def test_clock_conversion_roundtrip(self):
        gpu = rtx3090()
        cycles = 1_000_000.0
        assert gpu.seconds_to_cycles(gpu.cycles_to_seconds(cycles)) == pytest.approx(cycles)

    def test_flops_per_cycle_consistency(self):
        gpu = rtx3090()
        assert gpu.dense_fp16_flops_per_cycle == pytest.approx(
            gpu.dense_fp16_tc_tflops * 1e12 / gpu.sm_clock_hz
        )
        assert gpu.sparse_fp16_flops_per_cycle == pytest.approx(2 * gpu.dense_fp16_flops_per_cycle)

    def test_gmem_bytes_per_cycle_positive(self):
        gpu = rtx3090()
        assert gpu.gmem_bytes_per_cycle > 0
        assert gpu.l2_bytes_per_cycle > gpu.gmem_bytes_per_cycle

    def test_smem_per_sm_width(self):
        gpu = rtx3090()
        assert gpu.smem_bytes_per_cycle_per_sm == gpu.smem_banks * gpu.smem_bank_width

    def test_with_overrides_returns_new_spec(self):
        gpu = rtx3090()
        modified = gpu.with_overrides(num_sms=100)
        assert modified.num_sms == 100
        assert gpu.num_sms == 82
        assert isinstance(modified, GPUSpec)

    def test_spec_is_frozen(self):
        gpu = rtx3090()
        with pytest.raises(dataclasses.FrozenInstanceError):
            gpu.num_sms = 1  # type: ignore[misc]


class TestMemorySpec:
    def test_memory_spec_fields(self):
        mem = MemorySpec(bandwidth_gbps=900.0, latency_cycles=400.0, capacity_bytes=1024)
        assert mem.bandwidth_gbps == 900.0
        assert mem.capacity_bytes == 1024

    def test_presets_have_sane_hierarchy(self):
        gpu = rtx3090()
        # Bandwidth rises as we move up the hierarchy; capacity shrinks.
        assert gpu.gmem.bandwidth_gbps < gpu.l2.bandwidth_gbps < gpu.smem.bandwidth_gbps
        assert gpu.gmem.capacity_bytes > gpu.l2.capacity_bytes

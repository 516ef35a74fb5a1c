"""Tests for the occupancy calculator."""

import pytest

from repro.hardware.occupancy import (
    BlockResources,
    active_sms,
    blocks_per_sm,
    latency_hiding_factor,
    quantized_waves,
    wave_efficiency,
    waves,
)
from repro.hardware.spec import rtx3090


@pytest.fixture
def light_block():
    """A block with tiny resource needs (occupancy limited by block count)."""
    return BlockResources(threads=64, registers_per_thread=32, smem_bytes=1024)


@pytest.fixture
def heavy_block():
    """A block limited by shared memory."""
    return BlockResources(threads=256, registers_per_thread=128, smem_bytes=96 * 1024)


class TestBlockResources:
    def test_warps_rounded_up(self):
        assert BlockResources(threads=96, registers_per_thread=32, smem_bytes=0).warps == 3

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            BlockResources(threads=0, registers_per_thread=32, smem_bytes=0)
        with pytest.raises(ValueError):
            BlockResources(threads=32, registers_per_thread=0, smem_bytes=0)
        with pytest.raises(ValueError):
            BlockResources(threads=32, registers_per_thread=32, smem_bytes=-1)


class TestBlocksPerSm:
    def test_light_block_limited_by_block_slots(self, light_block, gpu):
        occ = blocks_per_sm(light_block, gpu)
        assert occ.blocks_per_sm == gpu.max_blocks_per_sm
        assert occ.limiting_factor == "blocks"

    def test_heavy_block_limited_by_smem(self, heavy_block, gpu):
        occ = blocks_per_sm(heavy_block, gpu)
        assert occ.limiting_factor == "shared_memory"
        assert occ.blocks_per_sm == gpu.smem.capacity_bytes // heavy_block.smem_bytes

    def test_register_limit(self, gpu):
        block = BlockResources(threads=1024, registers_per_thread=255, smem_bytes=0)
        occ = blocks_per_sm(block, gpu)
        assert occ.limiting_factor in {"registers", "threads", "warps"}
        assert occ.blocks_per_sm <= 1

    def test_occupancy_fraction_bounded(self, light_block, heavy_block, gpu):
        for block in (light_block, heavy_block):
            occ = blocks_per_sm(block, gpu)
            assert 0.0 <= occ.occupancy <= 1.0


class TestWaves:
    def test_zero_blocks(self, light_block, gpu):
        assert waves(0, light_block, gpu) == 0.0
        assert quantized_waves(0, light_block, gpu) == 0

    def test_waves_scale_with_grid(self, heavy_block, gpu):
        assert waves(200, heavy_block, gpu) > waves(100, heavy_block, gpu)

    def test_quantized_is_ceiling(self, heavy_block, gpu):
        w = waves(150, heavy_block, gpu)
        assert quantized_waves(150, heavy_block, gpu) == pytest.approx(-(-w // 1))

    def test_negative_blocks_rejected(self, light_block, gpu):
        with pytest.raises(ValueError):
            waves(-1, light_block, gpu)

    def test_oversized_block_rejected(self, gpu):
        impossible = BlockResources(threads=1024, registers_per_thread=255, smem_bytes=512 * 1024)
        with pytest.raises(ValueError):
            waves(10, impossible, gpu)

    def test_wave_efficiency_full_wave(self, heavy_block, gpu):
        occ = blocks_per_sm(heavy_block, gpu)
        chip = occ.blocks_per_sm * gpu.num_sms
        assert wave_efficiency(chip, heavy_block, gpu) == pytest.approx(1.0)

    def test_wave_efficiency_partial_wave(self, heavy_block, gpu):
        occ = blocks_per_sm(heavy_block, gpu)
        chip = occ.blocks_per_sm * gpu.num_sms
        eff = wave_efficiency(chip + 1, heavy_block, gpu)
        assert 0.5 < eff < 1.0


class TestActiveSms:
    def test_small_grid_limits_sms(self, light_block, gpu):
        assert active_sms(4, light_block, gpu) <= 4

    def test_large_grid_uses_all_sms(self, light_block, gpu):
        assert active_sms(10_000, light_block, gpu) == gpu.num_sms

    def test_zero_blocks(self, light_block, gpu):
        assert active_sms(0, light_block, gpu) == 0

    @pytest.mark.parametrize("block", ["light_block", "heavy_block"])
    def test_pinned_values(self, block, gpu, request):
        """One SM per ``blocks_per_sm`` blocks, rounded up, at most all of them."""
        resources = request.getfixturevalue(block)
        per_sm = blocks_per_sm(resources, gpu).blocks_per_sm
        assert per_sm == {"light_block": 16, "heavy_block": 1}[block]
        chip = per_sm * gpu.num_sms
        expected = {
            0: 0,
            1: 1,
            per_sm: 1,
            per_sm + 1: 2,
            chip - per_sm: gpu.num_sms - 1,
            chip - per_sm + 1: gpu.num_sms,
            chip: gpu.num_sms,
            chip + 1: gpu.num_sms,
        }
        for total_blocks, sms in expected.items():
            assert active_sms(total_blocks, resources, gpu) == sms, total_blocks

    def test_a_block_that_fits_no_sm_runs_nowhere(self, gpu):
        too_big = BlockResources(threads=64, registers_per_thread=32, smem_bytes=gpu.smem.capacity_bytes + 1)
        assert active_sms(100, too_big, gpu) == 0

    def test_negative_grid_rejected(self, light_block, gpu):
        with pytest.raises(ValueError):
            active_sms(-1, light_block, gpu)


class TestLatencyHiding:
    def test_deeper_pipeline_hides_more(self, heavy_block, gpu):
        assert latency_hiding_factor(heavy_block, gpu, pipeline_stages=4) >= latency_hiding_factor(
            heavy_block, gpu, pipeline_stages=1
        )

    def test_bounded_by_one(self, light_block, gpu):
        assert latency_hiding_factor(light_block, gpu, pipeline_stages=8) <= 1.0

    def test_invalid_stage_count(self, light_block, gpu):
        with pytest.raises(ValueError):
            latency_hiding_factor(light_block, gpu, pipeline_stages=0)

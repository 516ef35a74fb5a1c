"""Tests for Spatha's kernel configuration and tile decomposition."""

import pytest

from repro.kernels.spatha.config import KernelConfig, candidate_configs, default_config
from repro.kernels.spatha.tiles import compute_tile_counts, condensed_k


class TestKernelConfig:
    def test_default_config_pins_bsr_to_v(self):
        assert default_config(64).bs_r == 64
        assert default_config(128).bs_r == 128

    def test_warp_and_thread_counts(self):
        cfg = KernelConfig(bs_r=128, bs_c=64, ws_r=32, ws_c=32)
        assert cfg.warps_per_block == (128 // 32) * (64 // 32)
        assert cfg.threads_per_block == cfg.warps_per_block * 32

    def test_invalid_divisibility(self):
        with pytest.raises(ValueError):
            KernelConfig(bs_r=100, ws_r=32)
        with pytest.raises(ValueError):
            KernelConfig(ws_c=12)  # not a multiple of mma.n=8
        with pytest.raises(ValueError):
            KernelConfig(bs_k=48, ws_k=32)
        with pytest.raises(ValueError):
            KernelConfig(batch_size=0)

    def test_smem_fits_hardware_limit(self, gpu):
        for cfg in candidate_configs(128, 4096):
            assert cfg.smem_bytes() <= gpu.smem.capacity_bytes

    def test_register_estimate_bounded(self):
        for cfg in candidate_configs(64, 4096):
            assert 0 < cfg.registers_per_thread() <= 255

    def test_block_resources(self):
        cfg = default_config(128)
        res = cfg.block_resources()
        assert res.threads == cfg.threads_per_block
        assert res.smem_bytes == cfg.smem_bytes()

    def test_with_options(self):
        cfg = default_config(64)
        narrow = cfg.with_options(wide_output_stores=False)
        assert not narrow.wide_output_stores
        assert cfg.wide_output_stores

    def test_describe_mentions_key_parameters(self):
        text = default_config(128).describe()
        assert "BS=128" in text and "m16n8k32" in text

    def test_candidate_space_nonempty_for_small_v(self):
        assert len(candidate_configs(16, 64)) >= 1


class TestTileArithmetic:
    def test_condensed_k(self):
        assert condensed_k(4096, 8) == 2048
        assert condensed_k(4096, 16) == 1024

    def test_condensed_k_padding(self):
        # 770 columns with M=8 -> 97 groups padded.
        assert condensed_k(770, 8) == 97 * 4
        with pytest.raises(ValueError):
            condensed_k(770, 8, pad=False)

    def test_tile_counts_cover_problem(self):
        cfg = default_config(128, bs_c=64)
        counts = compute_tile_counts(1024, 4096, 4096, 8, cfg)
        assert counts.grid_rows == 1024 // 128
        assert counts.grid_cols == 4096 // 64
        assert counts.total_blocks == counts.grid_rows * counts.grid_cols
        assert counts.k_steps == condensed_k(4096, 8) // cfg.bs_k
        assert counts.total_mma_instructions > 0

    def test_r_must_divide_by_v(self):
        cfg = default_config(128)
        with pytest.raises(ValueError):
            compute_tile_counts(1000, 4096, 4096, 8, cfg)

    def test_mma_count_consistent_with_flops(self):
        """Total mma.sp instructions x FLOPs per instruction >= logical work."""
        cfg = default_config(64, bs_c=32)
        r, k, c, m = 128, 256, 64, 8
        counts = compute_tile_counts(r, k, c, m, cfg)
        logical_flops = 2 * r * condensed_k(k, m) * c
        covered = counts.total_mma_instructions * cfg.mma.flops
        assert covered >= logical_flops

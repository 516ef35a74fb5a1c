"""Tests for the shared-memory bank-conflict simulator (paper Figure 8)."""

import pytest

from repro.hardware.banks import (
    BANK_WIDTH_BYTES,
    NUM_BANKS,
    bank_of,
    conflict_degree_for_layout,
    row_major_store_addresses,
    simulate_access,
    spatha_padded_store_addresses,
)


class TestBankOf:
    def test_wraps_over_32_banks(self):
        assert bank_of(0) == 0
        assert bank_of(4) == 1
        assert bank_of(NUM_BANKS * BANK_WIDTH_BYTES) == 0

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            bank_of(-4)


class TestSimulateAccess:
    def test_conflict_free_consecutive_words(self):
        # 32 threads accessing 32 consecutive 4-byte words: one word per bank.
        report = simulate_access([4 * t for t in range(32)], access_bytes=4)
        assert report.conflict_free
        assert report.conflict_factor == pytest.approx(1.0)

    def test_same_address_broadcasts(self):
        report = simulate_access([0] * 32, access_bytes=4)
        assert report.conflict_free

    def test_stride_32_words_serialises(self):
        # Stride of 32 words means every thread hits bank 0 at distinct addresses.
        report = simulate_access([t * NUM_BANKS * 4 for t in range(32)], access_bytes=4)
        assert report.worst_degree == 32
        assert not report.conflict_free

    def test_128bit_access_runs_quarter_warps(self):
        report = simulate_access([16 * t for t in range(32)], access_bytes=16)
        assert report.phases == 4  # quarter-warp per phase
        assert report.conflict_free

    def test_empty_access(self):
        report = simulate_access([], access_bytes=4)
        assert report.phases == 0
        assert report.conflict_factor == 1.0

    def test_too_many_threads_rejected(self):
        with pytest.raises(ValueError):
            simulate_access(list(range(33)))

    def test_bad_access_size_rejected(self):
        with pytest.raises(ValueError):
            simulate_access([0], access_bytes=3)


class TestLayouts:
    def test_spatha_padded_layout_is_conflict_free(self):
        addrs = spatha_padded_store_addresses(range(32), bsc=64)
        report = simulate_access(addrs, access_bytes=16)
        assert report.conflict_free

    def test_naive_strided_layout_conflicts(self):
        # 8 fp32 accumulators per thread in a 64-wide row: stride 32 bytes.
        addrs = row_major_store_addresses(range(32), values_per_thread=8, row_width_elems=64)
        report = simulate_access(addrs, access_bytes=4)
        assert not report.conflict_free
        assert report.worst_degree >= 4

    def test_padding_reduces_conflicts(self):
        no_pad = row_major_store_addresses(range(32), values_per_thread=8, row_width_elems=64, padding_elems=0)
        padded = row_major_store_addresses(range(32), values_per_thread=8, row_width_elems=64, padding_elems=1)
        assert (
            simulate_access(padded, access_bytes=4).conflict_factor
            <= simulate_access(no_pad, access_bytes=4).conflict_factor
        )

    def test_conflict_degree_for_layout_names(self):
        spatha = conflict_degree_for_layout("spatha_padded", access_bits=128, bsc=64)
        naive = conflict_degree_for_layout("naive_row_major", access_bits=32, bsc=64)
        assert spatha == pytest.approx(1.0)
        assert naive > spatha

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError):
            conflict_degree_for_layout("mystery")

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            spatha_padded_store_addresses(range(4), bsc=0)
        with pytest.raises(ValueError):
            row_major_store_addresses(range(4), values_per_thread=0, row_width_elems=8)

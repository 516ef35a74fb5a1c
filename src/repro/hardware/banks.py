"""Shared-memory bank-conflict simulator.

Stage 3 of Spatha (Section 4.1.3, Figure 8) stages the per-thread partial
results of a warp into shared memory before writing them back to global
memory with 128-bit transactions.  Shared memory is organised into 32 banks
of 4 bytes; when several threads of the same warp phase (a quarter-warp for
128-bit accesses, the full warp for 32-bit ones) hit the same bank at
different addresses, the hardware serialises the accesses.  The paper adds
padding elements to the staging layout so every quarter-warp touches 32
distinct banks, which is the layout Figure 8 depicts.

This module simulates bank behaviour for arbitrary thread -> address
mappings so the kernel model (and the tests) can verify that the padded
Spatha layout is conflict-free while a naive row-major layout is not, and so
the perf model can charge the correct serialisation factor for the 32-bit
store variant ablated in Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

#: Number of shared-memory banks on all NVIDIA architectures since Kepler.
NUM_BANKS = 32
#: Width of a bank in bytes.
BANK_WIDTH_BYTES = 4


def bank_of(byte_address: int, num_banks: int = NUM_BANKS, bank_width: int = BANK_WIDTH_BYTES) -> int:
    """Bank index addressed by a byte address."""
    if byte_address < 0:
        raise ValueError("byte_address must be non-negative")
    return (byte_address // bank_width) % num_banks


@dataclass(frozen=True)
class ConflictReport:
    """Result of simulating one warp-wide shared-memory access.

    Attributes
    ----------
    phases:
        Number of scheduling phases the access is split into by the access
        width (e.g. 128-bit accesses execute one quarter-warp per phase).
    serialized_passes:
        Total number of bank passes summed over phases; a conflict-free
        access has ``serialized_passes == phases``.
    worst_degree:
        Largest per-bank multiplicity observed in any phase (1 = no
        conflict, 2 = two-way conflict, ...).
    """

    phases: int
    serialized_passes: int
    worst_degree: int

    @property
    def conflict_factor(self) -> float:
        """Average serialisation multiplier (1.0 means conflict-free)."""
        if self.phases == 0:
            return 1.0
        return self.serialized_passes / self.phases

    @property
    def conflict_free(self) -> bool:
        """True when no phase has a bank accessed more than once."""
        return self.worst_degree <= 1


def simulate_access(
    byte_addresses: Sequence[int],
    access_bytes: int = 4,
    num_banks: int = NUM_BANKS,
    bank_width: int = BANK_WIDTH_BYTES,
) -> ConflictReport:
    """Simulate a warp access given the starting byte address per thread.

    Parameters
    ----------
    byte_addresses:
        One starting byte address per thread in the warp (up to 32
        entries).  Each thread moves ``access_bytes`` contiguous bytes.
    access_bytes:
        Per-thread access size: 4 (32-bit), 8 (64-bit) or 16 (128-bit).

    Notes
    -----
    The hardware splits wide accesses into phases so that at most 128 bytes
    are serviced per phase: 128-bit accesses run one quarter-warp (8
    threads) at a time, 64-bit ones run half-warps, 32-bit ones the whole
    warp.  Within a phase, threads hitting the same bank at the *same*
    address are broadcast (no conflict); different addresses in the same
    bank serialise.
    """
    if access_bytes not in (1, 2, 4, 8, 16):
        raise ValueError(f"unsupported per-thread access size: {access_bytes}")
    addresses = list(byte_addresses)
    if len(addresses) == 0:
        return ConflictReport(phases=0, serialized_passes=0, worst_degree=0)
    if len(addresses) > 32:
        raise ValueError("a warp has at most 32 threads")

    threads_per_phase = max(1, (num_banks * bank_width) // access_bytes)
    threads_per_phase = min(threads_per_phase, 32)

    phases = 0
    serialized = 0
    worst = 0
    for start in range(0, len(addresses), threads_per_phase):
        group = addresses[start : start + threads_per_phase]
        phases += 1
        # Map every 4-byte word touched by every thread in the phase to its
        # bank; identical (bank, word-address) pairs broadcast.
        per_bank_words: dict[int, set[int]] = {}
        for addr in group:
            for offset in range(0, access_bytes, bank_width):
                word_addr = (addr + offset) // bank_width
                bank = word_addr % num_banks
                per_bank_words.setdefault(bank, set()).add(word_addr)
        degree = max((len(words) for words in per_bank_words.values()), default=1)
        serialized += degree
        worst = max(worst, degree)
    return ConflictReport(phases=phases, serialized_passes=serialized, worst_degree=worst)


def row_major_store_addresses(
    thread_ids: Iterable[int],
    values_per_thread: int,
    row_width_elems: int,
    elem_bytes: int = 4,
    padding_elems: int = 0,
) -> List[int]:
    """Starting addresses for a row-major staging layout.

    Thread ``t`` stores ``values_per_thread`` contiguous elements starting
    at logical element ``t * values_per_thread``.  The logical matrix row
    width is ``row_width_elems`` elements; ``padding_elems`` extra elements
    are inserted at the end of each row (the classic padding trick used by
    Spatha's Figure 8 layout to spread quarter-warp accesses across banks).
    """
    if values_per_thread <= 0 or row_width_elems <= 0:
        raise ValueError("values_per_thread and row_width_elems must be positive")
    addresses = []
    for t in thread_ids:
        logical = t * values_per_thread
        row = logical // row_width_elems
        col = logical % row_width_elems
        padded_row_width = row_width_elems + padding_elems
        addresses.append((row * padded_row_width + col) * elem_bytes)
    return addresses


def spatha_padded_store_addresses(
    thread_ids: Iterable[int],
    bsc: int,
    elem_bytes: int = 4,
    vector_elems: int = 4,
) -> List[int]:
    """Addresses of the padded Spatha stage-3 layout (Figure 8, left side).

    Each thread stores one 128-bit vector (``vector_elems`` fp32 partials,
    i.e. 16 bytes) per iteration.  The layout appends one ``PAD`` vector
    after every ``NUM_BANKS`` vectors worth of data so that the bank index
    of a thread's vector advances by one every wrap-around, making each
    quarter-warp phase hit 8 distinct banks x 4 words = 32 banks overall.
    """
    if bsc <= 0:
        raise ValueError("bsc must be positive")
    vec_bytes = vector_elems * elem_bytes
    vectors_per_row = NUM_BANKS * BANK_WIDTH_BYTES // vec_bytes  # 8 vectors = 128 bytes
    addresses = []
    for t in thread_ids:
        # Interleave quarter-warps: thread t writes vector slot
        # (t % 8) within its quarter-warp row, quarter-warps own
        # consecutive padded rows.
        quarter = t // 8
        lane = t % 8
        row_stride_vectors = vectors_per_row + 1  # +1 PAD vector per row
        slot = quarter * row_stride_vectors + ((lane + quarter) % vectors_per_row)
        addresses.append(slot * vec_bytes)
    return addresses


def conflict_degree_for_layout(layout: str, access_bits: int = 128, bsc: int = 64) -> float:
    """Convenience: conflict factor of a named stage-3 layout.

    Parameters
    ----------
    layout:
        ``"spatha_padded"`` (the paper's conflict-free layout) or
        ``"naive_row_major"`` (no padding).
    access_bits:
        Per-thread store width (32 or 128).
    bsc:
        Thread-block tile width in output columns.
    """
    access_bytes = access_bits // 8
    threads = list(range(32))
    if layout == "spatha_padded":
        if access_bits == 128:
            addrs = spatha_padded_store_addresses(threads, bsc)
        else:
            # 32-bit stores of the same padded layout: each thread writes one
            # fp32 word; the padding still avoids most conflicts but the
            # access needs 4x the instructions (handled by TransactionModel).
            addrs = [a // 4 * 4 for a in spatha_padded_store_addresses(threads, bsc)]
        return simulate_access(addrs, access_bytes=access_bytes).conflict_factor
    if layout == "naive_row_major":
        # Each thread owns a contiguous run of bsc/8 accumulators (one per
        # MMAc-wide instruction tile), so consecutive threads start 4*(bsc/8)
        # bytes apart — the classic strided pattern that serialises on the
        # 32 banks when the stride is a multiple of the bank count.
        values_per_thread = max(1, bsc // 8)
        addrs = row_major_store_addresses(
            threads, values_per_thread=values_per_thread, row_width_elems=bsc, padding_elems=0
        )
        return simulate_access(addrs, access_bytes=access_bytes).conflict_factor
    raise ValueError(f"unknown layout {layout!r}")

"""Memory-hierarchy traffic and transfer-time model.

Spatha's kernel design (Section 4.1 of the paper) is organised around data
movement through the GPU memory hierarchy: GMEM -> SMEM -> RF for the
inputs, and RF -> SMEM -> GMEM for the output tile.  This module provides
the building blocks the kernel cost models use to account for that
movement:

* :class:`TrafficRecord` — byte counts per level for one kernel.
* :class:`TransactionModel` — efficiency of global/shared memory
  transactions as a function of the access width (32/64/128-bit) and
  coalescing.
* :func:`transfer_cycles` — time to move a number of bytes through a level
  given the chip-wide bandwidth and the number of participating SMs.

The model is deliberately simple (bandwidth + latency + efficiency factors)
because the experiments in the paper compare *ratios* of kernel times; what
matters is that the same model is applied consistently to Spatha and to all
baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .spec import GPUSpec

#: Bytes per element for the precisions used in the paper.
DTYPE_BYTES: Dict[str, float] = {
    "fp32": 4.0,
    "tf32": 4.0,
    "fp16": 2.0,
    "bf16": 2.0,
    "uint8": 1.0,
    "int8": 1.0,
    "uint4": 0.5,
    "int4": 0.5,
}


def dtype_bytes(precision: str) -> float:
    """Size in bytes of one element of ``precision``.

    Raises
    ------
    KeyError
        If the precision is unknown.
    """
    key = precision.lower()
    if key not in DTYPE_BYTES:
        raise KeyError(f"unknown precision {precision!r}; known: {sorted(DTYPE_BYTES)}")
    return DTYPE_BYTES[key]


@dataclass
class TrafficRecord:
    """Bytes moved at each level of the hierarchy by one kernel launch.

    The record is additive: kernel stages accumulate into one record and the
    totals feed the bandwidth model.  ``smem_transactions`` counts 32-bit
    bank transactions (after conflict serialisation) rather than raw bytes,
    because shared memory cost is transaction-bound.
    """

    gmem_read_bytes: float = 0.0
    gmem_write_bytes: float = 0.0
    l2_read_bytes: float = 0.0
    l2_write_bytes: float = 0.0
    smem_read_bytes: float = 0.0
    smem_write_bytes: float = 0.0
    smem_transactions: float = 0.0

    def merge(self, other: "TrafficRecord") -> "TrafficRecord":
        """Return a new record with the component-wise sum of both."""
        return TrafficRecord(
            gmem_read_bytes=self.gmem_read_bytes + other.gmem_read_bytes,
            gmem_write_bytes=self.gmem_write_bytes + other.gmem_write_bytes,
            l2_read_bytes=self.l2_read_bytes + other.l2_read_bytes,
            l2_write_bytes=self.l2_write_bytes + other.l2_write_bytes,
            smem_read_bytes=self.smem_read_bytes + other.smem_read_bytes,
            smem_write_bytes=self.smem_write_bytes + other.smem_write_bytes,
            smem_transactions=self.smem_transactions + other.smem_transactions,
        )

    @property
    def gmem_total_bytes(self) -> float:
        """Total DRAM traffic (reads + writes)."""
        return self.gmem_read_bytes + self.gmem_write_bytes

    @property
    def smem_total_bytes(self) -> float:
        """Total shared-memory traffic (reads + writes)."""
        return self.smem_read_bytes + self.smem_write_bytes


@dataclass(frozen=True)
class TransactionModel:
    """Efficiency of memory transactions as a function of access width.

    GPUs service global memory in 32-byte sectors and shared memory in
    128-byte (32 banks x 4 bytes) wavefronts.  Wide (128-bit) per-thread
    accesses let a warp cover a 128-byte cache line with a single
    transaction per quarter-warp; narrow (32-bit) accesses need four times
    as many instructions and, for stores to shared memory, expose more
    opportunities for bank conflicts.

    The paper's Figure 10 ablates 32-bit vs 128-bit shared-memory stores and
    observes up to 2x end-to-end difference on BERT-large-sized GEMMs; this
    model is what produces that gap in the reproduction.
    """

    #: Per-thread access width in bits (32, 64 or 128).
    access_bits: int = 128
    #: Whether consecutive threads access consecutive addresses.
    coalesced: bool = True

    def __post_init__(self) -> None:
        if self.access_bits not in (8, 16, 32, 64, 128):
            raise ValueError(f"unsupported access width: {self.access_bits} bits")

    @property
    def bytes_per_access(self) -> float:
        """Bytes moved by one thread per memory instruction."""
        return self.access_bits / 8.0

    @property
    def instructions_per_warp_line(self) -> float:
        """Memory instructions a warp needs to move 512 bytes.

        512 bytes is what a warp moves when every thread issues a full
        128-bit access; narrower accesses need proportionally more
        instructions for the same data.
        """
        per_thread = self.bytes_per_access
        return max(1.0, 512.0 / (32.0 * per_thread))

    @property
    def gmem_efficiency(self) -> float:
        """Fraction of peak DRAM bandwidth achievable with this pattern."""
        base = 0.88 if self.coalesced else 0.35
        if self.access_bits >= 128:
            return base
        if self.access_bits >= 64:
            return base * 0.97
        return base * 0.92

    @property
    def smem_efficiency(self) -> float:
        """Fraction of peak shared-memory throughput with this pattern.

        Narrow accesses pay extra instruction issue and scheduling overhead
        even when conflict-free; conflicts themselves are modelled
        separately in :mod:`repro.hardware.banks`.
        """
        if self.access_bits >= 128:
            return 1.0
        if self.access_bits >= 64:
            return 0.85
        return 0.55


def transfer_cycles(
    bytes_moved: float,
    bandwidth_gbps: float,
    gpu: GPUSpec,
    efficiency: float = 1.0,
    latency_cycles: float = 0.0,
) -> float:
    """Cycles needed to move ``bytes_moved`` through a bandwidth-bound level.

    Parameters
    ----------
    bytes_moved:
        Total bytes transferred by the kernel through this level.
    bandwidth_gbps:
        Peak bandwidth of the level in GB/s (chip aggregate).
    gpu:
        Hardware description (provides the clock for GB/s -> bytes/cycle).
    efficiency:
        Achieved fraction of peak bandwidth (0 < efficiency <= 1).
    latency_cycles:
        Fixed latency added once (pipeline fill).
    """
    if bytes_moved < 0:
        raise ValueError("bytes_moved must be non-negative")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    bytes_per_cycle = bandwidth_gbps * 1e9 / gpu.sm_clock_hz
    return latency_cycles + bytes_moved / (bytes_per_cycle * efficiency)


def gmem_cycles(bytes_moved: float, gpu: GPUSpec, tx: TransactionModel | None = None) -> float:
    """Cycles to stream ``bytes_moved`` from/to DRAM with pattern ``tx``."""
    tx = tx or TransactionModel()
    return transfer_cycles(
        bytes_moved,
        gpu.gmem.bandwidth_gbps,
        gpu,
        efficiency=tx.gmem_efficiency,
        latency_cycles=gpu.gmem.latency_cycles,
    )


def smem_cycles(
    bytes_moved: float,
    gpu: GPUSpec,
    active_sms: int,
    tx: TransactionModel | None = None,
    conflict_factor: float = 1.0,
) -> float:
    """Cycles to move ``bytes_moved`` through shared memory.

    Shared memory bandwidth is per-SM; a kernel that occupies ``active_sms``
    SMs sees ``active_sms`` times the single-SM throughput.  Bank conflicts
    multiply the time by ``conflict_factor`` (>= 1), as computed by
    :func:`repro.hardware.banks.conflict_degree`.
    """
    if active_sms <= 0:
        raise ValueError("active_sms must be positive")
    if conflict_factor < 1.0:
        raise ValueError("conflict_factor must be >= 1")
    return smem_cycles_array(bytes_moved, gpu, active_sms, tx or TransactionModel(), conflict_factor)


def smem_cycles_array(bytes_moved, gpu: GPUSpec, active_sms, tx: TransactionModel, conflict_factor=1.0):
    """:func:`smem_cycles` without its checks, so it broadcasts over NumPy
    arrays of launches (``active_sms >= 1`` and ``conflict_factor >= 1``
    are the caller's to keep).  The one definition of the formula: the
    scalar call returns exactly what an array entry holds."""
    per_sm_bytes_cycle = gpu.smem_bytes_per_cycle_per_sm * tx.smem_efficiency
    total_bytes_cycle = per_sm_bytes_cycle * active_sms
    return gpu.smem.latency_cycles + conflict_factor * bytes_moved / total_bytes_cycle


def matrix_bytes(rows: int, cols: int, precision: str = "fp16") -> float:
    """Storage footprint of a dense ``rows x cols`` matrix in bytes."""
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    return rows * cols * dtype_bytes(precision)

"""Occupancy calculator for the simulated GPU.

Spatha is a tiled GEMM-style kernel: each thread block owns a ``BSr x BSc``
output tile and consumes registers and shared memory proportional to its
tile sizes and pipelining depth.  Whether the GPU can keep all of its SMs
busy — and how many thread blocks run concurrently per SM to hide memory
latency — depends on those resource footprints.  This module implements a
standard occupancy calculation (the same arithmetic as NVIDIA's occupancy
calculator) used by the kernel performance models to derive:

* how many waves of thread blocks a GEMM launches
  (:func:`waves`), which produces the tile-quantisation staircase visible
  in the TFLOPS curves of Figure 12, and
* the latency-hiding factor applied to memory-bound phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spec import GPUSpec


@dataclass(frozen=True)
class BlockResources:
    """Per-thread-block resource usage of a kernel."""

    #: Threads per block (must be a multiple of the warp size).
    threads: int
    #: Registers used per thread.
    registers_per_thread: int
    #: Shared memory used per block, in bytes.
    smem_bytes: int

    def __post_init__(self) -> None:
        if self.threads <= 0:
            raise ValueError("threads must be positive")
        if self.registers_per_thread <= 0:
            raise ValueError("registers_per_thread must be positive")
        if self.smem_bytes < 0:
            raise ValueError("smem_bytes must be non-negative")

    @property
    def warps(self) -> int:
        """Warps per block (rounded up)."""
        return math.ceil(self.threads / 32)


@dataclass(frozen=True)
class OccupancyResult:
    """Outcome of the occupancy calculation for one kernel on one GPU."""

    blocks_per_sm: int
    warps_per_sm: int
    max_warps_per_sm: int
    limiting_factor: str

    @property
    def occupancy(self) -> float:
        """Achieved occupancy as a fraction of the maximum warps per SM."""
        if self.max_warps_per_sm == 0:
            return 0.0
        return self.warps_per_sm / self.max_warps_per_sm


def blocks_per_sm(resources: BlockResources, gpu: GPUSpec) -> OccupancyResult:
    """Number of thread blocks of a kernel that fit concurrently on one SM.

    The limit is the minimum over four constraints: resident blocks,
    resident warps/threads, register file, and shared memory.  The name of
    the binding constraint is reported to make tuner decisions explainable.
    """
    limits = {}
    limits["blocks"] = gpu.max_blocks_per_sm
    limits["threads"] = gpu.max_threads_per_sm // resources.threads if resources.threads else 0
    limits["warps"] = gpu.max_warps_per_sm // resources.warps if resources.warps else 0

    regs_per_block = resources.registers_per_thread * resources.threads
    limits["registers"] = gpu.registers_per_sm // regs_per_block if regs_per_block else 0

    if resources.smem_bytes > 0:
        limits["shared_memory"] = gpu.smem.capacity_bytes // resources.smem_bytes
    else:
        limits["shared_memory"] = gpu.max_blocks_per_sm

    binding = min(limits, key=lambda k: limits[k])
    n_blocks = max(0, int(limits[binding]))
    warps = n_blocks * resources.warps
    warps = min(warps, gpu.max_warps_per_sm)
    return OccupancyResult(
        blocks_per_sm=n_blocks,
        warps_per_sm=warps,
        max_warps_per_sm=gpu.max_warps_per_sm,
        limiting_factor=binding,
    )


def waves(total_blocks: int, resources: BlockResources, gpu: GPUSpec) -> float:
    """Number of waves of thread blocks a grid of ``total_blocks`` needs.

    A "wave" is one full round of concurrently resident blocks across the
    whole chip.  Fractional waves capture the tail effect: a grid of
    ``1.1 * chip capacity`` blocks takes ~2 waves of time even though the
    second wave is mostly idle, producing the characteristic staircase in
    GEMM throughput as a function of problem size.
    """
    if total_blocks < 0:
        raise ValueError("total_blocks must be non-negative")
    if total_blocks == 0:
        return 0.0
    occ = blocks_per_sm(resources, gpu)
    if occ.blocks_per_sm == 0:
        raise ValueError(
            "kernel cannot run: a single thread block exceeds SM resources "
            f"(limited by {occ.limiting_factor})"
        )
    chip_capacity = occ.blocks_per_sm * gpu.num_sms
    return total_blocks / chip_capacity


def quantized_waves(total_blocks: int, resources: BlockResources, gpu: GPUSpec) -> int:
    """Integer number of waves, i.e. ``ceil(waves(...))``."""
    return int(math.ceil(waves(total_blocks, resources, gpu))) if total_blocks else 0


def wave_efficiency(total_blocks: int, resources: BlockResources, gpu: GPUSpec) -> float:
    """Utilisation of the last wave (1.0 means perfectly full waves).

    This is the multiplier applied to the compute-bound time of a kernel to
    account for tail-wave under-utilisation.
    """
    w = waves(total_blocks, resources, gpu)
    if w == 0:
        return 1.0
    return w / math.ceil(w)


def active_sms(total_blocks: int, resources: BlockResources, gpu: GPUSpec) -> int:
    """Number of SMs that have at least one resident block.

    Small GEMMs (few output tiles) cannot occupy the whole chip; their
    memory phases only see the bandwidth of the SMs they actually run on
    when the traffic is SMEM-bound, and they under-utilise DRAM when it is
    GMEM-bound.  A grid of ``total_blocks`` fills ``ceil(total_blocks /
    blocks_per_sm)`` SMs, at most all of them; a block that fits no SM
    runs nowhere.
    """
    if total_blocks < 0:
        raise ValueError("total_blocks must be non-negative")
    occ = blocks_per_sm(resources, gpu)
    if occ.blocks_per_sm == 0:
        return 0
    return min(gpu.num_sms, math.ceil(total_blocks / occ.blocks_per_sm))


def latency_hiding_factor(resources: BlockResources, gpu: GPUSpec, pipeline_stages: int = 1) -> float:
    """Fraction of memory latency hidden by warp-level parallelism.

    With more resident warps per SM and deeper software pipelining
    (``batchSize`` in Spatha's template), the scheduler can overlap global
    memory loads with tensor-core work.  Returns a value in (0, 1]: the
    *exposed* fraction of the ideal overlap, where 1.0 means the kernel can
    fully overlap loads and math and lower values mean stalls remain.
    """
    if pipeline_stages < 1:
        raise ValueError("pipeline_stages must be >= 1")
    occ = blocks_per_sm(resources, gpu)
    warp_parallelism = min(1.0, occ.warps_per_sm / 12.0)  # ~12 warps hide GMEM latency
    pipeline_bonus = 1.0 - 0.5 ** pipeline_stages
    factor = 0.55 + 0.45 * warp_parallelism * pipeline_bonus
    return min(1.0, factor)

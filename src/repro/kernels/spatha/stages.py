"""Stage-level cost model of the Spatha kernel (Section 4.1).

The kernel time is assembled from the three stages the paper describes:

* **Stage 1 — data loading** (Figure 5): column-loc prefetch, A/B tile
  movement GMEM -> SMEM -> RF with asynchronous pipelining of depth
  ``batchSize``.  The column-loc indirection adds a partially hidden
  dependent-load latency per k-step; disabling it (``use_column_loc=False``,
  the Figure 9 ablation) removes both its traffic and that latency.
* **Stage 2 — computation** (Figure 6): ``mma.sp`` issue over the condensed
  operand at the Sparse Tensor Core rate.
* **Stage 3 — result storage** (Figure 8): staging of fp32 partials in
  shared memory and 128-bit write-back, either with the conflict-free
  padded layout (wide stores) or with plain 32-bit stores (the Figure 10
  ablation), whose bank conflicts are taken from the simulator in
  :mod:`repro.hardware.banks`.

Each stage produces byte counts (a :class:`~repro.hardware.memory.TrafficRecord`)
plus stage-specific overhead cycles; the perf model feeds them to the
roofline combinator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import KernelConfig
from .tiles import TileCounts, condensed_k
from ..common import BoundedCache, GemmProblem
from ...formats.vnm import SELECTED_COLUMNS
from ...hardware.banks import conflict_degree_for_layout
from ...hardware.memory import TrafficRecord, TransactionModel, dtype_bytes
from ...hardware.occupancy import blocks_per_sm
from ...hardware.spec import GPUSpec


@dataclass(frozen=True)
class StageBreakdown:
    """Traffic and overhead contributions of the three kernel stages."""

    traffic: TrafficRecord
    #: Logical FLOPs issued to the sparse tensor cores.
    issued_flops: float
    #: Dependent-load stall cycles not hidden by the prefetch pipeline.
    columnloc_stall_cycles: float
    #: Bank-conflict serialisation factor of the stage-3 SMEM stores.
    output_conflict_factor: float
    #: Transaction model of the stage-3 SMEM stores (32- or 128-bit).
    output_tx: TransactionModel
    #: Bytes of stage-3 SMEM staging traffic (reported separately so the
    #: ablation benchmarks can show where the 32-bit penalty comes from).
    stage3_smem_bytes: float


#: Stage-3 conflict factors per (layout, access bits, BSc): a pure function
#: of the tile config, which every tuner sweep would otherwise re-simulate.
_CONFLICTS = BoundedCache()


def _conflict_degree(layout: str, access_bits: int, bsc: int) -> float:
    key = (layout, access_bits, bsc)
    degree = _CONFLICTS.get(key)
    if degree is None:
        degree = conflict_degree_for_layout(layout, access_bits=access_bits, bsc=bsc)
        _CONFLICTS.put(key, degree)
    return degree


def _b_refetch_factor(row_blocks: int) -> float:
    """How many times the selected B rows stream from DRAM, on average.

    Different V-row blocks select different (but heavily overlapping, for
    real weight distributions) column subsets; the L2 serves part of the
    re-reads.  The factor grows mildly with the number of row blocks and is
    capped — the empirical middle ground that reproduces the paper's
    near-theoretical-cap speedups (Figure 9) while still penalising small
    V values (Figure 10).
    """
    if row_blocks <= 1:
        return 1.0
    return min(8.0, 1.0 + 0.15 * (row_blocks - 1))


def compute_stage_breakdown(
    problem: GemmProblem,
    config: KernelConfig,
    counts: TileCounts,
    gpu: GPUSpec,
) -> StageBreakdown:
    """Assemble the traffic/overhead contributions of all three stages."""
    if problem.n is None or problem.m is None:
        raise ValueError("Spatha requires an N:M pattern on the problem description")
    r, k, c = problem.r, problem.k, problem.c
    n, m = problem.n, problem.m
    elem = dtype_bytes(problem.precision)
    kc = condensed_k(k, m)
    groups = kc // SELECTED_COLUMNS  # padded group count when K % M != 0
    row_blocks = counts.grid_rows

    traffic = TrafficRecord()

    # ------------------------------------------------------------------
    # Stage 1 — GMEM -> SMEM -> RF
    # ------------------------------------------------------------------
    # A: values + 2-bit m-indices, streamed once per column of blocks that
    # shares the row stripe (L2 keeps the compressed operand resident for
    # the common sizes, so one pass is charged).
    a_values_bytes = r * groups * n * elem
    a_metadata_bytes = r * groups * n * 0.25
    traffic.gmem_read_bytes += a_values_bytes + a_metadata_bytes

    # column-loc: one int32 per selected column per row block, prefetched.
    columnloc_bytes = row_blocks * groups * SELECTED_COLUMNS * 4.0 if config.use_column_loc else 0.0
    traffic.gmem_read_bytes += columnloc_bytes

    # B: each row block streams its selected rows; partial L2 reuse across
    # row blocks is captured by the refetch factor.
    b_selected_bytes = kc * c * elem
    traffic.gmem_read_bytes += b_selected_bytes * _b_refetch_factor(row_blocks)

    # SMEM staging of stage 1: A tiles are written once per (row block x
    # column block), B tiles once per block; both are read back once into
    # the register file (the storage order of Figure 7 avoids ldmatrix
    # replays, so one read per element is the right charge).
    a_smem = a_values_bytes * counts.grid_cols
    b_smem = b_selected_bytes * row_blocks
    traffic.smem_write_bytes += a_smem + b_smem
    traffic.smem_read_bytes += a_smem + b_smem

    # Dependent-load latency of the column-loc indirection: each k-step must
    # know its selected columns before the B tile fetch can issue.  The
    # two-level prefetch hides most of it; deeper pipelines hide more.
    if config.use_column_loc:
        hidden = 1.0 - 0.5 ** config.batch_size  # 2 stages hide 75%, 3 stages 87.5%, ...
        resources = config.block_resources()
        occ = blocks_per_sm(resources, gpu)
        concurrent = max(1, occ.blocks_per_sm * gpu.num_sms)
        sequential_rounds = max(1.0, counts.total_blocks / concurrent)
        # Per-k-step dependent-load exposure (mostly hidden by the two-level
        # prefetch) plus one unhidden fetch chain at the start of every
        # thread block (prefetch cannot run ahead of the first tile), which
        # is why the overhead is relatively more visible at very high
        # sparsity where each block does little work (Figure 9, 2:100).
        per_step_stall = gpu.gmem.latency_cycles * (1.0 - hidden) * 0.5
        per_block_stall = gpu.gmem.latency_cycles * 1.5
        columnloc_stall = (counts.k_steps * per_step_stall + per_block_stall) * sequential_rounds
    else:
        columnloc_stall = 0.0

    # ------------------------------------------------------------------
    # Stage 2 — mma.sp issue
    # ------------------------------------------------------------------
    issued_flops = 2.0 * r * kc * c  # logical FLOPs retired by the sparse pipe

    # ------------------------------------------------------------------
    # Stage 3 — output staging and write-back
    # ------------------------------------------------------------------
    stage3_bytes = r * c * 4.0 * 2.0  # fp32 partials written then read back
    traffic.smem_write_bytes += stage3_bytes / 2.0
    traffic.smem_read_bytes += stage3_bytes / 2.0
    traffic.gmem_write_bytes += r * c * elem

    if config.wide_output_stores:
        output_tx = TransactionModel(access_bits=128)
        conflict = _conflict_degree("spatha_padded", 128, config.bs_c)
    else:
        output_tx = TransactionModel(access_bits=32)
        conflict = _conflict_degree("naive_row_major", 32, config.bs_c)
        conflict = max(conflict, 2.0)  # un-padded narrow stores never go conflict-free

    return StageBreakdown(
        traffic=traffic,
        issued_flops=issued_flops,
        columnloc_stall_cycles=columnloc_stall,
        output_conflict_factor=conflict,
        output_tx=output_tx,
        stage3_smem_bytes=stage3_bytes,
    )

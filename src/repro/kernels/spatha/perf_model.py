"""End-to-end performance model of the Spatha SpMM kernel.

Combines the stage-level traffic/overhead breakdown
(:mod:`repro.kernels.spatha.stages`) with the tiling arithmetic
(:mod:`repro.kernels.spatha.tiles`) and the roofline combinator
(:mod:`repro.hardware.roofline`) into one :class:`~repro.kernels.common.KernelResult`.

Two structural choices distinguish the model from the generic roofline used
by the baselines:

* the stage-3 output epilogue is charged **serially** (it runs after a
  block's main loop and cannot overlap its own compute), which is what
  makes the 32-bit-store ablation of Figure 10 visible; and
* the column-loc dependent-load stalls are added as explicit overhead,
  which is what the Figure 9 ablation toggles.

:func:`estimate_time` prices one configuration and is the reference;
:func:`estimate_times` prices every row of a :class:`CandidateTable` in
one NumPy pass, line for line in the same operation order, so each entry
is bit for bit the scalar time of that row.  The tuner ranks with the
array pass and prices only its winner with :func:`estimate_time`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .config import KernelConfig, UnsupportedTilingError, default_config
from .stages import _b_refetch_factor, _conflict_degree, compute_stage_breakdown
from .tiles import compute_tile_counts, condensed_k
from ..common import GemmProblem, KernelResult
from ...formats.vnm import SELECTED_COLUMNS
from ...hardware.memory import TransactionModel, dtype_bytes, smem_cycles, smem_cycles_array
from ...hardware.occupancy import active_sms, blocks_per_sm, latency_hiding_factor
from ...hardware.roofline import roofline_cost, roofline_cycles
from ...hardware.spec import GPUSpec, rtx3090


#: Sustained fraction of the Sparse Tensor Core peak achieved by Spatha's
#: inner loop.  Matches the dense baseline's efficiency so the 2:4 speedup
#: converges to the hardware's 2x at large arithmetic intensity, as in the
#: paper's Figure 12.
SPATHA_COMPUTE_EFFICIENCY = 0.45


def estimate_time(
    problem: GemmProblem,
    config: Optional[KernelConfig] = None,
    gpu: Optional[GPUSpec] = None,
) -> KernelResult:
    """Modelled execution time of the Spatha SpMM on ``problem``.

    The problem must carry its V:N:M configuration (``v``, ``n``, ``m``).
    """
    gpu = gpu or rtx3090()
    if problem.v is None:
        raise ValueError("Spatha requires the problem to specify the vector size V")
    if problem.n is None or problem.m is None:
        raise ValueError("Spatha requires the problem to specify the N:M pattern")
    config = config or default_config(problem.v)
    if config.bs_r != problem.v:
        config = config.with_options(bs_r=problem.v, ws_r=min(config.ws_r, problem.v))

    counts = compute_tile_counts(problem.r, problem.k, problem.c, problem.m, config)
    stages = compute_stage_breakdown(problem, config, counts, gpu)
    resources = config.block_resources()

    cost = roofline_cost(
        gpu=gpu,
        flops=stages.issued_flops,
        traffic=stages.traffic,
        resources=resources,
        total_blocks=counts.total_blocks,
        use_tensor_cores=True,
        sparse_tensor_cores=True,
        compute_efficiency=SPATHA_COMPUTE_EFFICIENCY,
        gmem_tx=TransactionModel(access_bits=128),
        smem_tx=TransactionModel(access_bits=128),
        smem_conflict_factor=1.0,
        pipeline_stages=config.batch_size,
        extra_overhead_cycles=stages.columnloc_stall_cycles,
    )

    # Stage-3 epilogue: the conflict (and, for 32-bit stores, the narrower
    # transaction) penalty applies to the staging traffic only, and the
    # epilogue runs serially after the main loop.
    n_active = max(1, active_sms(counts.total_blocks, resources, gpu))
    base_epilogue = smem_cycles(
        stages.stage3_smem_bytes,
        gpu,
        active_sms=n_active,
        tx=TransactionModel(access_bits=128),
        conflict_factor=1.0,
    )
    actual_epilogue = smem_cycles(
        stages.stage3_smem_bytes,
        gpu,
        active_sms=n_active,
        tx=stages.output_tx,
        conflict_factor=stages.output_conflict_factor,
    )
    # The base (conflict-free, wide) staging cost is already inside the
    # overlapped smem term of the roofline; only charge the serial portion.
    cost.overhead_cycles += actual_epilogue
    cost.smem_cycles = max(0.0, cost.smem_cycles - base_epilogue)
    cost.add_component("stage3_epilogue", actual_epilogue)
    cost.add_component("columnloc_stall", stages.columnloc_stall_cycles)

    details = {
        "config": config.describe(),
        "tile_counts": counts,
        "issued_flops": stages.issued_flops,
        "columnloc_stall_cycles": stages.columnloc_stall_cycles,
        "output_conflict_factor": stages.output_conflict_factor,
        "b_refetch_gmem_bytes": stages.traffic.gmem_read_bytes,
    }
    return KernelResult(kernel="spatha_spmm", problem=problem, cost=cost, details=details)


_WIDE = TransactionModel(access_bits=128)


@dataclass(frozen=True)
class CandidateTable:
    """One V's launchable template instantiations on one GPU, as columns.

    Row ``i`` describes ``configs[i]``; the float columns are the
    per-configuration constants :func:`estimate_time` would otherwise
    recompute on every call.  Build it with :func:`candidate_table`.
    """

    configs: Tuple[KernelConfig, ...]
    #: Thread-block rows (``BSr = V``), shared by every row.
    bs_r: int
    bs_k: np.ndarray
    bs_c: np.ndarray
    #: Resident blocks per SM (every row >= 1).
    blocks_per_sm: np.ndarray
    #: ``max(0.05, 1 - latency_hiding_factor)``: the roofline's exposure.
    exposed: np.ndarray
    #: ``1 - 0.5 ** batch_size``: the column-loc latency the prefetch hides.
    hidden: np.ndarray
    #: Stage-3 bank-conflict factor of the padded 128-bit stores.
    conflict: np.ndarray


def candidate_table(configs: Sequence[KernelConfig], gpu: GPUSpec) -> CandidateTable:
    """The table of ``configs`` (all of one ``bs_r``) on ``gpu``.

    A configuration whose thread block fits no SM is left out: the scalar
    model raises on it, and the tuner skips it.  Only the tuned template
    (128-bit stores, column-loc on) is tabled; the ablation switches are
    priced by :func:`estimate_time` alone.
    """
    if len({config.bs_r for config in configs}) != 1:
        raise ValueError("a candidate table holds configurations of one bs_r")
    rows = []
    for config in configs:
        if not (config.wide_output_stores and config.use_column_loc):
            raise ValueError("a candidate table holds 128-bit-store, column-loc configurations only")
        resources = config.block_resources()
        occ = blocks_per_sm(resources, gpu).blocks_per_sm
        if occ == 0:
            continue
        hiding = latency_hiding_factor(resources, gpu, pipeline_stages=config.batch_size)
        rows.append((
            config,
            config.bs_k,
            config.bs_c,
            occ,
            max(0.05, 1.0 - hiding),
            1.0 - 0.5 ** config.batch_size,
            _conflict_degree("spatha_padded", 128, config.bs_c),
        ))
    kept, bs_k, bs_c, occ, exposed, hidden, conflict = zip(*rows) if rows else ((),) * 7
    return CandidateTable(
        configs=tuple(kept),
        bs_r=configs[0].bs_r,
        bs_k=np.array(bs_k, dtype=np.int64),
        bs_c=np.array(bs_c, dtype=np.int64),
        blocks_per_sm=np.array(occ, dtype=np.int64),
        exposed=np.array(exposed, dtype=np.float64),
        hidden=np.array(hidden, dtype=np.float64),
        conflict=np.array(conflict, dtype=np.float64),
    )


def estimate_times(problem: GemmProblem, table: CandidateTable, gpu: GPUSpec) -> np.ndarray:
    """Modelled time (us) of every row of ``table`` on ``problem``.

    Entry ``i`` is bit for bit ``estimate_time(problem, table.configs[i],
    gpu).time_us``: each line below is the scalar model's line (tiles,
    stages, roofline, epilogue) over the table's columns.
    """
    if problem.n is None or problem.m is None:
        raise ValueError("Spatha requires the problem to specify the N:M pattern")
    if problem.v != table.bs_r:
        raise ValueError(f"the table is for V={table.bs_r}, the problem has V={problem.v}")
    r, k, c, n, m = problem.r, problem.k, problem.c, problem.n, problem.m
    if r % table.bs_r:
        raise UnsupportedTilingError(
            f"R ({r}) must be divisible by BSr=V ({table.bs_r}); pad the operand first"
        )
    elem = dtype_bytes(problem.precision)

    # tiles.compute_tile_counts
    kc = condensed_k(k, m)
    row_blocks = r // table.bs_r
    grid_cols = -(-c // table.bs_c)
    k_steps = -(-kc // table.bs_k)
    total_blocks = row_blocks * grid_cols

    # stages.compute_stage_breakdown: stage 1
    groups = kc // SELECTED_COLUMNS
    a_values_bytes = r * groups * n * elem
    a_metadata_bytes = r * groups * n * 0.25
    columnloc_bytes = row_blocks * groups * SELECTED_COLUMNS * 4.0
    b_selected_bytes = kc * c * elem
    gmem_read = a_values_bytes + a_metadata_bytes + columnloc_bytes
    gmem_read += b_selected_bytes * _b_refetch_factor(row_blocks)
    a_smem = a_values_bytes * grid_cols
    b_smem = b_selected_bytes * row_blocks
    concurrent = table.blocks_per_sm * gpu.num_sms
    sequential_rounds = np.maximum(1.0, total_blocks / concurrent)
    per_step_stall = gpu.gmem.latency_cycles * (1.0 - table.hidden) * 0.5
    per_block_stall = gpu.gmem.latency_cycles * 1.5
    columnloc_stall = (k_steps * per_step_stall + per_block_stall) * sequential_rounds
    # stages 2 and 3
    issued_flops = 2.0 * r * kc * c
    stage3_bytes = r * c * 4.0 * 2.0
    smem_each_way = (a_smem + b_smem) + stage3_bytes / 2.0
    gmem_total = gmem_read + r * c * elem

    cycles = roofline_cycles(
        gpu=gpu,
        flops=issued_flops,
        gmem_bytes=gmem_total,
        smem_bytes=smem_each_way + smem_each_way,
        total_blocks=total_blocks,
        blocks_per_sm=table.blocks_per_sm,
        exposed=table.exposed,
        sparse_tensor_cores=True,
        compute_efficiency=SPATHA_COMPUTE_EFFICIENCY,
        gmem_tx=_WIDE,
        smem_tx=_WIDE,
        extra_overhead_cycles=columnloc_stall,
    )
    base_epilogue = smem_cycles_array(stage3_bytes, gpu, cycles.active_sms, _WIDE)
    actual_epilogue = smem_cycles_array(stage3_bytes, gpu, cycles.active_sms, _WIDE, table.conflict)
    return cycles._replace(
        overhead=cycles.overhead + actual_epilogue,
        smem=np.maximum(0.0, cycles.smem - base_epilogue),
    ).time_us()


def speedup_vs_dense(
    problem: GemmProblem,
    config: Optional[KernelConfig] = None,
    gpu: Optional[GPUSpec] = None,
) -> float:
    """Convenience: Spatha speedup over the cuBLAS dense baseline."""
    from .. import cublas

    gpu = gpu or rtx3090()
    sparse = estimate_time(problem, config=config, gpu=gpu)
    dense = cublas.estimate_time(problem, gpu=gpu)
    return sparse.speedup_over(dense)


def theoretical_speedup_cap(n: int, m: int) -> float:
    """Ideal speedup of an N:M pattern over dense on SPTC hardware.

    The sparse pipe retires the condensed operand (four columns per M
    group) at twice the dense rate, so the cap is ``M / (2 * 4 / 2) = M/4 *
    2 = M/2`` for N=2 — the 5x/10x/20x/50x figures the paper quotes for
    2:10/2:20/2:40/2:100.  For general N the cap is ``m / (2 * n) * 2``.
    """
    if n <= 0 or m <= 0 or n > m:
        raise ValueError(f"invalid N:M pattern {n}:{m}")
    return m / float(n)

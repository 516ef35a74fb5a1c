"""cuSPARSE Blocked-ELL SpMM baseline.

NVIDIA's cuSPARSE library (the paper's related work, distinct from
cuSparseLt) provides SpMM on general compressed formats — COO, CSR and
Blocked-ELL.  The Blocked-ELL path is the relevant comparison point for
block-wise pruning: math runs on dense Tensor Cores over the stored blocks
(padding blocks included), so its efficiency depends directly on the block
size and on how much ELL padding the sparsity structure forces.

The model is included so block-wise pruning (Figure 2, scheme 1) has an
executable counterpart, letting the examples contrast "prune 2-D blocks and
run cuSPARSE" against "prune V:N:M and run Spatha" in both accuracy
(energy) and speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .common import GemmProblem, KernelResult, reference_matmul_fp16
from ..formats.base import quantize_fp16, quantize_fp16_checked
from ..formats.blocked_ell import BlockedEllMatrix
from ..hardware.memory import TrafficRecord, TransactionModel, matrix_bytes
from ..hardware.occupancy import BlockResources
from ..hardware.roofline import roofline_cost
from ..hardware.spec import GPUSpec, rtx3090


@dataclass(frozen=True)
class CusparseBlockedEllConfig:
    """Modelled kernel parameters of cuSPARSE's Blocked-ELL SpMM."""

    #: Edge length of the square blocks (cuSPARSE supports 8..32 for fp16).
    block_size: int = 16
    tile_c: int = 64
    threads: int = 128
    registers_per_thread: int = 120
    smem_bytes: int = 40 * 1024
    #: Sustained fraction of the dense tensor-core peak on the stored blocks.
    compute_efficiency: float = 0.30
    pipeline_stages: int = 2
    #: Host-side descriptor/algorithm-selection overhead per call, us.
    runtime_overhead_us: float = 8.0

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if not 0.0 < self.compute_efficiency <= 1.0:
            raise ValueError("compute_efficiency must be in (0, 1]")
        if self.runtime_overhead_us < 0:
            raise ValueError("runtime_overhead_us must be non-negative")


#: Calibrated constants of the formulation chooser: Python dispatch
#: overhead per BLAS call, sustained block-GEMM throughput, and gather
#: bandwidth of the stacked-tile copies.  Only the ratios matter.
_DISPATCH_OVERHEAD_S = 3.0e-6
_BLOCK_GEMM_FLOPS = 3.0e10
_GATHER_BYTES_PER_SECOND = 5.0e9


def spmm(a_sparse: BlockedEllMatrix, b: np.ndarray) -> np.ndarray:
    """Functional Blocked-ELL SpMM (fp16 operands, fp32 accumulation).

    Two formulations, chosen by a small cost model:

    * **slot-batched** — one stacked ``matmul`` per ELL slot covering every
      block row at once (``nbr`` times fewer interpreter iterations than
      the seed loop).  Wins whenever the per-block GEMM is small enough
      that Python dispatch dominates, at the price of gathering the B tiles
      of a slot into a contiguous stack.  Bit-identical to the retained
      loop (same per-block GEMMs, same slot accumulation order;
      padding-slot products are discarded).
    * **block-loop** — the per-block-row loop (:func:`spmm_loop_reference`),
      which reads B tiles as views with zero gather traffic and is already
      BLAS-bound for large blocks.

    The crossover mirrors the planning discipline of the Spatha engine:
    vectorize the interpreter-bound regime, keep BLAS saturated in the
    other.
    """
    if not isinstance(a_sparse, BlockedEllMatrix):
        raise TypeError("cusparse.spmm expects a BlockedEllMatrix operand")
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != a_sparse.ncols:
        raise ValueError(f"B must have shape ({a_sparse.ncols}, C), got {b.shape}")
    nbr, ell_cols = a_sparse.block_cols.shape
    bsize = a_sparse.b
    c = b.shape[1]
    gemm_s = 2.0 * bsize * bsize * c / _BLOCK_GEMM_FLOPS
    loop_cost = nbr * ell_cols * (_DISPATCH_OVERHEAD_S + gemm_s)
    slot_cost = ell_cols * (
        nbr * bsize * c * 4.0 / _GATHER_BYTES_PER_SECOND + nbr * gemm_s
    )
    if slot_cost <= loop_cost:
        return _spmm_slot_batched(a_sparse, b)
    return spmm_loop_reference(a_sparse, b)


def _spmm_slot_batched(a_sparse: BlockedEllMatrix, b: np.ndarray) -> np.ndarray:
    """Stacked-matmul formulation: vectorized over block rows, one pass per
    ELL slot."""
    b16, finite = quantize_fp16_checked(b)
    blocks16 = quantize_fp16(a_sparse.blocks)
    bsize = a_sparse.b
    c = b.shape[1]
    nbr, ell_cols = a_sparse.block_cols.shape
    valid = a_sparse.block_cols >= 0
    # Padding slots clip their column to 0 so the gather stays in range.
    # Their blocks are zeroed, which makes their products exact zeros for
    # finite B; only when B carries non-finite values (0 * inf = NaN) do
    # the products need to be discarded explicitly, as the loop reference
    # skips these slots entirely.
    blocks16 = np.where(valid[:, :, None, None], blocks16, 0.0)
    cols = np.maximum(a_sparse.block_cols, 0)
    b_tiles = b16.reshape(a_sparse.ncols // bsize, bsize, c)
    out = np.zeros((nbr, bsize, c), dtype=np.float32)
    for slot in range(ell_cols):
        contrib = np.matmul(blocks16[:, slot], b_tiles[cols[:, slot]])
        if not finite:
            contrib = np.where(valid[:, slot, None, None], contrib, 0.0)
        out += contrib
    return out.reshape(a_sparse.nrows, c)


def spmm_loop_reference(a_sparse: BlockedEllMatrix, b: np.ndarray) -> np.ndarray:
    """Per-block-row/slot loop Blocked-ELL SpMM (equivalence reference)."""
    if not isinstance(a_sparse, BlockedEllMatrix):
        raise TypeError("cusparse.spmm expects a BlockedEllMatrix operand")
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != a_sparse.ncols:
        raise ValueError(f"B must have shape ({a_sparse.ncols}, C), got {b.shape}")
    b16 = quantize_fp16(b)
    blocks16 = quantize_fp16(a_sparse.blocks)
    bsize = a_sparse.b
    out = np.zeros((a_sparse.nrows, b.shape[1]), dtype=np.float32)
    nbr, ell_cols = a_sparse.block_cols.shape
    for i in range(nbr):
        acc = np.zeros((bsize, b.shape[1]), dtype=np.float32)
        for slot in range(ell_cols):
            col = a_sparse.block_cols[i, slot]
            if col < 0:
                continue
            acc += blocks16[i, slot] @ b16[col * bsize : (col + 1) * bsize]
        out[i * bsize : (i + 1) * bsize] = acc
    return out


def estimate_time(
    problem: GemmProblem,
    gpu: Optional[GPUSpec] = None,
    config: Optional[CusparseBlockedEllConfig] = None,
    padding_fraction: float = 0.1,
) -> KernelResult:
    """Modelled execution time of the Blocked-ELL SpMM.

    Parameters
    ----------
    padding_fraction:
        Fraction of stored ELL slots that are padding (wasted math and
        traffic); block-wise pruning with a global threshold typically
        leaves 5-30% padding because block rows keep different numbers of
        blocks.
    """
    gpu = gpu or rtx3090()
    config = config or CusparseBlockedEllConfig()
    if not 0.0 <= padding_fraction < 1.0:
        raise ValueError("padding_fraction must be in [0, 1)")

    r, k, c = problem.r, problem.k, problem.c
    density = problem.density
    # Stored elements: the kept blocks plus the ELL padding slots.
    stored = r * k * density / (1.0 - padding_fraction)
    flops = 2.0 * stored * c

    num_blocks_stored = stored / (config.block_size**2)
    b_gather_bytes = num_blocks_stored * config.block_size * c * 2.0 * 0.5
    traffic = TrafficRecord(
        gmem_read_bytes=stored * 2.0 + num_blocks_stored * 4.0 + b_gather_bytes,
        gmem_write_bytes=matrix_bytes(r, c, problem.precision),
        smem_write_bytes=stored * 2.0 * max(1.0, c / config.tile_c) * 0.25,
        smem_read_bytes=stored * 2.0 * max(1.0, c / config.tile_c) * 0.25,
    )

    rows_per_block = max(config.block_size * 4, 64)
    total_blocks = max(1, -(-r // rows_per_block) * -(-c // config.tile_c))
    resources = BlockResources(
        threads=config.threads,
        registers_per_thread=config.registers_per_thread,
        smem_bytes=config.smem_bytes,
    )
    overhead_cycles = config.runtime_overhead_us * 1e-6 * gpu.sm_clock_hz
    cost = roofline_cost(
        gpu=gpu,
        flops=flops,
        traffic=traffic,
        resources=resources,
        total_blocks=total_blocks,
        use_tensor_cores=True,
        sparse_tensor_cores=False,
        compute_efficiency=config.compute_efficiency,
        gmem_tx=TransactionModel(access_bits=128),
        smem_tx=TransactionModel(access_bits=64),
        pipeline_stages=config.pipeline_stages,
        extra_overhead_cycles=overhead_cycles,
    )
    return KernelResult(
        kernel="cusparse_blocked_ell_spmm",
        problem=problem,
        cost=cost,
        details={"block_size": config.block_size, "padding_fraction": padding_fraction},
    )


def run(
    a_sparse: BlockedEllMatrix,
    b: np.ndarray,
    gpu: Optional[GPUSpec] = None,
    config: Optional[CusparseBlockedEllConfig] = None,
    name: str = "",
) -> KernelResult:
    """Functional + performance result for concrete Blocked-ELL operands."""
    b = np.asarray(b)
    r, k = a_sparse.shape
    sparsity = 1.0 - np.count_nonzero(a_sparse.to_dense()) / float(r * k)
    config = config or CusparseBlockedEllConfig(block_size=a_sparse.b)
    problem = GemmProblem(r=r, k=k, c=b.shape[1], sparsity=sparsity, name=name)
    result = estimate_time(
        problem, gpu=gpu, config=config, padding_fraction=a_sparse.padding_fraction()
    )
    result.output = spmm(a_sparse, b)
    return result

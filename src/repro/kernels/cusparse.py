"""cuSPARSE Blocked-ELL SpMM baseline.

NVIDIA's cuSPARSE library (the paper's related work, distinct from
cuSparseLt) provides SpMM on general compressed formats — COO, CSR and
Blocked-ELL.  The Blocked-ELL path is the relevant comparison point for
block-wise pruning: math runs on dense Tensor Cores over the stored blocks
(padding blocks included), so its efficiency depends directly on the block
size and on how much ELL padding the sparsity structure forces.

The functional kernel gives block-wise pruning (Figure 2, scheme 1) an
executable counterpart: the benchmark's layer table times it beside Spatha
on the same pruned weights, on the host clock.
"""

from __future__ import annotations

import numpy as np

from ..formats.base import quantize_fp16, quantize_fp16_checked
from ..formats.blocked_ell import BlockedEllMatrix

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

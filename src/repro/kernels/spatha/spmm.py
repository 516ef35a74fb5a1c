"""Functional V:N:M SpMM (the numerics of the Spatha kernel).

Three execution paths are provided:

* :func:`spmm` — the fast path: a planned, batched schedule
  (:class:`~repro.kernels.spatha.plan.SpmmPlan`) that prepares the
  fp16-rounded operand and gather indices once per operand and then
  executes every call without Python-level loops.  The RHS may be 2-D
  ``(K, C)`` or a batch ``(B, K, C)``.
* :func:`spmm_loop_reference` — the retained per-row-block loop of the seed
  implementation: for every V-row block the four selected columns of each
  M-group are gathered from B (exactly the stage-1 gather the kernel
  performs using ``column_loc``) and a dense matmul over the condensed
  operand produces the block's output rows.  The plan's ``gather`` strategy
  is bit-identical to this path; tests assert the equivalence.
* :func:`spmm_reference` — the semantic reference: decompress to dense and
  multiply.  Tests assert all paths agree to fp16 accumulation tolerance.

All paths use fp16 operand rounding with fp32 accumulation, matching
tensor-core numerics.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .config import KernelConfig
from .plan import SpmmPlan
from ..common import reference_matmul_fp16
from ...formats.base import quantize_fp16
from ...formats.vnm import VNMSparseMatrix


def spmm_reference(a: VNMSparseMatrix, b: np.ndarray) -> np.ndarray:
    """Reference result: decompress the V:N:M operand and multiply."""
    if not isinstance(a, VNMSparseMatrix):
        raise TypeError("spmm_reference expects a VNMSparseMatrix operand")
    return reference_matmul_fp16(a.to_dense(), b)


def spmm(
    a: VNMSparseMatrix,
    b: np.ndarray,
    bias: Optional[np.ndarray] = None,
    config: Optional[KernelConfig] = None,
) -> np.ndarray:
    """Sparse (V:N:M) x dense matrix multiplication: ``A @ B (+ bias)``.

    Parameters
    ----------
    a:
        The sparse LHS in V:N:M layout, logical shape ``(R, K)``.
    b:
        Dense RHS of shape ``(K, C)``, or a batch of RHS operands of shape
        ``(B, K, C)`` (every slab multiplied by the same sparse operand in
        one call — the whole-batch path of the transformer integration).
    bias:
        Optional length-``R`` bias added to every output column (the fused
        epilogue Spatha exposes through its PyTorch/STen integration).
    config:
        Unused by the numerics (the result is independent of the tiling);
        accepted so call sites can pass one object around for both the
        functional and the performance paths.

    Returns
    -------
    np.ndarray
        ``(R, C)`` (or ``(B, R, C)``) float32 output with fp16-operand /
        fp32-accumulate numerics.

    Notes
    -----
    Execution goes through the memoized :class:`SpmmPlan` of ``a``:
    preparation (fp16-rounded operand, gather indices) is paid
    once per operand, and every call runs as batched array operations with
    no Python loop over row blocks.
    """
    if not isinstance(a, VNMSparseMatrix):
        raise TypeError("spatha.spmm expects a VNMSparseMatrix operand")
    return SpmmPlan.for_matrix(a).execute(b, bias=bias)


def spmm_loop_reference(
    a: VNMSparseMatrix,
    b: np.ndarray,
    bias: Optional[np.ndarray] = None,
    config: Optional[KernelConfig] = None,
) -> np.ndarray:
    """The seed per-row-block loop, retained as the equivalence reference.

    Semantically identical to :func:`spmm` on a 2-D RHS; the plan's
    ``gather`` strategy reproduces it bit-exactly.  Kept (and benchmarked in
    ``benchmarks/run_bench.py``) so the vectorized engine always has a
    ground truth and a speedup baseline.
    """
    if not isinstance(a, VNMSparseMatrix):
        raise TypeError("spatha.spmm expects a VNMSparseMatrix operand")
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != a.k:
        raise ValueError(f"B must have shape ({a.k}, C), got {b.shape}")

    b16 = quantize_fp16(b)
    cond = quantize_fp16(a.to_condensed())  # (R, K/M*4)
    sel_cols = a.selected_column_indices()  # (R/V, K/M*4)

    r = a.shape[0]
    c = b.shape[1]
    out = np.empty((r, c), dtype=np.float32)
    v = a.v
    for row_block in range(a.row_blocks):
        rows = slice(row_block * v, (row_block + 1) * v)
        b_sel = b16[sel_cols[row_block]]  # (K/M*4, C) — the column-loc gather
        out[rows] = cond[rows] @ b_sel

    if bias is not None:
        bias = np.asarray(bias, dtype=np.float32)
        if bias.shape not in {(r,), (r, 1)}:
            raise ValueError(f"bias must have shape ({r},), got {bias.shape}")
        out += bias.reshape(r, 1)
    return out


def spmm_dense_baseline(a_dense: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense reference on an already-pruned dense operand (for tests)."""
    return reference_matmul_fp16(a_dense, b)

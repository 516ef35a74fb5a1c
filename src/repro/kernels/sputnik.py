"""Sputnik baseline: unstructured CSR SpMM for deep learning (SC'20).

Sputnik (Gale et al.) is the reference library for *unstructured* sparse
matrices in DL.  It operates on CSR, uses a one-dimensional tiling scheme
over output rows, and — crucially for the comparison in Figure 13 — does
not use Tensor Cores: its math runs on the regular CUDA cores.  On large
transformer-sized matrices its performance is bounded by the irregular,
per-non-zero gathers of the dense operand and by load imbalance between
rows, which is why the paper observes it only overtakes cuBLAS above ~90%
sparsity and saturates around 3x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .common import GemmProblem, KernelResult
from ..formats.base import quantize_fp16
from ..formats.csr import CSRMatrix
from ..hardware.memory import TrafficRecord, TransactionModel, matrix_bytes
from ..hardware.occupancy import BlockResources
from ..hardware.roofline import roofline_cost
from ..hardware.spec import GPUSpec, rtx3090


@dataclass(frozen=True)
class SputnikConfig:
    """Modelled kernel parameters of Sputnik's SpMM."""

    #: Rows of the sparse matrix handled per thread block (1-D tiling).
    rows_per_block: int = 4
    #: Output columns handled per thread block.
    tile_c: int = 64
    threads: int = 128
    registers_per_thread: int = 96
    smem_bytes: int = 24 * 1024
    #: Sustained fraction of CUDA-core fp16 throughput; low because the
    #: scalar inner product over irregular columns cannot keep the FMA
    #: pipes saturated.
    compute_efficiency: float = 0.25
    #: Fraction of B-row gathers served by L1/L2 instead of DRAM.  DL weight
    #: matrices have many non-zeros per column, so most of a row's re-reads
    #: hit in cache; the residual misses are what keep Sputnik
    #: bandwidth-bound on LLM-sized operands.
    gather_reuse: float = 0.85
    pipeline_stages: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.compute_efficiency <= 1.0:
            raise ValueError("compute_efficiency must be in (0, 1]")
        if not 0.0 <= self.gather_reuse < 1.0:
            raise ValueError("gather_reuse must be in [0, 1)")


def spmm(a_sparse: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Functional CSR SpMM (fp16 operands, fp32 accumulation).

    Vectorized: the whole product runs as one compiled CSR gather/scatter
    kernel (SciPy's ``csr_matmat``) — no Python loop over rows.  When SciPy
    is unavailable the pure-NumPy segmented-reduction path is used instead.
    :func:`spmm_loop_reference` retains the per-row loop; tests assert both
    agree to fp16 accumulation tolerance (the summation order differs, so
    agreement is tolerance-level, not bit-exact).
    """
    if not isinstance(a_sparse, CSRMatrix):
        raise TypeError("sputnik.spmm expects a CSRMatrix operand")
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != a_sparse.ncols:
        raise ValueError(f"B must have shape ({a_sparse.ncols}, C), got {b.shape}")
    b16 = quantize_fp16(b)
    rows = a_sparse.shape[0]
    if a_sparse.data.size == 0:
        return np.zeros((rows, b.shape[1]), dtype=np.float32)
    data16 = quantize_fp16(a_sparse.data)
    try:
        from scipy.sparse import csr_matrix
    except ImportError:  # pragma: no cover - scipy ships with the toolchain
        return _spmm_segmented(a_sparse, data16, b16)
    mat = csr_matrix((data16, a_sparse.indices, a_sparse.indptr), shape=a_sparse.shape)
    return np.asarray(mat @ b16, dtype=np.float32)


def _spmm_segmented(a_sparse: CSRMatrix, data16: np.ndarray, b16: np.ndarray) -> np.ndarray:
    """Pure-NumPy fallback: batched gather-multiply + segmented reduction."""
    rows = a_sparse.shape[0]
    out = np.zeros((rows, b16.shape[1]), dtype=np.float32)
    contrib = data16[:, None] * b16[a_sparse.indices]  # (nnz, C)
    starts = a_sparse.indptr[:-1]
    nonempty = a_sparse.indptr[1:] > starts
    # reduceat over the starts of the non-empty rows: consecutive non-empty
    # starts delimit exactly one row's non-zeros (empty rows contribute no
    # elements in between).
    out[nonempty] = np.add.reduceat(contrib, starts[nonempty].astype(np.intp), axis=0)
    return out


def spmm_loop_reference(a_sparse: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Per-row loop CSR SpMM, retained as the equivalence reference."""
    if not isinstance(a_sparse, CSRMatrix):
        raise TypeError("sputnik.spmm expects a CSRMatrix operand")
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != a_sparse.ncols:
        raise ValueError(f"B must have shape ({a_sparse.ncols}, C), got {b.shape}")
    b16 = quantize_fp16(b)
    rows = a_sparse.shape[0]
    out = np.zeros((rows, b.shape[1]), dtype=np.float32)
    data16 = quantize_fp16(a_sparse.data)
    for r in range(rows):
        lo, hi = a_sparse.indptr[r], a_sparse.indptr[r + 1]
        if hi > lo:
            out[r] = data16[lo:hi] @ b16[a_sparse.indices[lo:hi]]
    return out


def estimate_time(
    problem: GemmProblem,
    gpu: Optional[GPUSpec] = None,
    config: Optional[SputnikConfig] = None,
    load_imbalance: float = 1.15,
) -> KernelResult:
    """Modelled execution time of Sputnik's SpMM.

    Parameters
    ----------
    load_imbalance:
        Max-over-mean row length of the CSR matrix (>= 1).  Unstructured
        magnitude pruning of transformer layers typically lands around
        1.1-1.3; the factor stretches the compute phase because the slowest
        warp determines the tile time.
    """
    gpu = gpu or rtx3090()
    config = config or SputnikConfig()
    if load_imbalance < 1.0:
        raise ValueError("load_imbalance must be >= 1")

    r, k, c = problem.r, problem.k, problem.c
    density = problem.density
    nnz = r * k * density
    flops = 2.0 * nnz * c

    # Every non-zero gathers one B row segment per output tile; only a
    # fraction of those gathers hit in cache.
    b_gather_bytes = nnz * c * 2.0 * (1.0 - config.gather_reuse)
    traffic = TrafficRecord(
        gmem_read_bytes=nnz * 2.0 + nnz * 4.0 + (r + 1) * 4.0 + b_gather_bytes,
        gmem_write_bytes=matrix_bytes(r, c, problem.precision),
        smem_write_bytes=nnz * 2.0 * max(1.0, c / config.tile_c) * 0.25,
        smem_read_bytes=nnz * 2.0 * max(1.0, c / config.tile_c) * 0.25,
    )

    total_blocks = max(1, -(-r // config.rows_per_block) * -(-c // config.tile_c))
    resources = BlockResources(
        threads=config.threads,
        registers_per_thread=config.registers_per_thread,
        smem_bytes=config.smem_bytes,
    )
    cost = roofline_cost(
        gpu=gpu,
        flops=flops * load_imbalance,
        traffic=traffic,
        resources=resources,
        total_blocks=total_blocks,
        use_tensor_cores=False,
        sparse_tensor_cores=False,
        compute_efficiency=config.compute_efficiency,
        gmem_tx=TransactionModel(access_bits=64, coalesced=False),
        smem_tx=TransactionModel(access_bits=32),
        pipeline_stages=config.pipeline_stages,
    )
    return KernelResult(
        kernel="sputnik_spmm",
        problem=problem,
        cost=cost,
        details={"nnz": nnz, "load_imbalance": load_imbalance},
    )

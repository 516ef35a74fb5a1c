"""CLASP / vectorSparse baseline: column-vector sparse SpMM on Tensor Cores.

vectorSparse (Chen et al., SC'21) feeds Tensor Cores with semi-structured
sparsity by storing dense vertical vectors of length ``l`` (the CVSE format
of :mod:`repro.formats.cvse`); CLASP (Castro et al., PACT'22) extends the
same scheme to Ampere.  These are the ``vw_l`` baselines of Figure 13.

Performance characteristics reproduced by the model:

* math runs on dense Tensor Cores (not SPTCs), over the *kept* vectors
  only, but with reduced efficiency because the vector granularity (l <= 8)
  produces small, partially filled mma fragments;
* every kept vector requires an indexed gather of the corresponding B row,
  so the memory phase scales with the kept fraction but with worse
  transaction efficiency than a dense streaming kernel;
* row-block load imbalance (different numbers of surviving vectors per
  block) stretches the compute phase.

Together these give the behaviour the paper reports: clearly better than
Sputnik, only beating cuBLAS above ~85-90% sparsity on LLM-sized matrices,
and topping out around 3x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .common import GemmProblem, KernelResult
from ..formats.base import quantize_fp16
from ..formats.cvse import CVSEMatrix
from ..hardware.memory import TrafficRecord, TransactionModel, matrix_bytes
from ..hardware.occupancy import BlockResources
from ..hardware.roofline import roofline_cost
from ..hardware.spec import GPUSpec, rtx3090


@dataclass(frozen=True)
class ClaspConfig:
    """Modelled kernel parameters of the CLASP SpMM."""

    #: Column-vector length of the format (2, 4 or 8 in the paper).
    vector_length: int = 8
    #: Output columns per thread block.
    tile_c: int = 64
    threads: int = 128
    registers_per_thread: int = 128
    smem_bytes: int = 48 * 1024
    #: Sustained fraction of the *dense* tensor-core peak; low because the
    #: vector granularity under-fills mma fragments.
    compute_efficiency: float = 0.18
    #: Fraction of B gathers served by cache.
    gather_reuse: float = 0.4
    pipeline_stages: int = 2

    def __post_init__(self) -> None:
        if self.vector_length <= 0:
            raise ValueError("vector_length must be positive")
        if not 0.0 < self.compute_efficiency <= 1.0:
            raise ValueError("compute_efficiency must be in (0, 1]")
        if not 0.0 <= self.gather_reuse < 1.0:
            raise ValueError("gather_reuse must be in [0, 1)")


def spmm(a_sparse: CVSEMatrix, b: np.ndarray) -> np.ndarray:
    """Functional CVSE SpMM (fp16 operands, fp32 accumulation)."""
    if not isinstance(a_sparse, CVSEMatrix):
        raise TypeError("clasp.spmm expects a CVSEMatrix operand")
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != a_sparse.ncols_total:
        raise ValueError(f"B must have shape ({a_sparse.ncols_total}, C), got {b.shape}")
    b16 = quantize_fp16(b)
    data16 = quantize_fp16(a_sparse.data)
    out = np.zeros((a_sparse.nrows, b.shape[1]), dtype=np.float32)
    l = a_sparse.l
    n_blocks = a_sparse.nrows // l
    for blk in range(n_blocks):
        lo, hi = a_sparse.vector_ptr[blk], a_sparse.vector_ptr[blk + 1]
        if hi == lo:
            continue
        cols = a_sparse.vector_cols[lo:hi]
        # (l, n_vectors) @ (n_vectors, C): every vector contributes one rank-1
        # update of the l rows it spans.
        out[blk * l : (blk + 1) * l] = data16[lo:hi].T @ b16[cols]
    return out


def estimate_time(
    problem: GemmProblem,
    gpu: Optional[GPUSpec] = None,
    config: Optional[ClaspConfig] = None,
    load_imbalance: float = 1.2,
) -> KernelResult:
    """Modelled execution time of the CLASP SpMM on ``problem``."""
    gpu = gpu or rtx3090()
    config = config or ClaspConfig()
    if load_imbalance < 1.0:
        raise ValueError("load_imbalance must be >= 1")

    r, k, c = problem.r, problem.k, problem.c
    density = problem.density
    # Stored elements include the intra-vector zeros: the kept-vector
    # fraction equals the target density for vector-granular pruning.
    stored = r * k * density
    flops = 2.0 * stored * c

    num_vectors = stored / config.vector_length
    b_gather_bytes = num_vectors * c * 2.0 * (1.0 - config.gather_reuse)
    traffic = TrafficRecord(
        gmem_read_bytes=stored * 2.0 + num_vectors * 4.0 + b_gather_bytes,
        gmem_write_bytes=matrix_bytes(r, c, problem.precision),
        smem_write_bytes=stored * 2.0 * max(1.0, c / config.tile_c) * 0.25,
        smem_read_bytes=stored * 2.0 * max(1.0, c / config.tile_c) * 0.25,
    )

    rows_per_block = max(config.vector_length * 4, 32)
    total_blocks = max(1, -(-r // rows_per_block) * -(-c // config.tile_c))
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
        use_tensor_cores=True,
        sparse_tensor_cores=False,
        compute_efficiency=config.compute_efficiency,
        gmem_tx=TransactionModel(access_bits=64, coalesced=True),
        smem_tx=TransactionModel(access_bits=64),
        pipeline_stages=config.pipeline_stages,
    )
    return KernelResult(
        kernel="clasp_spmm",
        problem=problem,
        cost=cost,
        details={"vector_length": config.vector_length, "stored": stored},
    )

"""cuSparseLt baseline: the vendor 2:4 SpMM library.

cuSparseLt is NVIDIA's library for Sparse Tensor Core SpMM; it only accepts
the native 1:2 / 2:4 patterns (50% sparsity).  In the paper it is the
reference point for Figure 12 (Spatha matches it at large GEMMs and beats
it by up to 1.38x at small ones) and appears in Figure 13 pinned at the
50% sparsity column.

Model highlights that produce those behaviours:

* math runs on the Sparse Tensor Cores at the 2x rate — the library is an
  excellent kernel for large, regular problems;
* the B operand is dense and is streamed in full (2:4 halves A's footprint
  but not B's);
* the library selects from a small set of large tile configurations and
  adds measurable host-side setup latency per call (handle/plan lookup),
  which is what costs it efficiency on the small-K end of Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .common import GemmProblem, KernelResult, reference_matmul_fp16
from ..formats.base import quantize_fp16
from ..formats.metadata import metadata_bytes
from ..formats.nm import NMSparseMatrix
from ..hardware.memory import TrafficRecord, TransactionModel, matrix_bytes
from ..hardware.occupancy import BlockResources
from ..hardware.roofline import roofline_cost
from ..hardware.spec import GPUSpec, rtx3090


@dataclass(frozen=True)
class CusparseLtConfig:
    """Modelled kernel/runtime parameters of cuSparseLt SpMM."""

    tile_r: int = 128
    tile_c: int = 128
    threads: int = 256
    registers_per_thread: int = 168
    smem_bytes: int = 72 * 1024
    #: Sustained fraction of the sparse tensor-core peak.
    compute_efficiency: float = 0.45
    pipeline_stages: int = 3
    #: Extra per-call host/runtime latency (plan lookup, handle checks), us.
    runtime_overhead_us: float = 6.0

    def __post_init__(self) -> None:
        if not 0.0 < self.compute_efficiency <= 1.0:
            raise ValueError("compute_efficiency must be in (0, 1]")
        if self.runtime_overhead_us < 0:
            raise ValueError("runtime_overhead_us must be non-negative")


def spmm(a_sparse: NMSparseMatrix, b: np.ndarray) -> np.ndarray:
    """Functional 2:4 SpMM: decode the N:M operand and multiply.

    The kernel consumes the compressed ``values`` array and the 2-bit
    metadata directly (mirroring how the hardware multiplexes B rows), so
    the result is numerically identical to the dense reference on the
    decompressed operand.
    """
    if not isinstance(a_sparse, NMSparseMatrix):
        raise TypeError("cusparselt.spmm expects an NMSparseMatrix operand")
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != a_sparse.k:
        raise ValueError(f"B must have shape ({a_sparse.k}, C), got {b.shape}")
    b16 = quantize_fp16(b)
    vals = quantize_fp16(a_sparse.values)
    cols = a_sparse.column_indices()  # (R, K/M*N) absolute columns
    # Gather the B rows each stored value multiplies and accumulate.
    gathered = b16[cols]  # (R, nnz_per_row, C)
    return np.einsum("rn,rnc->rc", vals, gathered, optimize=True)


#: Tile shapes the library's (small) algorithm search chooses between.  The
#: set is intentionally narrower than cuBLAS's: cuSparseLt ships fewer
#: kernel variants, which is part of why Spatha wins on small problems.
_CUSPARSELT_TILE_CANDIDATES = ((256, 128), (128, 128), (128, 256))


def estimate_time(
    problem: GemmProblem,
    gpu: Optional[GPUSpec] = None,
    config: Optional[CusparseLtConfig] = None,
) -> KernelResult:
    """Modelled execution time of cuSparseLt SpMM on a 2:4 problem.

    When no explicit ``config`` is given the model mimics the library's
    ``cusparseLtMatmulSearch`` by evaluating its tile candidates and
    reporting the fastest.

    Raises
    ------
    ValueError
        If the problem's pattern is not the 50% (2:4 or 1:2) sparsity the
        library supports — enforcing the restriction the paper lifts.
    """
    gpu = gpu or rtx3090()
    if config is None:
        candidates = [CusparseLtConfig(tile_r=tr, tile_c=tc) for tr, tc in _CUSPARSELT_TILE_CANDIDATES]
        results = [estimate_time(problem, gpu=gpu, config=cfg) for cfg in candidates]
        return min(results, key=lambda res: res.time_us)
    if problem.n is not None and problem.m is not None:
        if (problem.n, problem.m) not in ((2, 4), (1, 2)):
            raise ValueError(
                f"cuSparseLt only supports the 2:4 / 1:2 patterns, got {problem.n}:{problem.m}"
            )
    elif abs(problem.sparsity - 0.5) > 1e-9:
        raise ValueError("cuSparseLt only supports 50% sparsity")

    r, k, c = problem.r, problem.k, problem.c
    # The kernel issues mma.sp over the compressed operand: the logical
    # dense-equivalent work is 2*R*K*C, retired at the doubled SPTC rate,
    # i.e. it *issues* R*K*C multiply-adds worth of instruction slots.
    issued_flops = 2.0 * r * k * c / 2.0

    a_values_bytes = matrix_bytes(r, k // 2, problem.precision)
    a_meta_bytes = metadata_bytes(r * k // 2)
    traffic = TrafficRecord(
        gmem_read_bytes=a_values_bytes + a_meta_bytes + matrix_bytes(k, c, problem.precision),
        gmem_write_bytes=matrix_bytes(r, c, problem.precision),
        smem_write_bytes=a_values_bytes * max(1.0, c / config.tile_c)
        + matrix_bytes(k, c, problem.precision) * max(1.0, r / config.tile_r),
        smem_read_bytes=a_values_bytes * max(1.0, c / config.tile_c)
        + matrix_bytes(k, c, problem.precision) * max(1.0, r / config.tile_r),
    )

    total_blocks = max(1, -(-r // config.tile_r) * -(-c // config.tile_c))
    resources = BlockResources(
        threads=config.threads,
        registers_per_thread=config.registers_per_thread,
        smem_bytes=config.smem_bytes,
    )
    overhead_cycles = config.runtime_overhead_us * 1e-6 * gpu.sm_clock_hz
    cost = roofline_cost(
        gpu=gpu,
        flops=issued_flops * 2.0,  # logical FLOPs fed to the sparse pipe
        traffic=traffic,
        resources=resources,
        total_blocks=total_blocks,
        use_tensor_cores=True,
        sparse_tensor_cores=True,
        compute_efficiency=config.compute_efficiency,
        gmem_tx=TransactionModel(access_bits=128),
        smem_tx=TransactionModel(access_bits=128),
        pipeline_stages=config.pipeline_stages,
        extra_overhead_cycles=overhead_cycles,
    )
    return KernelResult(
        kernel="cusparselt_spmm",
        problem=problem,
        cost=cost,
        details={"tile": (config.tile_r, config.tile_c), "blocks": total_blocks},
    )


def run(
    a_sparse: NMSparseMatrix,
    b: np.ndarray,
    gpu: Optional[GPUSpec] = None,
    config: Optional[CusparseLtConfig] = None,
    name: str = "",
) -> KernelResult:
    """Functional + performance result for concrete 2:4 operands."""
    b = np.asarray(b)
    problem = GemmProblem.from_nm(
        r=a_sparse.shape[0], k=a_sparse.shape[1], c=b.shape[1], n=a_sparse.n, m=a_sparse.m, name=name
    )
    result = estimate_time(problem, gpu=gpu, config=config)
    result.output = spmm(a_sparse, b)
    return result

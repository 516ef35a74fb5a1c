"""Dense half-precision GEMM baseline (the paper's cuBLAS counterpart).

Every speedup figure in the paper is normalised to cuBLAS HGEMM on the same
``R x K x C`` problem, so the fidelity of this baseline matters as much as
Spatha's own model.  The model follows how cuBLAS-class GEMMs behave on
Ampere:

* compute: dense tensor-core math at a sustained efficiency well below the
  marketing peak (the paper's Figure 12 shows cuBLAS plateauing around
  55-65 TFLOP/s on a 142 TFLOP/s part);
* memory: each operand streams from DRAM approximately once per kernel —
  large thread-block tiles plus L2 make GEMM compute-bound for the sizes
  the paper sweeps;
* tile quantisation: small problems lose efficiency to partially filled
  waves and launch overhead, which is why all the speedup curves in the
  paper grow with ``K``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .common import GemmProblem, KernelResult, reference_matmul_fp16
from ..hardware.memory import TrafficRecord, TransactionModel, matrix_bytes
from ..hardware.occupancy import BlockResources
from ..hardware.roofline import roofline_cost
from ..hardware.spec import GPUSpec, rtx3090


@dataclass(frozen=True)
class CublasConfig:
    """Tile configuration and efficiency knobs of the dense baseline."""

    #: Thread-block output tile (rows x cols); cuBLAS-class kernels use
    #: large tiles to maximise data reuse.
    tile_r: int = 128
    tile_c: int = 128
    #: Threads per block of the selected kernel.
    threads: int = 256
    #: Registers per thread (drives occupancy).
    registers_per_thread: int = 160
    #: Shared memory per block, bytes (double-buffered A and B tiles).
    smem_bytes: int = 64 * 1024
    #: Sustained fraction of peak dense tensor-core throughput.
    compute_efficiency: float = 0.45
    #: Software pipeline depth (cp.async stages).
    pipeline_stages: int = 3

    def __post_init__(self) -> None:
        if self.tile_r <= 0 or self.tile_c <= 0:
            raise ValueError("tile sizes must be positive")
        if not 0.0 < self.compute_efficiency <= 1.0:
            raise ValueError("compute_efficiency must be in (0, 1]")


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Functional dense GEMM with tensor-core numerics (fp16 x fp16 -> fp32)."""
    return reference_matmul_fp16(a, b)


#: Tile shapes cuBLAS's internal heuristics choose between.  Modelling the
#: selection (rather than a single fixed tile) matters because real cuBLAS
#: picks the tile that fills the GPU best for each problem shape, and the
#: paper's speedups are measured against that well-tuned baseline.
_CUBLAS_TILE_CANDIDATES = ((256, 128), (128, 256), (128, 128), (128, 64), (64, 128), (64, 64))


def estimate_time(
    problem: GemmProblem,
    gpu: Optional[GPUSpec] = None,
    config: Optional[CublasConfig] = None,
) -> KernelResult:
    """Modelled execution time of cuBLAS HGEMM on ``problem``.

    The ``sparsity`` field of the problem is ignored: the dense baseline
    always performs the full ``2*R*K*C`` FLOPs (that is the point of the
    comparison).  When no explicit ``config`` is given the model emulates
    cuBLAS's heuristic kernel selection by evaluating a small set of tile
    shapes and reporting the fastest.
    """
    gpu = gpu or rtx3090()
    if config is None:
        candidates = [CublasConfig(tile_r=tr, tile_c=tc) for tr, tc in _CUBLAS_TILE_CANDIDATES]
        results = [_estimate_with_config(problem, gpu, cfg) for cfg in candidates]
        return min(results, key=lambda res: res.time_us)
    return _estimate_with_config(problem, gpu, config)


def _estimate_with_config(problem: GemmProblem, gpu: GPUSpec, config: CublasConfig) -> KernelResult:
    """Cost of one specific tile configuration."""
    r, k, c = problem.r, problem.k, problem.c
    flops = 2.0 * r * k * c

    # One-pass streaming traffic for A, B and the output (see module docs).
    traffic = TrafficRecord(
        gmem_read_bytes=matrix_bytes(r, k, problem.precision) + matrix_bytes(k, c, problem.precision),
        gmem_write_bytes=matrix_bytes(r, c, problem.precision),
        # SMEM: every A/B element is staged once and read once per use in
        # the inner product of its tile row/column.
        smem_write_bytes=matrix_bytes(r, k, problem.precision) * (c / config.tile_c)
        + matrix_bytes(k, c, problem.precision) * (r / config.tile_r),
        smem_read_bytes=matrix_bytes(r, k, problem.precision) * (c / config.tile_c)
        + matrix_bytes(k, c, problem.precision) * (r / config.tile_r),
    )

    total_blocks = max(1, -(-r // config.tile_r) * -(-c // config.tile_c))
    resources = BlockResources(
        threads=config.threads,
        registers_per_thread=config.registers_per_thread,
        smem_bytes=config.smem_bytes,
    )
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
        smem_tx=TransactionModel(access_bits=128),
        pipeline_stages=config.pipeline_stages,
    )
    return KernelResult(
        kernel="cublas_hgemm",
        problem=problem,
        cost=cost,
        details={"tile": (config.tile_r, config.tile_c), "blocks": total_blocks},
    )

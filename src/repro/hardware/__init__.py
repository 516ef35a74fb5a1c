"""Simulated GPU execution substrate.

The paper's experiments run on an NVIDIA RTX 3090 with Sparse Tensor Cores.
This subpackage provides an analytical stand-in for that hardware: machine
descriptions (:mod:`~repro.hardware.spec`), the tensor-core instruction
table from the paper's Table 1 (:mod:`~repro.hardware.isa`), memory-traffic
and transaction models (:mod:`~repro.hardware.memory`), a shared-memory
bank-conflict simulator (:mod:`~repro.hardware.banks`), an occupancy
calculator (:mod:`~repro.hardware.occupancy`), the roofline execution-time
model (:mod:`~repro.hardware.roofline`) and kernel trace records
(:mod:`~repro.hardware.trace`).
"""

from .banks import ConflictReport, conflict_degree_for_layout, simulate_access
from .isa import (
    SPARSE_MMA_SHAPES,
    MmaShape,
    default_sparse_shape,
    sparse_mma_shapes,
)
from .memory import (
    DTYPE_BYTES,
    TrafficRecord,
    TransactionModel,
    dtype_bytes,
    gmem_cycles,
    matrix_bytes,
    smem_cycles,
    transfer_cycles,
)
from .occupancy import (
    BlockResources,
    OccupancyResult,
    active_sms,
    blocks_per_sm,
    latency_hiding_factor,
    quantized_waves,
    wave_efficiency,
    waves,
)
from .roofline import KernelCost, compute_cycles_cuda_core, compute_cycles_tensor_core, roofline_cost
from .spec import (
    NVLINK,
    PCIE4,
    DeviceGroupSpec,
    GPUSpec,
    InterconnectSpec,
    MemorySpec,
    a100_sxm,
    rtx3090,
)
from .trace import ExecutionTrace, KernelExecution

__all__ = [
    "ConflictReport",
    "conflict_degree_for_layout",
    "simulate_access",
    "SPARSE_MMA_SHAPES",
    "MmaShape",
    "default_sparse_shape",
    "sparse_mma_shapes",
    "DTYPE_BYTES",
    "TrafficRecord",
    "TransactionModel",
    "dtype_bytes",
    "gmem_cycles",
    "matrix_bytes",
    "smem_cycles",
    "transfer_cycles",
    "BlockResources",
    "OccupancyResult",
    "active_sms",
    "blocks_per_sm",
    "latency_hiding_factor",
    "quantized_waves",
    "wave_efficiency",
    "waves",
    "KernelCost",
    "compute_cycles_cuda_core",
    "compute_cycles_tensor_core",
    "roofline_cost",
    "NVLINK",
    "PCIE4",
    "DeviceGroupSpec",
    "GPUSpec",
    "InterconnectSpec",
    "MemorySpec",
    "a100_sxm",
    "rtx3090",
    "ExecutionTrace",
    "KernelExecution",
]

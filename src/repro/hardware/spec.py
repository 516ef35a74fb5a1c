"""GPU hardware specifications used by the simulated execution substrate.

The paper evaluates on an NVIDIA RTX 3090 (Ampere GA102) equipped with
Sparse Tensor Cores.  Since no physical GPU is available in this
reproduction, every kernel cost model in :mod:`repro.kernels` is driven by
an analytical description of the machine.  This module defines that
description (:class:`GPUSpec`) together with presets for the GPUs that are
relevant to the paper (RTX 3090, and an A100 preset useful for what-if
studies).

The numbers below come from public NVIDIA documentation (GA102/GA100
whitepapers).  They are not used to predict absolute wall-clock times with
high fidelity; they set the *ratios* that matter for the paper's
experiments: dense tensor-core math rate vs. sparse tensor-core math rate,
memory bandwidth at each level of the hierarchy, shared-memory banking, and
the per-SM resources that determine occupancy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass(frozen=True)
class MemorySpec:
    """Bandwidth/latency description of one level of the memory hierarchy.

    Attributes
    ----------
    bandwidth_gbps:
        Sustained bandwidth of the level in GB/s (aggregate, whole chip).
    latency_cycles:
        Typical access latency in SM clock cycles (unloaded).
    capacity_bytes:
        Capacity of the level in bytes (aggregate for GMEM/L2, per-SM for
        shared memory, per-thread-block-visible for the register file).
    """

    bandwidth_gbps: float
    latency_cycles: float
    capacity_bytes: int


@dataclass(frozen=True)
class GPUSpec:
    """Analytical description of a GPU used by the cost models.

    All throughput values are *peak* values; the cost models apply
    efficiency factors derived from the access patterns of each kernel
    (see :mod:`repro.hardware.roofline` and
    :mod:`repro.kernels.spatha.perf_model`).
    """

    name: str
    #: Number of streaming multiprocessors.
    num_sms: int
    #: SM clock in MHz used for cycle <-> time conversion (boost clock).
    sm_clock_mhz: float
    #: Number of tensor cores per SM.
    tensor_cores_per_sm: int
    #: Dense FP16 tensor-core throughput for the whole chip, in TFLOP/s
    #: (FP16 multiply, FP32 accumulate).
    dense_fp16_tc_tflops: float
    #: Sparse (2:4) tensor-core throughput for the whole chip, in TFLOP/s.
    #: On Ampere this is exactly 2x the dense rate.
    sparse_fp16_tc_tflops: float
    #: FP32 CUDA-core throughput for the whole chip, in TFLOP/s.  Used for
    #: non-tensor-core work such as softmax/layernorm epilogues.
    fp32_cuda_tflops: float
    #: FP16 CUDA-core (non tensor core) throughput in TFLOP/s.  Used by
    #: kernels that cannot use TCUs (e.g. Sputnik's scalar path).
    fp16_cuda_tflops: float
    #: Global memory (DRAM).
    gmem: MemorySpec = field(default_factory=lambda: MemorySpec(936.0, 400.0, 24 * 1024**3))
    #: L2 cache.
    l2: MemorySpec = field(default_factory=lambda: MemorySpec(2500.0, 200.0, 6 * 1024**2))
    #: Shared memory (per SM capacity; bandwidth is aggregate).
    smem: MemorySpec = field(default_factory=lambda: MemorySpec(13000.0, 25.0, 128 * 1024))
    #: Maximum shared memory configurable per thread block, bytes.
    max_smem_per_block: int = 100 * 1024
    #: Register file size per SM, in 32-bit registers.
    registers_per_sm: int = 65536
    #: Maximum registers addressable by a single thread.
    max_registers_per_thread: int = 255
    #: Maximum resident threads per SM.
    max_threads_per_sm: int = 1536
    #: Maximum resident warps per SM.
    max_warps_per_sm: int = 48
    #: Maximum resident thread blocks per SM.
    max_blocks_per_sm: int = 16
    #: Warp size (threads).
    warp_size: int = 32
    #: Number of 32-bit shared-memory banks.
    smem_banks: int = 32
    #: Width of one shared-memory bank in bytes.
    smem_bank_width: int = 4
    #: Maximum bytes movable by one vectorised load/store instruction.
    max_vector_width_bytes: int = 16
    #: Fixed kernel launch overhead, in microseconds.  Small GEMMs are
    #: launch-latency bound; this term reproduces the flattening of the
    #: speedup curves at small K in Figures 9 and 12.
    kernel_launch_overhead_us: float = 5.0

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def sm_clock_hz(self) -> float:
        """SM clock in Hz."""
        return self.sm_clock_mhz * 1.0e6

    @property
    def dense_fp16_flops_per_cycle(self) -> float:
        """Whole-chip dense FP16 tensor-core FLOPs retired per SM cycle."""
        return self.dense_fp16_tc_tflops * 1e12 / self.sm_clock_hz

    @property
    def sparse_fp16_flops_per_cycle(self) -> float:
        """Whole-chip sparse (2:4) FP16 tensor-core FLOPs per SM cycle."""
        return self.sparse_fp16_tc_tflops * 1e12 / self.sm_clock_hz

    @property
    def gmem_bytes_per_cycle(self) -> float:
        """Whole-chip DRAM bytes transferred per SM cycle."""
        return self.gmem.bandwidth_gbps * 1e9 / self.sm_clock_hz

    @property
    def l2_bytes_per_cycle(self) -> float:
        """Whole-chip L2 bytes transferred per SM cycle."""
        return self.l2.bandwidth_gbps * 1e9 / self.sm_clock_hz

    @property
    def smem_bytes_per_cycle(self) -> float:
        """Whole-chip shared-memory bytes transferred per SM cycle."""
        return self.smem.bandwidth_gbps * 1e9 / self.sm_clock_hz

    @property
    def smem_bytes_per_cycle_per_sm(self) -> float:
        """Per-SM shared-memory bytes per cycle (bank width x banks)."""
        return float(self.smem_banks * self.smem_bank_width)

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert SM cycles to seconds."""
        return cycles / self.sm_clock_hz

    def seconds_to_cycles(self, seconds: float) -> float:
        """Convert seconds to SM cycles."""
        return seconds * self.sm_clock_hz

    def with_overrides(self, **kwargs) -> "GPUSpec":
        """Return a copy of this spec with selected fields replaced."""
        return dataclasses.replace(self, **kwargs)


def rtx3090() -> GPUSpec:
    """The GPU used throughout the paper's evaluation (GA102, Ampere).

    Peak numbers: 82 SMs at ~1.7 GHz boost, 142 dense FP16 TC TFLOP/s,
    284 sparse TFLOP/s, 936 GB/s GDDR6X.
    """
    return GPUSpec(
        name="NVIDIA GeForce RTX 3090",
        num_sms=82,
        sm_clock_mhz=1695.0,
        tensor_cores_per_sm=4,
        dense_fp16_tc_tflops=142.0,
        sparse_fp16_tc_tflops=284.0,
        fp32_cuda_tflops=35.6,
        fp16_cuda_tflops=35.6,
        gmem=MemorySpec(bandwidth_gbps=936.0, latency_cycles=400.0, capacity_bytes=24 * 1024**3),
        l2=MemorySpec(bandwidth_gbps=2500.0, latency_cycles=200.0, capacity_bytes=6 * 1024**2),
        smem=MemorySpec(bandwidth_gbps=13000.0, latency_cycles=25.0, capacity_bytes=128 * 1024),
    )


def a100_sxm() -> GPUSpec:
    """NVIDIA A100-SXM4-80GB preset, useful for what-if scaling studies."""
    return GPUSpec(
        name="NVIDIA A100-SXM4-80GB",
        num_sms=108,
        sm_clock_mhz=1410.0,
        tensor_cores_per_sm=4,
        dense_fp16_tc_tflops=312.0,
        sparse_fp16_tc_tflops=624.0,
        fp32_cuda_tflops=19.5,
        fp16_cuda_tflops=78.0,
        gmem=MemorySpec(bandwidth_gbps=2039.0, latency_cycles=400.0, capacity_bytes=80 * 1024**3),
        l2=MemorySpec(bandwidth_gbps=4500.0, latency_cycles=200.0, capacity_bytes=40 * 1024**2),
        smem=MemorySpec(bandwidth_gbps=19400.0, latency_cycles=25.0, capacity_bytes=164 * 1024),
        max_smem_per_block=164 * 1024,
        max_threads_per_sm=2048,
        max_warps_per_sm=64,
    )

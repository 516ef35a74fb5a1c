"""Roofline-style execution-time model shared by all kernel cost models.

Every library modelled in :mod:`repro.kernels` (cuBLAS, cuSparseLt, Sputnik,
CLASP and Spatha itself) reduces, at the top level, to the same question:
given the arithmetic work of a kernel, the bytes it must move at each level
of the memory hierarchy and the efficiency with which it uses the hardware,
how long does it run?  This module answers that question with a refined
roofline model:

``time = launch_overhead + max(compute_time, gmem_time, smem_time) +
         exposed_fraction * min(...)``

The ``max`` term is the classic roofline bound (perfect overlap of compute
and memory); the ``exposed_fraction`` term charges the portion of the
non-dominant phase that the kernel's software pipelining could not hide,
which is how differences in pipelining depth (Spatha's ``batchSize``) and
occupancy become visible in the final numbers.

:func:`roofline_cost` prices one launch; :func:`roofline_cycles` prices a
problem's whole list of candidate tilings in one NumPy pass, in the same
operation order, so each of its entries is bit for bit the scalar cost of
that candidate.  Auto-tuners rank with the array pass and price only the
winner with the scalar one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional

import numpy as np

from .memory import TrafficRecord, TransactionModel, gmem_cycles, smem_cycles, smem_cycles_array
from .occupancy import BlockResources, latency_hiding_factor, wave_efficiency
from .spec import GPUSpec


@dataclass
class KernelCost:
    """Cycle-level breakdown of one simulated kernel launch.

    All components are in SM cycles; :meth:`time_us` converts to
    microseconds with the GPU clock.  ``components`` keeps named
    sub-contributions (per kernel stage) so ablation studies can report
    where the time goes, mirroring the stage structure of Section 4.1.
    """

    gpu: GPUSpec
    compute_cycles: float = 0.0
    gmem_cycles: float = 0.0
    smem_cycles: float = 0.0
    overhead_cycles: float = 0.0
    exposed_fraction: float = 0.15
    components: Dict[str, float] = field(default_factory=dict)

    @property
    def bound(self) -> str:
        """Name of the dominant resource: compute / gmem / smem."""
        parts = {
            "compute": self.compute_cycles,
            "gmem": self.gmem_cycles,
            "smem": self.smem_cycles,
        }
        return max(parts, key=lambda k: parts[k])

    @property
    def total_cycles(self) -> float:
        """Total modelled execution time in cycles."""
        dominant = max(self.compute_cycles, self.gmem_cycles, self.smem_cycles)
        secondary = (
            self.compute_cycles + self.gmem_cycles + self.smem_cycles - dominant
        )
        return self.overhead_cycles + dominant + self.exposed_fraction * secondary

    def time_s(self) -> float:
        """Total modelled execution time in seconds."""
        return self.gpu.cycles_to_seconds(self.total_cycles)

    def time_us(self) -> float:
        """Total modelled execution time in microseconds."""
        return self.time_s() * 1e6

    def time_ms(self) -> float:
        """Total modelled execution time in milliseconds."""
        return self.time_s() * 1e3

    def tflops(self, flops: float) -> float:
        """Achieved TFLOP/s given the logical FLOP count of the problem."""
        seconds = self.time_s()
        if seconds <= 0:
            return 0.0
        return flops / seconds / 1e12

    def add_component(self, name: str, cycles: float) -> None:
        """Record a named sub-contribution (for reporting only)."""
        self.components[name] = self.components.get(name, 0.0) + cycles


def compute_cycles_tensor_core(
    flops: float,
    gpu: GPUSpec,
    sparse: bool = False,
    efficiency: float = 1.0,
) -> float:
    """Cycles to retire ``flops`` logical FLOPs on the (sparse) tensor cores.

    ``flops`` counts *logical* (dense-equivalent already removed) multiply-
    add work: callers pass the number of FLOPs the kernel actually issues.
    For an SPTC kernel, the caller passes the post-compression FLOPs and
    sets ``sparse=True`` so the doubled math rate applies.
    """
    if flops < 0:
        raise ValueError("flops must be non-negative")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    rate = gpu.sparse_fp16_flops_per_cycle if sparse else gpu.dense_fp16_flops_per_cycle
    return flops / (rate * efficiency)


def compute_cycles_cuda_core(flops: float, gpu: GPUSpec, precision: str = "fp16", efficiency: float = 1.0) -> float:
    """Cycles to retire ``flops`` FLOPs on the ordinary CUDA cores."""
    if flops < 0:
        raise ValueError("flops must be non-negative")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    tflops = gpu.fp16_cuda_tflops if precision == "fp16" else gpu.fp32_cuda_tflops
    rate = tflops * 1e12 / gpu.sm_clock_hz
    return flops / (rate * efficiency)


def roofline_cost(
    gpu: GPUSpec,
    flops: float,
    traffic: TrafficRecord,
    resources: BlockResources,
    total_blocks: int,
    use_tensor_cores: bool = True,
    sparse_tensor_cores: bool = False,
    compute_efficiency: float = 0.85,
    gmem_tx: Optional[TransactionModel] = None,
    smem_tx: Optional[TransactionModel] = None,
    smem_conflict_factor: float = 1.0,
    pipeline_stages: int = 2,
    extra_overhead_cycles: float = 0.0,
) -> KernelCost:
    """Build a :class:`KernelCost` for one kernel launch.

    Parameters
    ----------
    flops:
        Logical FLOPs issued by the kernel (after any sparsity reduction).
    traffic:
        Byte counts per memory level (see :class:`TrafficRecord`).
    resources / total_blocks:
        Per-block resource usage and grid size; used for occupancy,
        wave quantisation and latency hiding.
    use_tensor_cores / sparse_tensor_cores:
        Select the math pipe.  ``sparse_tensor_cores=True`` applies the 2x
        SPTC rate.
    compute_efficiency:
        Fraction of peak math attainable by this kernel's inner loop.
    smem_conflict_factor:
        Serialisation multiplier for shared-memory traffic (>= 1).
    pipeline_stages:
        Software pipelining depth (Spatha's ``batchSize``); deeper pipelines
        hide more of the non-dominant phase.
    """
    if total_blocks <= 0:
        raise ValueError("total_blocks must be positive")

    from .occupancy import active_sms as _active_sms  # local import to avoid cycle confusion

    if use_tensor_cores:
        compute = compute_cycles_tensor_core(
            flops, gpu, sparse=sparse_tensor_cores, efficiency=compute_efficiency
        )
    else:
        compute = compute_cycles_cuda_core(flops, gpu, efficiency=compute_efficiency)

    # Tail-wave quantisation: the compute phase cannot finish faster than an
    # integer number of waves allows.
    eff = wave_efficiency(total_blocks, resources, gpu)
    compute = compute / max(eff, 1e-9)

    n_active = max(1, _active_sms(total_blocks, resources, gpu))
    # DRAM bandwidth also scales down when only a fraction of SMs issue loads.
    gmem_scale = min(1.0, n_active / gpu.num_sms * 1.5)
    gmem = gmem_cycles(traffic.gmem_total_bytes, gpu, gmem_tx) / max(gmem_scale, 1e-9)
    smem = smem_cycles(
        traffic.smem_total_bytes,
        gpu,
        active_sms=n_active,
        tx=smem_tx,
        conflict_factor=smem_conflict_factor,
    )

    hiding = latency_hiding_factor(resources, gpu, pipeline_stages=pipeline_stages)
    exposed = max(0.05, 1.0 - hiding)

    overhead = gpu.kernel_launch_overhead_us * 1e-6 * gpu.sm_clock_hz + extra_overhead_cycles

    cost = KernelCost(
        gpu=gpu,
        compute_cycles=compute,
        gmem_cycles=gmem,
        smem_cycles=smem,
        overhead_cycles=overhead,
        exposed_fraction=exposed,
    )
    cost.add_component("compute", compute)
    cost.add_component("gmem", gmem)
    cost.add_component("smem", smem)
    cost.add_component("overhead", overhead)
    return cost


class RooflineCycles(NamedTuple):
    """The :class:`KernelCost` cycle terms of many candidate launches, as arrays."""

    gpu: GPUSpec
    compute: np.ndarray
    gmem: np.ndarray
    smem: np.ndarray
    overhead: np.ndarray
    exposed: np.ndarray
    #: SMs with a resident block (at least 1), per candidate.
    active_sms: np.ndarray

    def time_us(self) -> np.ndarray:
        """:meth:`KernelCost.time_us` of every candidate."""
        dominant = np.maximum(np.maximum(self.compute, self.gmem), self.smem)
        secondary = self.compute + self.gmem + self.smem - dominant
        total = self.overhead + dominant + self.exposed * secondary
        return total / self.gpu.sm_clock_hz * 1e6


def roofline_cycles(
    gpu: GPUSpec,
    flops: float,
    gmem_bytes: float,
    smem_bytes,
    total_blocks: np.ndarray,
    blocks_per_sm: np.ndarray,
    exposed: np.ndarray,
    sparse_tensor_cores: bool,
    compute_efficiency: float,
    gmem_tx: TransactionModel,
    smem_tx: TransactionModel,
    extra_overhead_cycles=0.0,
) -> RooflineCycles:
    """:func:`roofline_cost` on tensor cores for every candidate at once.

    ``flops`` and ``gmem_bytes`` belong to the problem (a tiling changes
    neither); ``smem_bytes``, ``total_blocks`` and ``extra_overhead_cycles``
    may vary per candidate.  ``blocks_per_sm`` (each >= 1: a block that
    fits no SM is not a candidate) and ``exposed`` (``max(0.05, 1 -
    latency_hiding_factor(...))``) are per-configuration constants.
    """
    compute = compute_cycles_tensor_core(
        flops, gpu, sparse=sparse_tensor_cores, efficiency=compute_efficiency
    )
    w = total_blocks / (blocks_per_sm * gpu.num_sms)  # wave_efficiency
    compute = compute / np.maximum(w / np.ceil(w), 1e-9)

    n_active = np.maximum(1, np.minimum(gpu.num_sms, np.ceil(total_blocks / blocks_per_sm)))
    gmem_scale = np.minimum(1.0, n_active / gpu.num_sms * 1.5)
    gmem = gmem_cycles(gmem_bytes, gpu, gmem_tx) / np.maximum(gmem_scale, 1e-9)
    smem = smem_cycles_array(smem_bytes, gpu, n_active, smem_tx)

    overhead = gpu.kernel_launch_overhead_us * 1e-6 * gpu.sm_clock_hz + extra_overhead_cycles
    return RooflineCycles(gpu, compute, gmem, smem, overhead, exposed, n_active)

"""Structured records of simulated kernel executions.

The evaluation harness needs to aggregate kernel-level results into
figure-level tables (speedup-vs-K sweeps, end-to-end latency breakdowns,
ablation comparisons).  This module defines the small record types the
kernels emit and helpers to accumulate them into per-operator and per-model
summaries, mirroring the "GEMMs / matmul / softmax / others" breakdown of
Figure 15.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List


@dataclass(frozen=True)
class KernelExecution:
    """One simulated kernel launch.

    Attributes
    ----------
    kernel:
        Library/kernel name, e.g. ``"spatha_spmm"``, ``"cublas_hgemm"``.
    category:
        Operator category used for latency breakdowns: ``"gemm"``,
        ``"matmul"`` (attention score/context batched matmuls),
        ``"softmax"`` or ``"other"``.
    time_us:
        Modelled execution time in microseconds.
    flops:
        Logical FLOPs of the operation (dense-equivalent arithmetic for
        sparse kernels is recorded in ``dense_flops``).
    dense_flops:
        FLOPs the dense counterpart would have executed (for speedup math).
    bytes_moved:
        DRAM bytes moved.
    meta:
        Free-form metadata (tile config, sparsity, layer name, ...).
    """

    kernel: str
    category: str
    time_us: float
    flops: float = 0.0
    dense_flops: float = 0.0
    bytes_moved: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.time_us < 0:
            raise ValueError("time_us must be non-negative")
        if self.category not in {"gemm", "matmul", "softmax", "other"}:
            raise ValueError(f"unknown category {self.category!r}")

    @property
    def tflops(self) -> float:
        """Achieved TFLOP/s of this execution."""
        if self.time_us <= 0:
            return 0.0
        return self.flops / (self.time_us * 1e-6) / 1e12


@dataclass
class ExecutionTrace:
    """Accumulator of kernel executions for one model / benchmark run."""

    executions: List[KernelExecution] = field(default_factory=list)

    def record(self, execution: KernelExecution) -> None:
        """Append one kernel execution to the trace."""
        self.executions.append(execution)

    def extend(self, executions: Iterable[KernelExecution]) -> None:
        """Append several kernel executions."""
        for e in executions:
            self.record(e)

    @property
    def total_time_us(self) -> float:
        """Sum of all kernel times in microseconds."""
        return sum(e.time_us for e in self.executions)

    @property
    def total_time_ms(self) -> float:
        """Sum of all kernel times in milliseconds."""
        return self.total_time_us / 1e3

    def time_by_category(self) -> Dict[str, float]:
        """Total time (us) per operator category.

        Always returns all four categories so latency-breakdown plots have a
        stable schema even when a category is absent.
        """
        out = {"gemm": 0.0, "matmul": 0.0, "softmax": 0.0, "other": 0.0}
        for e in self.executions:
            out[e.category] += e.time_us
        return out

    def gemm_time_us(self) -> float:
        """Total time spent in (Sp)GEMM kernels."""
        return self.time_by_category()["gemm"]

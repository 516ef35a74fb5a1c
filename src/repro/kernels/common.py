"""Shared kernel-level abstractions: GEMM problem description and results.

Every library in this subpackage — the dense cuBLAS baseline, the vendor
2:4 library (cuSparseLt), the third-party sparse libraries (Sputnik, CLASP)
and Spatha itself — answers the same two questions about an
``R x K x C`` GEMM problem (the paper's naming: ``R`` output rows, ``K``
the sparsified inner dimension, ``C`` output columns):

* *functional*: what is the numerical result?  Implemented with numpy on
  the library's native storage format.
* *performance*: how long would the kernel take on the simulated GPU?
  Implemented on top of :mod:`repro.hardware.roofline`.

This module defines :class:`GemmProblem` (the problem description),
:class:`KernelResult` (the combined functional/performance answer), the
fp16 matmul reference used by all numerical tests, and
:class:`BoundedCache` (every kernel-layer memo).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional

import numpy as np

from ..formats.base import quantize_fp16
from ..hardware.roofline import KernelCost
from ..hardware.trace import KernelExecution


@dataclass(frozen=True)
class GemmProblem:
    """An ``R x K x C`` (sparse) GEMM problem.

    ``A`` is ``R x K`` (the sparsified operand in SpMM), ``B`` is ``K x C``
    dense, and the output ``C`` matrix is ``R x C``.  ``sparsity`` is the
    logical sparsity of ``A`` (0 for dense GEMM); ``n``/``m``/``v`` record
    the structured pattern when one applies.
    """

    r: int
    k: int
    c: int
    sparsity: float = 0.0
    n: Optional[int] = None
    m: Optional[int] = None
    v: Optional[int] = None
    precision: str = "fp16"
    name: str = ""

    def __post_init__(self) -> None:
        if self.r <= 0 or self.k <= 0 or self.c <= 0:
            raise ValueError(f"GEMM dimensions must be positive, got {self.r}x{self.k}x{self.c}")
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError(f"sparsity must be in [0, 1), got {self.sparsity}")
        if (self.n is None) != (self.m is None):
            raise ValueError("n and m must be given together")
        if self.n is not None and self.m is not None:
            if self.n <= 0 or self.m <= 0 or self.n > self.m:
                raise ValueError(f"invalid N:M pattern {self.n}:{self.m}")

    @property
    def dense_flops(self) -> float:
        """FLOPs of the dense GEMM (2 * R * K * C)."""
        return 2.0 * self.r * self.k * self.c

    @property
    def effective_flops(self) -> float:
        """FLOPs actually required after removing the pruned weights."""
        return self.dense_flops * (1.0 - self.sparsity)

    @property
    def density(self) -> float:
        """Density of the sparse operand."""
        return 1.0 - self.sparsity

    def with_sparsity(self, sparsity: float, n: Optional[int] = None, m: Optional[int] = None,
                      v: Optional[int] = None) -> "GemmProblem":
        """Copy of this problem with a different sparsity/pattern."""
        return GemmProblem(
            r=self.r, k=self.k, c=self.c, sparsity=sparsity, n=n, m=m, v=v,
            precision=self.precision, name=self.name,
        )

    @classmethod
    def from_nm(cls, r: int, k: int, c: int, n: int, m: int, v: Optional[int] = None,
                name: str = "") -> "GemmProblem":
        """Problem whose sparsity is implied by an N:M pattern."""
        if n <= 0 or m <= 0 or n > m:
            raise ValueError(f"invalid N:M pattern {n}:{m}")
        return cls(r=r, k=k, c=c, sparsity=1.0 - n / m, n=n, m=m, v=v, name=name)


@dataclass
class KernelResult:
    """Combined functional + performance result of one kernel invocation."""

    kernel: str
    problem: GemmProblem
    cost: KernelCost
    output: Optional[np.ndarray] = None
    details: Dict[str, object] = field(default_factory=dict)
    #: ``as_execution``'s modelled scalars, filled on its first call.
    _exec_scalars: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def time_us(self) -> float:
        """Modelled execution time in microseconds."""
        return self.cost.time_us()

    @property
    def time_ms(self) -> float:
        """Modelled execution time in milliseconds."""
        return self.cost.time_ms()

    @property
    def tflops_effective(self) -> float:
        """TFLOP/s counting only the arithmetic actually performed."""
        return self.cost.tflops(self.problem.effective_flops)

    @property
    def tflops_dense_equivalent(self) -> float:
        """TFLOP/s counting the dense-equivalent arithmetic.

        This is the metric the paper's Figure 12 plots: the sparse kernels
        are credited with the full ``2*R*K*C`` FLOPs, so a 2x faster sparse
        kernel shows twice the dense TFLOP/s.
        """
        return self.cost.tflops(self.problem.dense_flops)

    def speedup_over(self, baseline: "KernelResult") -> float:
        """Speedup of this kernel relative to another result on any problem
        with the same dense dimensions."""
        if (self.problem.r, self.problem.k, self.problem.c) != (
            baseline.problem.r,
            baseline.problem.k,
            baseline.problem.c,
        ):
            raise ValueError("speedup requires results on the same R x K x C problem")
        if self.time_us <= 0:
            raise ValueError("cannot compute speedup of a zero-time result")
        return baseline.time_us / self.time_us

    def as_execution(self, category: str = "gemm") -> KernelExecution:
        """Convert to a trace record for end-to-end latency accounting.

        The modelled scalars are memoized on the result: the serving
        engines convert the same (dispatcher-cached) result once per
        micro-batch, and the cost-model property chain is pure.  Each call
        still returns a fresh record with a fresh ``meta`` dict, so
        callers may annotate it freely.
        """
        scalars = self._exec_scalars
        if scalars is None:
            scalars = (
                self.time_us,
                self.problem.effective_flops,
                self.problem.dense_flops,
                self.cost.gmem_cycles * self.cost.gpu.gmem_bytes_per_cycle,
            )
            self._exec_scalars = scalars
        return KernelExecution(
            kernel=self.kernel,
            category=category,
            time_us=scalars[0],
            flops=scalars[1],
            dense_flops=scalars[2],
            bytes_moved=scalars[3],
            meta=dict(self.details),
        )


def reference_matmul_fp16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference half-precision GEMM: fp16 operands, fp32 accumulation.

    This mirrors the numerics of tensor-core MMA instructions and is the
    ground truth every functional kernel is tested against.
    """
    a16 = quantize_fp16(a)
    b16 = quantize_fp16(b)
    if a16.ndim != 2 or b16.ndim != 2:
        raise ValueError("reference_matmul_fp16 expects 2-D operands")
    if a16.shape[1] != b16.shape[0]:
        raise ValueError(f"incompatible shapes {a16.shape} @ {b16.shape}")
    return a16 @ b16


#: Entries one kernel-layer memo may hold (dispatch decisions, exact-C
#: estimates, tuner records).  The working sets are tens of entries — 12
#: projections x a bucket ladder in serving, 36 cells in the sweep — so the
#: bound only bites on unbounded key streams (one entry per distinct C),
#: where it trades a re-run of the pure cost model for a fixed footprint.
MEMO_BOUND = 1024


class BoundedCache:
    """A memo of at most :data:`MEMO_BOUND` entries with traffic counters.

    Past the bound the oldest entry goes (first in, first out: a hit costs
    a dict lookup and nothing else, which is what a C=1 dispatched call
    can afford — ~8 us at 256x256 and ~16 us at 1024x256 or 256x1024,
    16:2:8, on one AMD EPYC core with one BLAS thread; an evicted hot
    entry is recomputed once and is the newest again).  ``hits`` /
    ``misses`` count ``get`` calls and are cumulative — :meth:`clear`
    drops the entries, not the counters.
    Values must not be ``None`` (``get`` returns it for a miss).
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable):
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        entries = self._entries
        entries[key] = value
        while len(entries) > MEMO_BOUND:
            entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

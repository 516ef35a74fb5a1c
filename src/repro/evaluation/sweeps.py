"""Per-point helpers shared by the figure-level harnesses.

The paper's evaluation is a collection of sweeps: over the inner dimension
K (Figures 9 and 12), over sparsity levels (Figures 10, 11 and 13), over
vector sizes V (Figure 10) and over sparsification plans (Figure 15).  Each
harness in :mod:`repro.evaluation.figures` walks its own grid; the helpers
here measure one point of it against the kernel models and normalise it to
the cuBLAS baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..hardware.spec import GPUSpec, rtx3090
from ..kernels import clasp, cublas, cusparselt, sputnik
from ..kernels.common import GemmProblem, KernelResult
from ..kernels.spatha import Spatha
from ..kernels.spatha.config import KernelConfig, default_config


@dataclass
class SweepPoint:
    """One (problem, library) measurement of a sweep."""

    problem: GemmProblem
    library: str
    time_us: float
    speedup_vs_dense: float
    tflops_dense_equivalent: float
    extra: Dict[str, object] = field(default_factory=dict)


def dense_baseline(problem: GemmProblem, gpu: Optional[GPUSpec] = None) -> KernelResult:
    """The cuBLAS result every speedup in a sweep is normalised to."""
    dense_problem = GemmProblem(
        r=problem.r, k=problem.k, c=problem.c, precision=problem.precision, name=problem.name
    )
    return cublas.estimate_time(dense_problem, gpu=gpu or rtx3090())


def spatha_point(
    problem: GemmProblem,
    spatha: Spatha,
    dense: KernelResult,
    config: Optional[KernelConfig] = None,
) -> SweepPoint:
    """Measure Spatha on one problem and normalise against ``dense``."""
    result = spatha.estimate(problem, config=config)
    return SweepPoint(
        problem=problem,
        library="spatha",
        time_us=result.time_us,
        speedup_vs_dense=dense.time_us / result.time_us,
        tflops_dense_equivalent=result.tflops_dense_equivalent,
        extra={"config": result.details.get("config", "")},
    )


def library_point(problem: GemmProblem, library: str, dense: KernelResult,
                  gpu: Optional[GPUSpec] = None, vector_length: int = 8) -> SweepPoint:
    """Measure one of the baseline libraries on ``problem``."""
    gpu = gpu or rtx3090()
    if library == "cublas":
        result = cublas.estimate_time(
            GemmProblem(r=problem.r, k=problem.k, c=problem.c, name=problem.name), gpu=gpu
        )
    elif library == "cusparselt":
        result = cusparselt.estimate_time(problem, gpu=gpu)
    elif library == "sputnik":
        result = sputnik.estimate_time(problem, gpu=gpu)
    elif library == "clasp":
        result = clasp.estimate_time(problem, gpu=gpu, config=clasp.ClaspConfig(vector_length=vector_length))
    else:
        raise ValueError(f"unknown library {library!r}")
    return SweepPoint(
        problem=problem,
        library=library,
        time_us=result.time_us,
        speedup_vs_dense=dense.time_us / result.time_us,
        tflops_dense_equivalent=result.tflops_dense_equivalent,
    )

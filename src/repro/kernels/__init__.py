"""SpMM / GEMM kernel libraries (functional numerics + performance models).

* :mod:`~repro.kernels.cublas` — dense HGEMM baseline (the denominator of
  every speedup in the paper).
* :mod:`~repro.kernels.cusparselt` — the vendor 2:4 SpMM library.
* :mod:`~repro.kernels.sputnik` — unstructured CSR SpMM (no tensor cores).
* :mod:`~repro.kernels.cusparse` — cuSPARSE's Blocked-ELL SpMM.
* :mod:`~repro.kernels.clasp` — column-vector sparse SpMM on tensor cores
  (vectorSparse / CLASP).
* :mod:`~repro.kernels.spatha` — the paper's V:N:M SpMM library.
* :mod:`~repro.kernels.dispatch` — runs an operand on Spatha's plan or the
  dense cuBLAS fallback, whichever the models rank faster, with failover.
"""

from . import clasp, cublas, cusparse, cusparselt, dispatch, sputnik
from .common import GemmProblem, KernelResult, reference_matmul_fp16
from .dispatch import KernelDispatcher, SpmmOperand, default_dispatcher
from .spatha import Spatha

__all__ = [
    "clasp",
    "cublas",
    "cusparse",
    "cusparselt",
    "dispatch",
    "sputnik",
    "GemmProblem",
    "KernelResult",
    "reference_matmul_fp16",
    "KernelDispatcher",
    "SpmmOperand",
    "default_dispatcher",
    "Spatha",
]

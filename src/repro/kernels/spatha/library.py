"""Spatha library facade.

This module is the public face of the reproduction's Spatha: the handful of
calls a downstream user needs — run the SpMM on a V:N:M operand and ask
for the modelled execution time — without touching the
tile/stage machinery underneath.  It mirrors the surface the real library
exposes through its PyTorch/STen integration (``spatha.vnm_sparsifier`` and
``spatha.spmm`` in the paper's Listing 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import KernelConfig, default_config
from .perf_model import estimate_time as _estimate_time
from .spmm import spmm as _spmm
from .tuner import SpathaTuner
from ..common import GemmProblem, KernelResult
from ...formats.vnm import VNMSparseMatrix
from ...hardware.spec import GPUSpec, rtx3090


@dataclass
class Spatha:
    """High-level handle bundling a GPU model and an auto-tuner.

    Parameters
    ----------
    gpu:
        Hardware description used by the performance model (defaults to the
        paper's RTX 3090).
    autotune:
        When True (default) :meth:`estimate` picks the best template
        instantiation per problem; otherwise the default configuration for
        the problem's V is used.
    """

    gpu: GPUSpec = None  # type: ignore[assignment]
    autotune: bool = True

    def __post_init__(self) -> None:
        if self.gpu is None:
            self.gpu = rtx3090()
        self._tuner = SpathaTuner(gpu=self.gpu)

    def spmm(
        self,
        a: VNMSparseMatrix,
        b: np.ndarray,
        bias: Optional[np.ndarray] = None,
        config: Optional[KernelConfig] = None,
    ) -> np.ndarray:
        """Numerical SpMM result (``A @ B + bias``).

        ``b`` may be ``(K, C)`` or a batch ``(B, K, C)``; execution reuses
        the operand's memoized :class:`SpmmPlan`.
        """
        return _spmm(a, b, bias=bias, config=config)

    def estimate(self, problem: GemmProblem, config: Optional[KernelConfig] = None) -> KernelResult:
        """Modelled execution time for a problem description."""
        if config is not None:
            return _estimate_time(problem, config=config, gpu=self.gpu)
        if self.autotune:
            return self._tuner.best_result(problem)
        return _estimate_time(problem, config=default_config(problem.v or 128), gpu=self.gpu)

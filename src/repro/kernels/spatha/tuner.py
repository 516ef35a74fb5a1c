"""Template auto-tuner for the Spatha kernel.

Because Spatha is template-based, the paper selects the tile configuration
per problem ("can be tuned depending on the input dynamics, such as GEMM
size or the V:N:M format configuration").  The tuner enumerates the
candidate configurations (:func:`repro.kernels.spatha.config.candidate_configs`)
and ranks them with the performance model — the simulated analogue of an
on-device exhaustive search.  A problem's whole candidate list is priced in
one NumPy pass (:func:`~repro.kernels.spatha.perf_model.estimate_times`)
over a :class:`~repro.kernels.spatha.perf_model.CandidateTable`, built the
first time a (V, C-class) is tuned; only the winner is priced again by the
scalar :func:`~repro.kernels.spatha.perf_model.estimate_time`, for its
:class:`~repro.kernels.common.KernelResult`.  Records are cached per problem
signature (in a :class:`~repro.kernels.common.BoundedCache`) so sweeps that
revisit the same shape (every figure does) pay the search once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .config import KernelConfig, candidate_configs, default_config, widest_bs_c
from .perf_model import CandidateTable, candidate_table, estimate_time, estimate_times
from .tiles import UnsupportedTilingError
from ..common import BoundedCache, GemmProblem, KernelResult
from ...hardware.spec import GPUSpec, rtx3090


@dataclass
class TuningRecord:
    """Outcome of tuning one problem: the ranked candidate list."""

    problem: GemmProblem
    results: List[Tuple[KernelConfig, float]] = field(default_factory=list)

    @property
    def best_config(self) -> KernelConfig:
        """The fastest configuration found."""
        if not self.results:
            raise ValueError("tuning record is empty")
        return self.results[0][0]

    @property
    def best_time_us(self) -> float:
        """Modelled time of the fastest configuration."""
        if not self.results:
            raise ValueError("tuning record is empty")
        return self.results[0][1]

    @property
    def worst_time_us(self) -> float:
        """Modelled time of the slowest candidate (tuning headroom)."""
        if not self.results:
            raise ValueError("tuning record is empty")
        return self.results[-1][1]

    @property
    def tuning_gain(self) -> float:
        """Worst / best candidate time — how much tuning matters here."""
        return self.worst_time_us / self.best_time_us


class SpathaTuner:
    """Exhaustive (model-driven) tuner with per-problem caching."""

    def __init__(self, gpu: Optional[GPUSpec] = None) -> None:
        self.gpu = gpu or rtx3090()
        self._cache = BoundedCache()
        self._tables = BoundedCache()

    @staticmethod
    def _signature(problem: GemmProblem) -> Tuple:
        return (problem.r, problem.k, problem.c, problem.v, problem.n, problem.m, problem.precision)

    def _table(self, v: int, c: int) -> CandidateTable:
        """The candidate table of (V, C-class) on this tuner's GPU."""
        key = (v, widest_bs_c(c))
        table = self._tables.get(key)
        if table is None:
            table = candidate_table(candidate_configs(v, c), self.gpu)
            self._tables.put(key, table)
        return table

    def tune(self, problem: GemmProblem) -> TuningRecord:
        """Rank every candidate configuration for ``problem``."""
        if problem.v is None or problem.n is None or problem.m is None:
            raise ValueError("tuning requires a fully specified V:N:M problem")
        sig = self._signature(problem)
        record = self._cache.get(sig)
        if record is not None:
            return record
        record = TuningRecord(problem=problem)
        table = self._table(problem.v, problem.c)
        # A row the scalar model would reject is not priced: the table holds
        # no block that fits no SM, and R % V rejects every row.
        if table.configs and problem.r % problem.v == 0:
            times = estimate_times(problem, table, self.gpu)
            order = np.argsort(times, kind="stable")
            configs = [table.configs[i] for i in order.tolist()]
            record.results = list(zip(configs, times[order].tolist()))
        else:
            try:
                fallback = default_config(problem.v)
                result = estimate_time(problem, config=fallback, gpu=self.gpu)
            except ValueError as exc:
                # Every candidate failed and so did the default: this problem
                # has no launchable tiling at all.  Surface that as the one
                # *typed* expected failure so callers (the dispatcher's padded
                # proxy path) can distinguish it from genuine model bugs.
                raise UnsupportedTilingError(
                    f"no launchable template instantiation for V={problem.v} "
                    f"on R={problem.r} ({exc})"
                ) from exc
            record.results.append((fallback, result.time_us))
        self._cache.put(sig, record)
        return record

    def best_config(self, problem: GemmProblem) -> KernelConfig:
        """Shortcut: the fastest configuration for ``problem``."""
        return self.tune(problem).best_config

    def best_result(self, problem: GemmProblem) -> KernelResult:
        """The kernel result of the fastest configuration."""
        record = self.tune(problem)
        return estimate_time(problem, config=record.best_config, gpu=self.gpu)

    def cache_size(self) -> int:
        """Number of distinct problems tuned so far."""
        return len(self._cache)

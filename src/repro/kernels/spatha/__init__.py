"""Spatha: the paper's high-performance V:N:M SpMM library (Section 4)."""

from .config import KernelConfig, UnsupportedTilingError, candidate_configs, default_config
from .library import Spatha
from .perf_model import SPATHA_COMPUTE_EFFICIENCY, estimate_time, speedup_vs_dense, theoretical_speedup_cap
from .plan import SpmmPlan
from .spmm import spmm, spmm_dense_baseline, spmm_loop_reference, spmm_reference
from .stages import StageBreakdown, compute_stage_breakdown
from .tiles import TileCounts, compute_tile_counts, condensed_k
from .tuner import SpathaTuner, TuningRecord

__all__ = [
    "KernelConfig",
    "candidate_configs",
    "default_config",
    "Spatha",
    "SPATHA_COMPUTE_EFFICIENCY",
    "estimate_time",
    "speedup_vs_dense",
    "theoretical_speedup_cap",
    "SpmmPlan",
    "spmm",
    "spmm_dense_baseline",
    "spmm_loop_reference",
    "spmm_reference",
    "StageBreakdown",
    "compute_stage_breakdown",
    "TileCounts",
    "UnsupportedTilingError",
    "compute_tile_counts",
    "condensed_k",
    "SpathaTuner",
    "TuningRecord",
]

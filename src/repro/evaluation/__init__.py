"""Experiment harness: one entry point per paper figure/table + reporting."""

from .figures import (
    FIGURE13_PATTERNS,
    FIGURE15_MODELS,
    Table2Result,
    figure9_columnloc_ablation,
    figure10_v_scaling,
    figure11_energy,
    figure12_baseline_24,
    figure13_library_comparison,
    figure15_end_to_end,
    table1_mma_shapes,
    table2_second_order_f1,
)
from .reporting import (
    crossover_index,
    dominates,
    format_table,
    is_monotonic_decreasing,
    is_monotonic_increasing,
    within_factor,
)
from .sweeps import SweepPoint, dense_baseline, library_point, spatha_point

__all__ = [
    "FIGURE13_PATTERNS",
    "FIGURE15_MODELS",
    "Table2Result",
    "figure9_columnloc_ablation",
    "figure10_v_scaling",
    "figure11_energy",
    "figure12_baseline_24",
    "figure13_library_comparison",
    "figure15_end_to_end",
    "table1_mma_shapes",
    "table2_second_order_f1",
    "crossover_index",
    "dominates",
    "format_table",
    "is_monotonic_decreasing",
    "is_monotonic_increasing",
    "within_factor",
    "SweepPoint",
    "dense_baseline",
    "library_point",
    "spatha_point",
]

"""Result formatting for the experiment harness.

Every benchmark regenerates a figure or table of the paper; this module
renders those results as aligned text tables (what the benchmark harness
prints) and provides the qualitative shape checks (monotonicity, ordering,
crossover) that the benchmarks assert — the reproduction's stand-in for
"does the plot look like the paper's plot".
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

Number = Union[int, float]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render an aligned text table (markdown-ish, monospace friendly)."""
    headers = [str(h) for h in headers]
    str_rows = [[_format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("every row must have as many cells as there are headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


# ----------------------------------------------------------------------
# Qualitative shape checks (what the benchmarks assert)
# ----------------------------------------------------------------------

def is_monotonic_increasing(values: Sequence[Number], tolerance: float = 0.0) -> bool:
    """True when the sequence never decreases by more than ``tolerance``."""
    values = list(values)
    return all(values[i + 1] >= values[i] - tolerance for i in range(len(values) - 1))


def is_monotonic_decreasing(values: Sequence[Number], tolerance: float = 0.0) -> bool:
    """True when the sequence never increases by more than ``tolerance``."""
    values = list(values)
    return all(values[i + 1] <= values[i] + tolerance for i in range(len(values) - 1))


def dominates(upper: Sequence[Number], lower: Sequence[Number], tolerance: float = 0.0) -> bool:
    """True when ``upper[i] >= lower[i] - tolerance`` for every index."""
    upper = list(upper)
    lower = list(lower)
    if len(upper) != len(lower):
        raise ValueError("series must have the same length")
    return all(u >= l - tolerance for u, l in zip(upper, lower))


def crossover_index(series: Sequence[Number], threshold: float = 1.0) -> Optional[int]:
    """Index of the first element exceeding ``threshold`` (None if never).

    Used to check statements like "library X only outperforms cuBLAS above
    90% sparsity": the crossover of its speedup series over 1.0 must land at
    or beyond the 90% entry.
    """
    for i, value in enumerate(series):
        if value > threshold:
            return i
    return None


def within_factor(measured: float, reference: float, factor: float) -> bool:
    """True when ``measured`` is within ``[reference/factor, reference*factor]``."""
    if reference <= 0 or measured <= 0 or factor < 1.0:
        raise ValueError("measured/reference must be positive and factor >= 1")
    return reference / factor <= measured <= reference * factor

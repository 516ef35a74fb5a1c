"""Tile decomposition of the Spatha SpMM (Figures 5 and 6).

The kernel decomposes an ``R x K x C`` problem into three nested levels:

* **thread-block tiles** of ``BSr x BSc`` output elements; ``BSr = V`` so
  every block consumes one row of ``column_loc`` entries per M-group;
* **warp tiles** of ``WSr x WSc`` output elements inside each block;
* **instruction tiles** of ``MMA_r x MMA_c`` output elements, each covering
  ``MMA_k`` condensed columns per ``mma.sp`` issue.

This module computes the tiling arithmetic (grid size, warps per block,
instruction counts, k-step counts) used by the performance model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .config import KernelConfig, UnsupportedTilingError
from ...formats.vnm import SELECTED_COLUMNS


@dataclass(frozen=True)
class TileCounts:
    """Static tiling statistics of one kernel launch."""

    #: Thread-block grid dimensions (row blocks, column blocks).
    grid_rows: int
    grid_cols: int
    #: Number of k-steps each block iterates over (condensed space).
    k_steps: int
    #: Warps per thread block.
    warps_per_block: int
    #: ``mma.sp`` instructions issued per warp per k-step.
    mma_per_warp_per_kstep: int
    #: Total ``mma.sp`` instructions of the whole launch.
    total_mma_instructions: int

    @property
    def total_blocks(self) -> int:
        """Total thread blocks of the launch."""
        return self.grid_rows * self.grid_cols

    @property
    def total_warps(self) -> int:
        """Total warps of the launch."""
        return self.total_blocks * self.warps_per_block


def condensed_k(k: int, m: int, pad: bool = True) -> int:
    """Width of the selected-column space: four condensed columns per M-group.

    With ``pad=True`` (the performance-model path) K values that are not a
    multiple of M are rounded up to the next full group — the real library
    zero-pads the operand the same way.  ``pad=False`` enforces exact
    divisibility (the functional path, where padding must be explicit).
    """
    if k % m:
        if not pad:
            raise ValueError(f"K ({k}) must be divisible by M ({m})")
        return math.ceil(k / m) * SELECTED_COLUMNS
    return (k // m) * SELECTED_COLUMNS


def compute_tile_counts(r: int, k: int, c: int, m: int, config: KernelConfig) -> TileCounts:
    """Tiling statistics for an ``R x K x C`` problem with inner pattern N:M."""
    if r % config.bs_r:
        raise UnsupportedTilingError(
            f"R ({r}) must be divisible by BSr=V ({config.bs_r}); pad the operand first"
        )
    kc = condensed_k(k, m)
    grid_rows = r // config.bs_r
    grid_cols = math.ceil(c / config.bs_c)
    k_steps = math.ceil(kc / config.bs_k)
    warps = config.warps_per_block
    mma_rows = config.ws_r // config.mma.m
    mma_cols = config.ws_c // config.mma.n
    mma_k = config.bs_k // config.mma.k if config.bs_k >= config.mma.k else 1
    mma_per_warp_per_kstep = mma_rows * mma_cols * mma_k
    total_mma = grid_rows * grid_cols * k_steps * warps * mma_per_warp_per_kstep
    return TileCounts(
        grid_rows=grid_rows,
        grid_cols=grid_cols,
        k_steps=k_steps,
        warps_per_block=warps,
        mma_per_warp_per_kstep=mma_per_warp_per_kstep,
        total_mma_instructions=total_mma,
    )

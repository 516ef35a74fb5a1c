"""Tile decomposition of the Spatha SpMM (Figures 5 and 6).

The kernel decomposes an ``R x K x C`` problem into three nested levels:

* **thread-block tiles** of ``BSr x BSc`` output elements; ``BSr = V`` so
  every block consumes one row of ``column_loc`` entries per M-group;
* **warp tiles** of ``WSr x WSc`` output elements inside each block;
* **instruction tiles** of ``MMA_r x MMA_c`` output elements, each covering
  ``MMA_k`` condensed columns per ``mma.sp`` issue.

This module computes the tiling arithmetic (grid size, warps per block,
instruction counts, k-step counts) used by the performance model, and
provides :func:`iterate_output_tiles` / :func:`simulate_tiled_spmm`, a
functional execution that walks the exact tile hierarchy — used by the
tests to show the decomposition covers every output element exactly once
and reproduces the reference result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from .config import KernelConfig, UnsupportedTilingError
from ...formats.base import quantize_fp16
from ...formats.vnm import SELECTED_COLUMNS, VNMSparseMatrix


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


def iterate_output_tiles(r: int, c: int, config: KernelConfig) -> Iterator[Tuple[slice, slice]]:
    """Yield the (row-slice, col-slice) of every thread-block output tile."""
    if r % config.bs_r:
        raise ValueError(f"R ({r}) must be divisible by BSr ({config.bs_r})")
    for br in range(0, r, config.bs_r):
        for bc in range(0, c, config.bs_c):
            yield slice(br, br + config.bs_r), slice(bc, min(bc + config.bs_c, c))


def iterate_warp_tiles(block_rows: slice, block_cols: slice, config: KernelConfig) -> Iterator[Tuple[slice, slice]]:
    """Yield the (row-slice, col-slice) of every warp tile inside a block tile."""
    r0, r1 = block_rows.start, block_rows.stop
    c0, c1 = block_cols.start, block_cols.stop
    for wr in range(r0, r1, config.ws_r):
        for wc in range(c0, c1, config.ws_c):
            yield slice(wr, min(wr + config.ws_r, r1)), slice(wc, min(wc + config.ws_c, c1))


def simulate_tiled_spmm(a: VNMSparseMatrix, b: np.ndarray, config: KernelConfig) -> np.ndarray:
    """Execute the SpMM by walking the exact tile hierarchy of the kernel.

    For each thread-block tile the condensed A operand and the column-loc
    selected B rows are gathered (stage 1), warp tiles accumulate their
    partial products over k-steps of ``bs_k`` condensed columns (stage 2),
    and the block writes its output tile (stage 3).  Numerically equivalent
    to the fast path in :mod:`repro.kernels.spatha.spmm`; intended for
    validation on small problems, not for speed.
    """
    b = np.asarray(b, dtype=np.float32)
    r, k = a.shape
    if b.shape[0] != k:
        raise ValueError(f"B must have shape ({k}, C), got {b.shape}")
    if config.bs_r != a.v:
        raise ValueError(f"BSr ({config.bs_r}) must equal the format's V ({a.v})")
    c = b.shape[1]
    out = np.zeros((r, c), dtype=np.float32)

    cond = a.to_condensed()  # (R, K/M*4), fp32
    cond = quantize_fp16(cond)
    sel_cols = a.selected_column_indices()  # (R/V, K/M*4) absolute B rows
    b16 = quantize_fp16(b)
    kc = cond.shape[1]

    for rows, cols in iterate_output_tiles(r, c, config):
        row_block = rows.start // a.v
        b_sel = b16[sel_cols[row_block], cols]  # (K/M*4, tile_c) stage-1 gather
        a_tile = cond[rows]  # (BSr, K/M*4)
        for wrows, wcols in iterate_warp_tiles(rows, cols, config):
            acc = np.zeros((wrows.stop - wrows.start, wcols.stop - wcols.start), dtype=np.float32)
            for k0 in range(0, kc, config.bs_k):
                k1 = min(k0 + config.bs_k, kc)
                a_frag = a_tile[wrows.start - rows.start : wrows.stop - rows.start, k0:k1]
                b_frag = b_sel[k0:k1, wcols.start - cols.start : wcols.stop - cols.start]
                acc += a_frag @ b_frag
            out[wrows, wcols] = acc
    return out

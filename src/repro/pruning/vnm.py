"""V:N:M magnitude pruning (Figure 2, scheme 4).

The V:N:M pruning procedure combines block-wise partitioning, vector-wise
column selection and row-wise N:M pruning:

1. partition the matrix into blocks of ``V x M`` elements;
2. in each block, keep the four columns with the largest saliency
   (vector-wise stage) — the remaining ``M - 4`` columns are fully pruned;
3. in each row of the four surviving columns, keep the ``N`` largest
   magnitudes (N:4 stage).

Ties and NaN follow the rule stated once in :mod:`repro.formats.vnm`, whose
:func:`~repro.formats.vnm.vnm_select` both this pruner and the compressor use.
A float32 weight is pruned in float32 (other dtypes widen to float64): the
selection only compares magnitudes and sums block masses in float64, so the
mask is the one its exact float64 copy would get, without making that copy.

The result is a mask that simultaneously realises an arbitrary N:M sparsity
ratio *and* maps onto the hardware's 2:4 support, which is the format-level
contribution of the paper.  The functions here implement the magnitude
variant; the second-order variant (Section 6) lives in
:mod:`repro.pruning.second_order`.
"""

from __future__ import annotations

import numpy as np

from .masks import PruningResult, apply_mask, magnitude_weight_matrix
from ..formats.vnm import scatter_columns, validate_vnm_shape, vnm_select


def vnm_mask(weights: np.ndarray, v: int, n: int = 2, m: int = 8, norm: str = "l1") -> np.ndarray:
    """Keep-mask of V:N:M magnitude pruning.

    Exactly ``n`` weights survive per row per ``m``-column group, and the
    survivors of each ``V x M`` block are confined to four columns.  The
    survivors are :func:`repro.formats.vnm.vnm_select`'s (its module
    docstring states the tie rule), scattered back to the full shape.
    """
    w = magnitude_weight_matrix(weights)
    rows, cols = w.shape
    validate_vnm_shape(rows, cols, v, n, m)
    selection = vnm_select(w, v, n, m, norm)
    return scatter_columns(selection.keep, selection.columns, cols)


def vnm_prune(weights: np.ndarray, v: int, n: int = 2, m: int = 8, norm: str = "l1") -> PruningResult:
    """Apply V:N:M magnitude pruning and return the result."""
    mask = vnm_mask(weights, v=v, n=n, m=m, norm=norm)
    return PruningResult(
        mask=mask,
        pruned_weights=apply_mask(weights, mask),
        target_sparsity=1.0 - n / m,
    )


def vnm_sparsity(n: int, m: int) -> float:
    """Logical sparsity of an N:M pattern (independent of V)."""
    if n <= 0 or m <= 0 or n > m:
        raise ValueError(f"invalid N:M pattern {n}:{m}")
    return 1.0 - n / m


def pad_to_vnm_shape(weights: np.ndarray, v: int, m: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Zero-pad a matrix so its shape is divisible by (V, M).

    Real model layers do not always have dimensions divisible by the block
    shape (e.g. GPT-2's 1600-wide layers with M=48).  Returns the padded
    matrix (float32 when ``weights`` is, else float64) and the original
    shape so callers can crop results back.
    """
    w = magnitude_weight_matrix(weights)
    rows, cols = w.shape
    pad_r = (-rows) % v
    pad_c = (-cols) % m
    if pad_r == 0 and pad_c == 0:
        return w, (rows, cols)
    padded = np.zeros((rows + pad_r, cols + pad_c), dtype=w.dtype)
    padded[:rows, :cols] = w
    return padded, (rows, cols)

"""Mask utilities shared by all pruning strategies.

Every pruner in this subpackage produces a boolean *keep mask* of the same
shape as the weight matrix (``True`` = weight survives).  This module
collects the small helpers around those masks: applying them, measuring
achieved sparsity and summarising the result of a pruning run.  A mask's
N:M / V:N:M structure is checked by the formats' own rules
(:func:`~repro.formats.nm.check_nm_pattern`,
:func:`~repro.formats.vnm.check_vnm_pattern`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


def _checked_weights(weights: np.ndarray) -> np.ndarray:
    """``weights`` as an array, once it is known to be a non-empty 2-D real
    matrix."""
    arr = np.asarray(weights)
    if arr.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("weights must be non-empty")
    if not np.issubdtype(arr.dtype, np.number) or np.iscomplexobj(arr):
        raise TypeError("weights must be real-valued numeric")
    return arr


def validate_weight_matrix(weights: np.ndarray) -> np.ndarray:
    """Canonicalise a weight matrix to a 2-D float64 array.

    Pruning math (especially the second-order saliency scores) is done in
    float64 for numerical robustness; the resulting masks are dtype-free.
    Magnitude V:N:M pruning, whose arithmetic is exact under widening, takes
    :func:`magnitude_weight_matrix` instead.
    """
    return np.ascontiguousarray(_checked_weights(weights), dtype=np.float64)


def magnitude_weight_matrix(weights: np.ndarray) -> np.ndarray:
    """:func:`validate_weight_matrix`, except that a float32 matrix stays
    float32 (C-contiguous, shared when it already is).

    Magnitude ranking reads ``|w|`` through comparisons and float64 sums
    only (:mod:`repro.formats.vnm`), and widening float32 to float64 is
    exact, so a float32 weight ranks exactly as its float64 copy would,
    without the copy.
    """
    arr = _checked_weights(weights)
    if arr.dtype == np.float32:
        return np.ascontiguousarray(arr)
    return np.ascontiguousarray(arr, dtype=np.float64)


def apply_mask(weights: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero out the weights where ``mask`` is False; returns a new array."""
    w = np.asarray(weights)
    m = np.asarray(mask, dtype=bool)
    if w.shape != m.shape:
        raise ValueError(f"mask shape {m.shape} does not match weights shape {w.shape}")
    return np.where(m, w, 0.0).astype(w.dtype, copy=False)


def mask_sparsity(mask: np.ndarray) -> float:
    """Fraction of pruned (False) entries in a keep mask."""
    m = np.asarray(mask, dtype=bool)
    if m.size == 0:
        raise ValueError("mask must be non-empty")
    return 1.0 - float(np.count_nonzero(m)) / m.size


def mask_density(mask: np.ndarray) -> float:
    """Fraction of kept (True) entries in a keep mask."""
    return 1.0 - mask_sparsity(mask)


@dataclass(frozen=True)
class PruningResult:
    """Outcome of one pruning call.

    Attributes
    ----------
    mask:
        Boolean keep mask.
    pruned_weights:
        Weights with the mask applied (same dtype as the input).
    target_sparsity:
        Sparsity the caller asked for (``None`` for purely structural
        patterns such as N:M, where sparsity is implied by the pattern).
    """

    mask: np.ndarray
    pruned_weights: np.ndarray
    target_sparsity: Optional[float] = None

    @property
    def sparsity(self) -> float:
        """Achieved sparsity of the mask."""
        return mask_sparsity(self.mask)

    @property
    def density(self) -> float:
        """Achieved density of the mask."""
        return mask_density(self.mask)

    @property
    def kept(self) -> int:
        """Number of surviving weights."""
        return int(np.count_nonzero(self.mask))

    @property
    def pruned(self) -> int:
        """Number of removed weights."""
        return int(self.mask.size - self.kept)

    def energy(self, original_weights: np.ndarray) -> float:
        """Energy metric of this result relative to the original weights.

        Delegates to :func:`repro.pruning.energy.energy_metric`; provided
        here for convenience because nearly every experiment reports it.
        """
        from .energy import energy_metric

        return energy_metric(original_weights, self.mask)

"""Unstructured magnitude pruning.

Magnitude pruning removes the weights with the smallest absolute values.
The unstructured variant imposes no constraint on where the survivors live
and therefore serves as the "ideal" selection policy in the paper's energy
study (Figure 11): any structured format can at best match its retained
energy at a given sparsity.
"""

from __future__ import annotations

import numpy as np

from .masks import validate_weight_matrix


def magnitude_mask(weights: np.ndarray, sparsity: float) -> np.ndarray:
    """Keep-mask of unstructured magnitude pruning at ``sparsity``.

    Exactly ``round(sparsity * size)`` weights are removed — the ones with
    the smallest magnitudes (ties broken by flat index order, so the result
    is deterministic).
    """
    w = validate_weight_matrix(weights)
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    n_prune = int(round(sparsity * w.size))
    if n_prune == 0:
        return np.ones(w.shape, dtype=bool)
    if n_prune >= w.size:
        return np.zeros(w.shape, dtype=bool)
    flat = np.abs(w).ravel()
    # argpartition gives the n_prune smallest magnitudes in O(n).
    prune_idx = np.argpartition(flat, n_prune - 1)[:n_prune]
    mask = np.ones(w.size, dtype=bool)
    mask[prune_idx] = False
    return mask.reshape(w.shape)

"""Row-wise N:M magnitude pruning.

The plain N:M scheme (Figure 2, scheme 3) keeps the ``N`` largest-magnitude
weights out of every group of ``M`` consecutive weights within a row.  For
2:4 this is the policy NVIDIA recommends for Sparse Tensor Cores; the paper
uses the generalised 1:N:M (``V = 1``) variant as one of the comparison
points in the energy study and in Table 2.
"""

from __future__ import annotations

import numpy as np

from .masks import validate_weight_matrix


def nm_mask(weights: np.ndarray, n: int = 2, m: int = 4) -> np.ndarray:
    """Keep-mask of row-wise N:M magnitude pruning.

    Exactly ``n`` entries survive in every group of ``m`` consecutive
    columns (ties broken toward the lower column index).
    """
    w = validate_weight_matrix(weights)
    rows, cols = w.shape
    if n <= 0 or m <= 0 or n > m:
        raise ValueError(f"invalid N:M pattern {n}:{m}")
    if cols % m != 0:
        raise ValueError(f"columns ({cols}) must be divisible by M ({m})")
    groups = np.abs(w).reshape(rows, cols // m, m)
    order = np.argsort(-groups, axis=2, kind="stable")
    keep_pos = order[:, :, :n]
    mask = np.zeros_like(groups, dtype=bool)
    np.put_along_axis(mask, keep_pos, True, axis=2)
    return mask.reshape(rows, cols)


def nm_pattern_for_sparsity(sparsity: float, n: int = 2, max_m: int = 256) -> tuple[int, int]:
    """Find the (N, M) pair with the given ``n`` closest to a target sparsity.

    The paper parameterises sparsity as ``1 - N/M`` with ``N`` fixed to 2
    (e.g. 80% -> 2:10, 90% -> 2:20, 95% -> 2:40, 98% -> 2:100); this helper
    inverts that mapping.
    """
    if not 0.0 < sparsity < 1.0:
        raise ValueError("sparsity must be strictly between 0 and 1")
    if n <= 0:
        raise ValueError("n must be positive")
    ideal_m = n / (1.0 - sparsity)
    best_m = min(
        range(max(n, 2), max_m + 1),
        key=lambda m: abs((1.0 - n / m) - sparsity),
    )
    # Prefer the exact match when the ideal M is an integer.
    if abs(ideal_m - round(ideal_m)) < 1e-9 and n <= round(ideal_m) <= max_m:
        best_m = int(round(ideal_m))
    return n, best_m

"""The energy evaluation metric of Section 5.

The *energy* of a pruning mask measures how much of the total weight
magnitude survives pruning:

``energy = sum_i |w_i|  (over kept weights)  /  sum_i |w*_i|  (all weights)``

It lies in [0, 1]; higher is better.  Unstructured magnitude pruning is, by
construction, the optimal ("ideal") selection policy for this metric at any
sparsity, so it upper-bounds every structured format.  Figure 11 compares
the ideal policy, the V:N:M format for several ``V`` values and vector-wise
pruning for several vector lengths on a BERT-base weight tensor; this
module provides the metric and the sweep used to regenerate that figure.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from .magnitude import magnitude_mask
from .masks import validate_weight_matrix
from .nm import nm_mask, nm_pattern_for_sparsity
from .vector_wise import vector_wise_mask
from .vnm import vnm_mask


def energy_metric(weights: np.ndarray, mask: np.ndarray) -> float:
    """Retained-magnitude fraction of ``mask`` on ``weights`` (0..1)."""
    w = validate_weight_matrix(weights)
    m = np.asarray(mask, dtype=bool)
    if m.shape != w.shape:
        raise ValueError(f"mask shape {m.shape} does not match weights shape {w.shape}")
    total = np.abs(w).sum()
    if total == 0:
        raise ValueError("weight matrix has zero total magnitude")
    return float(np.abs(w[m]).sum() / total)


def ideal_energy(weights: np.ndarray, sparsity: float) -> float:
    """Energy of unstructured magnitude pruning (the upper bound)."""
    return energy_metric(weights, magnitude_mask(weights, sparsity))


def vnm_energy(weights: np.ndarray, v: int, n: int, m: int) -> float:
    """Energy of magnitude V:N:M pruning; ``v=1`` gives the plain N:M case.

    The paper labels the ``V = 1`` series "1:N:M", i.e. ordinary row-wise
    N:M pruning without the vector-wise stage.  Weight matrices whose shape
    is not divisible by (V, M) — e.g. the 768-wide BERT-base layer with
    M = 20 — are zero-padded for the mask search and the padding is cropped
    away before the energy is measured (zero padding carries no energy, so
    the metric is unaffected beyond the slightly smaller final group).
    """
    from .vnm import pad_to_vnm_shape

    w = validate_weight_matrix(weights)
    padded, (rows, cols) = pad_to_vnm_shape(w, v if v > 1 else 1, m)
    if v == 1:
        mask = nm_mask(padded, n=n, m=m)
    else:
        mask = vnm_mask(padded, v=v, n=n, m=m)
    return energy_metric(w, mask[:rows, :cols])


def vector_wise_energy(weights: np.ndarray, sparsity: float, l: int) -> float:
    """Energy of vector-wise pruning with vectors of length ``l``."""
    return energy_metric(weights, vector_wise_mask(weights, sparsity, l=l))


def energy_study(
    weights: np.ndarray,
    sparsities: Sequence[float] = (0.5, 0.6, 0.75, 0.8, 0.9, 0.95),
    v_values: Sequence[int] = (1, 16, 32, 64, 128),
    vw_lengths: Sequence[int] = (4, 8, 16, 32),
    n: int = 2,
) -> Dict[str, List[float]]:
    """Regenerate the data behind Figure 11.

    For each sparsity level the N:M pattern is chosen as the paper does
    (N fixed to 2, M derived from the sparsity: 50% -> 2:4, 60% -> 2:5,
    75% -> 2:8, 80% -> 2:10, 90% -> 2:20, 95% -> 2:40).

    Returns a mapping from series label (``"ideal"``, ``"1:N:M"``,
    ``"64:N:M"``, ``"vw_8"``, ...) to the list of energies, one per
    sparsity level.  Sparsity levels whose N:M block shape does not divide
    the matrix (or whose V does not divide the rows) raise ``ValueError``
    so silent shape mismatches cannot skew the study.
    """
    w = validate_weight_matrix(weights)
    results: Dict[str, List[float]] = {"ideal": []}
    for v in v_values:
        results[f"{v}:N:M"] = []
    for l in vw_lengths:
        results[f"vw_{l}"] = []

    for s in sparsities:
        _, m = nm_pattern_for_sparsity(s, n=n)
        results["ideal"].append(ideal_energy(w, s))
        for v in v_values:
            results[f"{v}:N:M"].append(vnm_energy(w, v=v, n=n, m=m))
        for l in vw_lengths:
            results[f"vw_{l}"].append(vector_wise_energy(w, s, l=l))
    return results

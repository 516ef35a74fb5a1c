"""Pruning algorithms.

Every selection policy the paper compares is implemented here:

* unstructured magnitude pruning (:mod:`~repro.pruning.magnitude`),
* vector-wise (column-vector) pruning (:mod:`~repro.pruning.vector_wise`),
* row-wise N:M magnitude pruning (:mod:`~repro.pruning.nm`),
* the paper's V:N:M two-stage magnitude pruning (:mod:`~repro.pruning.vnm`),
* the second-order (OBS/Fisher) pruner with the structure-decay scheduler
  (:mod:`~repro.pruning.second_order`), and
* the energy evaluation metric of Section 5 (:mod:`~repro.pruning.energy`).
"""

from .energy import (
    energy_metric,
    energy_study,
    ideal_energy,
    vector_wise_energy,
    vnm_energy,
)
from .magnitude import magnitude_mask
from .masks import (
    PruningResult,
    apply_mask,
    mask_density,
    mask_sparsity,
    validate_weight_matrix,
)
from .nm import nm_mask, nm_pattern_for_sparsity
from .vector_wise import vector_scores, vector_wise_mask
from .vnm import pad_to_vnm_shape, vnm_mask, vnm_prune, vnm_sparsity

__all__ = [
    "energy_metric",
    "energy_study",
    "ideal_energy",
    "vector_wise_energy",
    "vnm_energy",
    "magnitude_mask",
    "PruningResult",
    "apply_mask",
    "mask_density",
    "mask_sparsity",
    "validate_weight_matrix",
    "nm_mask",
    "nm_pattern_for_sparsity",
    "vector_scores",
    "vector_wise_mask",
    "pad_to_vnm_shape",
    "vnm_mask",
    "vnm_prune",
    "vnm_sparsity",
]

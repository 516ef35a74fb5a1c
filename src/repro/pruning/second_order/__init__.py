"""Second-order (OBS/Fisher) pruning for the V:N:M format (paper Section 6)."""

from .fisher import (
    BlockFisher,
    empirical_fisher_block,
    estimate_block_fisher,
    synthetic_gradients,
    woodbury_inverse,
)
from .obs_vnm import SecondOrderConfig, second_order_nm_prune, second_order_vnm_prune
from .proxy import DENSE_F1, FLOOR_F1, QuadraticTask, synthesize_trained_layer
from .saliency import (
    GroupPruneDecision,
    group_saliency,
    obs_weight_update,
    solve_group,
    solve_group_combinatorial,
    solve_group_pairwise,
)
from .scheduler import (
    GradualPruningRun,
    gradual_vnm_prune,
    one_shot_vnm_prune,
    structure_decay_schedule,
)

__all__ = [
    "BlockFisher",
    "empirical_fisher_block",
    "estimate_block_fisher",
    "synthetic_gradients",
    "woodbury_inverse",
    "SecondOrderConfig",
    "second_order_nm_prune",
    "second_order_vnm_prune",
    "DENSE_F1",
    "FLOOR_F1",
    "QuadraticTask",
    "synthesize_trained_layer",
    "GroupPruneDecision",
    "group_saliency",
    "obs_weight_update",
    "solve_group",
    "solve_group_combinatorial",
    "solve_group_pairwise",
    "GradualPruningRun",
    "gradual_vnm_prune",
    "one_shot_vnm_prune",
    "structure_decay_schedule",
]

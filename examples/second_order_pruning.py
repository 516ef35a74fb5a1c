#!/usr/bin/env python3
"""Second-order V:N:M pruning with the structure-decay scheduler (Section 6).

Demonstrates the accuracy-side contribution of the paper on the synthetic
fine-tuning surrogate (the README's "Reproduction ledger" describes the
SQuAD substitution):

* magnitude vs second-order (OBS) mask selection at the same V:N:M pattern,
* the effect of the OBS weight-compensation update,
* one-shot pruning vs the gradual structure-decay scheduler at high
  sparsity,
* the combinatorial vs pair-wise saliency solvers.

Run with::

    python examples/second_order_pruning.py
"""

from __future__ import annotations

import numpy as np

from repro.evaluation.reporting import format_table
from repro.pruning import apply_mask, vnm_mask
from repro.pruning.second_order import (
    QuadraticTask,
    SecondOrderConfig,
    gradual_vnm_prune,
    one_shot_vnm_prune,
    second_order_vnm_prune,
    structure_decay_schedule,
)


def main() -> None:
    # A synthetic "trained layer" plus per-sample gradients define the
    # quadratic surrogate task whose F1 score stands in for SQuAD.
    task = QuadraticTask.create(rows=128, cols=256, num_grad_samples=48, seed=0)
    weights, grads = task.weights, task.grads
    v, n, m = 64, 2, 16  # 87.5% sparsity, the hardest row of the paper's Table 2

    print(f"dense surrogate F1: {task.f1_score(weights):.2f}")
    print(f"target pattern    : {v}:{n}:{m}  (sparsity {1 - n / m:.3f})")
    print()

    rows = []

    # 1. Magnitude V:N:M pruning (no curvature information).
    magnitude = apply_mask(weights, vnm_mask(weights, v=v, n=n, m=m))
    rows.append(["magnitude V:N:M", round(task.f1_score(magnitude), 2)])

    # 2. Second-order selection without the OBS compensation update.
    no_update = second_order_vnm_prune(
        weights, v=v, n=n, m=m, grads=grads, config=SecondOrderConfig(apply_update=False)
    )
    rows.append(["second-order, no weight update", round(task.f1_of_result(no_update), 2)])

    # 3. Full second-order pruning (selection + OBS update), one shot.
    one_shot = one_shot_vnm_prune(weights, v=v, n_target=n, m=m, grads=grads)
    rows.append(["second-order, one-shot", round(task.f1_of_result(one_shot), 2)])

    # 4. Structure-decay gradual pruning with surrogate fine-tuning between
    #    steps (N decreases toward the target over several steps).
    schedule = structure_decay_schedule(n_target=n, m=m, steps=4)
    gradual = gradual_vnm_prune(
        weights,
        v=v,
        n_target=n,
        m=m,
        steps=4,
        grads=grads,
        recovery_fn=lambda w, step: task.recovery_step(w),
    )
    rows.append([f"second-order, structure decay {schedule}", round(task.f1_of_result(gradual.final), 2)])

    print(
        format_table(
            ["pruning policy", "surrogate F1"],
            rows,
            title=f"Second-order pruning at {v}:{n}:{m} (dense F1 = {task.f1_score(weights):.2f})",
        )
    )
    print()

    # Solver comparison: exact enumeration vs the paper's pair-wise relaxation.
    exact_cfg = SecondOrderConfig(method="combinatorial")
    pairwise_cfg = SecondOrderConfig(method="pairwise")
    exact = second_order_vnm_prune(weights, v=v, n=n, m=m, grads=grads, config=exact_cfg)
    pairwise = second_order_vnm_prune(weights, v=v, n=n, m=m, grads=grads, config=pairwise_cfg)
    print("saliency solver comparison (same Fisher, same pattern):")
    print(f"  m-combinatorial solver F1 : {task.f1_of_result(exact):.2f}")
    print(f"  pair-wise solver F1       : {task.f1_of_result(pairwise):.2f}")
    agreement = float(np.mean(exact.mask == pairwise.mask))
    print(f"  mask agreement            : {agreement:.3f}")


if __name__ == "__main__":
    main()

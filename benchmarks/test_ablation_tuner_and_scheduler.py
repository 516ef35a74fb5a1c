"""Ablations beyond the paper's figures.

The last row of the README's "Reproduction ledger":

* Template auto-tuning: how much the tuned configuration gains over the
  default instantiation across problem shapes (the reason Spatha is
  template-based).
* Structure-decay scheduler: gradual second-order pruning vs one-shot
  pruning at the same final sparsity (Section 6.1.1's motivation).
* Pair-wise vs combinatorial saliency solver: the scalable relaxation must
  stay close to the exact enumeration.
"""

import numpy as np
import pytest

from repro.evaluation.reporting import format_table
from repro.kernels.common import GemmProblem
from repro.kernels.spatha import SpathaTuner
from repro.kernels.spatha.config import default_config
from repro.kernels.spatha.perf_model import estimate_time
from repro.pruning.second_order.proxy import QuadraticTask
from repro.pruning.second_order.saliency import solve_group_combinatorial, solve_group_pairwise
from repro.pruning.second_order.scheduler import gradual_vnm_prune, one_shot_vnm_prune


def test_ablation_template_tuning(run_once):
    """Tuning gains are largest for small/awkward GEMMs, small for big ones."""
    problems = [
        GemmProblem.from_nm(1024, 768, 1024, 2, 8, v=128, name="small"),
        GemmProblem.from_nm(1024, 4096, 4096, 2, 8, v=128, name="medium"),
        GemmProblem.from_nm(1024, 12288, 8192, 2, 8, v=128, name="large"),
    ]

    def run():
        tuner = SpathaTuner()
        rows = []
        for p in problems:
            default_time = estimate_time(p, config=default_config(p.v)).time_us
            record = tuner.tune(p)
            rows.append(
                {
                    "name": p.name,
                    "default_us": default_time,
                    "tuned_us": record.best_time_us,
                    "gain": default_time / record.best_time_us,
                    "search_space": len(record.results),
                    "best": record.best_config.describe(),
                }
            )
        return rows

    rows = run_once(run)
    print()
    print(
        format_table(
            ["problem", "default us", "tuned us", "gain", "candidates", "best config"],
            [[r["name"], round(r["default_us"], 1), round(r["tuned_us"], 1), round(r["gain"], 2),
              r["search_space"], r["best"]] for r in rows],
            title="Ablation: template auto-tuning vs default configuration",
        )
    )

    for r in rows:
        assert r["gain"] >= 1.0
        assert r["search_space"] >= 10
    # Tuning matters somewhere in the sweep (>= 5% on at least one shape).
    assert max(r["gain"] for r in rows) > 1.05


def test_ablation_structure_decay_scheduler(run_once):
    """Gradual (structure-decay) pruning beats or matches one-shot pruning."""

    def run():
        task = QuadraticTask.create(rows=64, cols=128, num_grad_samples=32, seed=3)
        one_shot = one_shot_vnm_prune(task.weights, v=32, n_target=1, m=8, grads=task.grads)
        gradual = gradual_vnm_prune(
            task.weights,
            v=32,
            n_target=1,
            m=8,
            steps=3,
            grads=task.grads,
            recovery_fn=lambda w, step: task.recovery_step(w),
        )
        return {
            "dense_f1": task.f1_score(task.weights),
            "one_shot_f1": task.f1_of_result(one_shot),
            "gradual_f1": task.f1_of_result(gradual.final),
            "schedule": gradual.schedule,
            "sparsity": gradual.final.sparsity,
        }

    result = run_once(run)
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["dense F1", round(result["dense_f1"], 2)],
                ["one-shot 32:1:8 F1", round(result["one_shot_f1"], 2)],
                ["gradual 32:1:8 F1", round(result["gradual_f1"], 2)],
                ["N schedule", str(result["schedule"])],
                ["final sparsity", round(result["sparsity"], 3)],
            ],
            title="Ablation: structure-decay scheduler vs one-shot second-order pruning (87.5% sparsity)",
        )
    )

    assert result["sparsity"] == pytest.approx(1 - 1 / 8)
    assert result["schedule"][-1] == 1 and result["schedule"][0] > 1
    assert result["gradual_f1"] >= result["one_shot_f1"] - 0.25
    assert result["gradual_f1"] <= result["dense_f1"] + 0.5


def test_ablation_pairwise_vs_combinatorial_solver(run_once):
    """The pair-wise relaxation stays close to the exact enumeration."""

    def run():
        rng = np.random.default_rng(7)
        ratios = []
        for _ in range(50):
            grads = rng.normal(size=(24, 8))
            f_inv = np.linalg.inv(grads.T @ grads / 24 + 1e-3 * np.eye(8))
            w = rng.normal(size=8)
            exact = solve_group_combinatorial(w, f_inv, keep=2)
            greedy = solve_group_pairwise(w, f_inv, keep=2)
            ratios.append(greedy.saliency / max(exact.saliency, 1e-18))
        return np.asarray(ratios)

    ratios = run_once(run)
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["groups evaluated", len(ratios)],
                ["exact optimum found (ratio == 1)", int(np.sum(ratios < 1.0 + 1e-9))],
                ["median saliency ratio", round(float(np.median(ratios)), 3)],
                ["worst saliency ratio", round(float(ratios.max()), 3)],
            ],
            title="Ablation: pair-wise solver vs exact m-combinatorial solver (2:8 groups)",
        )
    )

    assert np.median(ratios) < 1.6
    assert (ratios < 1.0 + 1e-9).mean() > 0.3
    assert ratios.max() < 6.0

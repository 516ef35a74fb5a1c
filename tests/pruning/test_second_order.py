"""Tests for the second-order V:N:M pruner, scheduler and proxy task."""

import numpy as np
import pytest

from repro.formats.nm import check_nm_pattern
from repro.formats.vnm import check_vnm_pattern
from repro.pruning.nm import nm_mask
from repro.pruning.masks import apply_mask
from repro.pruning.second_order.fisher import estimate_block_fisher, synthetic_gradients
from repro.pruning.second_order.obs_vnm import (
    SecondOrderConfig,
    second_order_nm_prune,
    second_order_vnm_prune,
)
from repro.pruning.second_order.proxy import DENSE_F1, FLOOR_F1, QuadraticTask, synthesize_trained_layer
from repro.pruning.second_order.scheduler import (
    gradual_vnm_prune,
    one_shot_vnm_prune,
    structure_decay_schedule,
)


@pytest.fixture(scope="module")
def layer():
    return synthesize_trained_layer(rows=16, cols=64, seed=1)


@pytest.fixture(scope="module")
def layer_grads(layer):
    return synthetic_gradients(layer, num_samples=24, seed=2)


class TestSecondOrderNM:
    def test_mask_obeys_pattern(self, layer, layer_grads):
        res = second_order_nm_prune(layer, n=2, m=8, grads=layer_grads)
        assert check_nm_pattern(res.mask, 2, 8)
        assert res.sparsity == pytest.approx(0.75)

    def test_weight_update_zeroes_pruned(self, layer, layer_grads):
        res = second_order_nm_prune(layer, n=2, m=8, grads=layer_grads)
        assert np.all(res.pruned_weights[~res.mask] == 0.0)

    def test_no_update_keeps_survivors_unchanged(self, layer, layer_grads):
        cfg = SecondOrderConfig(apply_update=False)
        res = second_order_nm_prune(layer, n=2, m=8, config=cfg, grads=layer_grads)
        assert np.allclose(res.pruned_weights[res.mask], np.asarray(layer, dtype=np.float64)[res.mask])

    def test_better_than_magnitude_under_quadratic_loss(self):
        """The OBS selection+update must not lose to plain magnitude N:M."""
        task = QuadraticTask.create(rows=16, cols=64, num_grad_samples=32, seed=5)
        res = second_order_nm_prune(task.weights, n=2, m=8, grads=task.grads)
        magnitude = apply_mask(task.weights, nm_mask(task.weights, 2, 8))
        assert task.loss_increase(res.pruned_weights) <= task.loss_increase(magnitude) * 1.05

    def test_invalid_pattern(self, layer, layer_grads):
        with pytest.raises(ValueError):
            second_order_nm_prune(layer, n=9, m=8, grads=layer_grads)

    def test_fisher_block_must_align(self, layer, layer_grads):
        cfg = SecondOrderConfig(fisher_block_size=6)
        with pytest.raises(ValueError):
            second_order_nm_prune(layer, n=2, m=8, config=cfg, grads=layer_grads)


class TestSecondOrderVNM:
    def test_mask_obeys_vnm_pattern(self, layer, layer_grads):
        res = second_order_vnm_prune(layer, v=8, n=2, m=8, grads=layer_grads)
        assert check_vnm_pattern(res.mask, v=8, n=2, m=8)
        assert res.sparsity == pytest.approx(0.75)

    def test_v1_falls_back_to_nm(self, layer, layer_grads):
        a = second_order_vnm_prune(layer, v=1, n=2, m=8, grads=layer_grads)
        b = second_order_nm_prune(layer, n=2, m=8, grads=layer_grads)
        assert np.array_equal(a.mask, b.mask)

    def test_larger_v_is_more_constrained(self):
        task = QuadraticTask.create(rows=32, cols=64, num_grad_samples=32, seed=7)
        small_v = second_order_vnm_prune(task.weights, v=8, n=2, m=16, grads=task.grads)
        large_v = second_order_vnm_prune(task.weights, v=32, n=2, m=16, grads=task.grads)
        assert task.loss_increase(small_v.pruned_weights) <= task.loss_increase(large_v.pruned_weights) + 1e-9

    def test_reuses_precomputed_fisher(self, layer, layer_grads):
        fisher = estimate_block_fisher(layer_grads, layer.shape, block_size=8)
        res = second_order_vnm_prune(layer, v=8, n=2, m=8, fisher=fisher)
        assert check_vnm_pattern(res.mask, v=8, n=2, m=8)


class TestStructureDecayScheduler:
    def test_schedule_ends_at_target(self):
        sched = structure_decay_schedule(n_target=2, m=16, steps=4)
        assert sched[-1] == 2
        assert all(b <= a for a, b in zip(sched, sched[1:]))

    def test_single_step(self):
        assert structure_decay_schedule(2, 16, 1) == [2]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            structure_decay_schedule(0, 16, 4)
        with pytest.raises(ValueError):
            structure_decay_schedule(2, 16, 0)
        with pytest.raises(ValueError):
            structure_decay_schedule(10, 16, 4, n_start=4)

    def test_gradual_run_reaches_target_sparsity(self, layer, layer_grads):
        run = gradual_vnm_prune(layer, v=8, n_target=2, m=8, steps=3, grads=layer_grads)
        assert run.final.sparsity == pytest.approx(0.75)
        assert check_vnm_pattern(run.final.mask, v=8, n=2, m=8)
        assert len(run.results) == len(run.schedule)

    def test_gradual_beats_or_matches_one_shot(self):
        task = QuadraticTask.create(rows=16, cols=64, num_grad_samples=32, seed=11)
        gradual = gradual_vnm_prune(
            task.weights, v=8, n_target=1, m=8, steps=3, grads=task.grads,
            recovery_fn=lambda w, step: task.recovery_step(w),
        )
        one_shot = one_shot_vnm_prune(task.weights, v=8, n_target=1, m=8, grads=task.grads)
        assert task.f1_of_result(gradual.final) >= task.f1_of_result(one_shot) - 0.5

    def test_empty_run_raises(self):
        from repro.pruning.second_order.scheduler import GradualPruningRun

        with pytest.raises(ValueError):
            GradualPruningRun().final


class TestQuadraticTask:
    def test_dense_scores_reference_f1(self):
        task = QuadraticTask.create(rows=8, cols=32, seed=0)
        assert task.f1_score(task.weights) >= DENSE_F1 - 0.01

    def test_f1_decreases_with_damage(self):
        task = QuadraticTask.create(rows=8, cols=32, seed=0)
        half = task.weights * np.where(np.arange(task.weights.size).reshape(task.weights.shape) % 2, 1.0, 0.0)
        zero = np.zeros_like(task.weights)
        assert task.f1_score(task.weights) >= task.f1_score(half) >= task.f1_score(zero)
        assert task.f1_score(zero) <= FLOOR_F1 + 15.0

    def test_loss_increase_zero_at_optimum(self):
        task = QuadraticTask.create(rows=8, cols=32, seed=0)
        assert task.loss_increase(task.weights) == pytest.approx(0.0)

    def test_recovery_moves_toward_optimum(self):
        task = QuadraticTask.create(rows=8, cols=32, seed=0)
        damaged = task.weights * 0.5
        recovered = task.recovery_step(damaged, lr=0.5)
        assert task.loss_increase(recovered) < task.loss_increase(damaged)

    def test_shape_checks(self):
        task = QuadraticTask.create(rows=8, cols=32, seed=0)
        with pytest.raises(ValueError):
            task.loss_increase(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            task.recovery_step(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            task.recovery_step(task.weights, lr=0.0)

    def test_synthesize_layer_outliers(self):
        layer = synthesize_trained_layer(rows=32, cols=128, seed=3, outlier_fraction=0.05, outlier_scale=8.0)
        col_norms = np.abs(layer).sum(axis=0)
        assert col_norms.max() > 4 * np.median(col_norms)
        with pytest.raises(ValueError):
            synthesize_trained_layer(rows=0, cols=8)

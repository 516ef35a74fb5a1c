"""Tests for the second-order group saliency solvers."""

import numpy as np
import pytest

from repro.pruning.second_order.saliency import (
    group_saliency,
    obs_weight_update,
    solve_group,
    solve_group_combinatorial,
    solve_group_pairwise,
)


@pytest.fixture
def diag_fisher_inv():
    """Diagonal inverse Fisher: saliency reduces to OBD (w^2 / 2 / diag)."""
    return np.diag([1.0, 0.5, 2.0, 1.0])


class TestGroupSaliency:
    def test_empty_set_zero(self, diag_fisher_inv):
        assert group_saliency(np.ones(4), diag_fisher_inv, []) == 0.0

    def test_diagonal_case_matches_obd(self, diag_fisher_inv):
        w = np.array([1.0, 2.0, 3.0, 4.0])
        # rho_{i} = 0.5 * w_i^2 / (F^-1)_ii
        assert group_saliency(w, diag_fisher_inv, [0]) == pytest.approx(0.5 * 1.0 / 1.0)
        assert group_saliency(w, diag_fisher_inv, [1]) == pytest.approx(0.5 * 4.0 / 0.5)
        assert group_saliency(w, diag_fisher_inv, [2]) == pytest.approx(0.5 * 9.0 / 2.0)

    def test_superadditive_for_diagonal(self, diag_fisher_inv):
        w = np.array([1.0, 2.0, 3.0, 4.0])
        joint = group_saliency(w, diag_fisher_inv, [0, 1])
        assert joint == pytest.approx(
            group_saliency(w, diag_fisher_inv, [0]) + group_saliency(w, diag_fisher_inv, [1])
        )

    def test_out_of_range_index(self, diag_fisher_inv):
        with pytest.raises(IndexError):
            group_saliency(np.ones(4), diag_fisher_inv, [7])

    def test_shape_check(self):
        with pytest.raises(ValueError):
            group_saliency(np.ones(4), np.eye(3), [0])


class TestObsWeightUpdate:
    def test_pruned_weights_exactly_zero(self, rng):
        w = rng.normal(size=6)
        grads = rng.normal(size=(20, 6))
        f_inv = np.linalg.inv(grads.T @ grads / 20 + 1e-3 * np.eye(6))
        delta = obs_weight_update(w, f_inv, [1, 4])
        updated = w + delta
        assert updated[1] == pytest.approx(0.0, abs=1e-12)
        assert updated[4] == pytest.approx(0.0, abs=1e-12)

    def test_survivors_move_with_correlations(self, rng):
        w = rng.normal(size=4)
        grads = rng.normal(size=(20, 4))
        f_inv = np.linalg.inv(grads.T @ grads / 20 + 1e-3 * np.eye(4))
        delta = obs_weight_update(w, f_inv, [0])
        # With a non-diagonal inverse Fisher the survivors compensate.
        assert np.any(np.abs(delta[1:]) > 1e-12)

    def test_empty_set_no_update(self):
        assert np.allclose(obs_weight_update(np.ones(3), np.eye(3), []), 0.0)


class TestSolvers:
    def test_combinatorial_picks_minimal_saliency(self, diag_fisher_inv):
        w = np.array([0.1, 5.0, 0.2, 4.0])
        decision = solve_group_combinatorial(w, diag_fisher_inv, keep=2)
        assert set(decision.pruned_local) == {0, 2}

    def test_pairwise_matches_combinatorial_on_diagonal_fisher(self, rng):
        """With a diagonal Fisher there are no interactions, so the greedy
        pair-wise solver must find the exact optimum."""
        diag = np.diag(rng.uniform(0.5, 2.0, size=8))
        w = rng.normal(size=8)
        exact = solve_group_combinatorial(w, diag, keep=2)
        greedy = solve_group_pairwise(w, diag, keep=2)
        assert set(greedy.pruned_local) == set(exact.pruned_local)

    def test_pairwise_close_to_exact_with_correlations(self, rng):
        grads = rng.normal(size=(32, 8))
        f_inv = np.linalg.inv(grads.T @ grads / 32 + 1e-2 * np.eye(8))
        w = rng.normal(size=8)
        exact = solve_group_combinatorial(w, f_inv, keep=2)
        greedy = solve_group_pairwise(w, f_inv, keep=2)
        # The relaxation may differ but must not be dramatically worse.
        assert greedy.saliency <= exact.saliency * 3.0 + 1e-9

    def test_keep_all_prunes_nothing(self, diag_fisher_inv):
        decision = solve_group_pairwise(np.ones(4), diag_fisher_inv, keep=4)
        assert decision.pruned_local == ()
        assert decision.saliency == 0.0

    def test_invalid_keep(self, diag_fisher_inv):
        with pytest.raises(ValueError):
            solve_group_combinatorial(np.ones(4), diag_fisher_inv, keep=0)
        with pytest.raises(ValueError):
            solve_group_pairwise(np.ones(4), diag_fisher_inv, keep=9)

    def test_auto_dispatch(self, rng):
        diag = np.diag(np.ones(4))
        small = solve_group(np.ones(4), diag, keep=2, method="auto", combinatorial_limit=8)
        assert len(small.pruned_local) == 2
        big_fisher = np.diag(np.ones(16))
        big = solve_group(rng.normal(size=16), big_fisher, keep=2, method="auto", combinatorial_limit=8)
        assert len(big.pruned_local) == 14

    def test_unknown_method(self, diag_fisher_inv):
        with pytest.raises(ValueError):
            solve_group(np.ones(4), diag_fisher_inv, keep=2, method="magic")

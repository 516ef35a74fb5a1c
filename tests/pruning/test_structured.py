"""Tests for vector-wise, N:M and V:N:M pruning."""

import numpy as np
import pytest

from repro.formats.nm import check_nm_pattern
from repro.formats.vnm import check_vnm_pattern, select_block_columns
from repro.pruning.masks import mask_sparsity
from repro.pruning.nm import nm_mask, nm_pattern_for_sparsity
from repro.pruning.vector_wise import vector_scores, vector_wise_mask
from repro.pruning.vnm import pad_to_vnm_shape, vnm_mask, vnm_prune, vnm_sparsity


class TestVectorWise:
    def test_whole_vectors_pruned(self, rng):
        w = rng.normal(size=(32, 16))
        mask = vector_wise_mask(w, 0.5, l=8)
        # Within every length-8 vertical vector, all entries share the same fate.
        vec = mask.reshape(4, 8, 16)
        assert np.all(vec.all(axis=1) | (~vec).all(axis=1))

    def test_target_sparsity_approximate(self, rng):
        w = rng.normal(size=(64, 32))
        mask = vector_wise_mask(w, 0.75, l=8)
        assert mask_sparsity(mask) == pytest.approx(0.75, abs=0.05)

    def test_lowest_saliency_vectors_removed(self):
        w = np.ones((8, 2))
        w[:4, 0] = 0.01  # the weakest vector
        mask = vector_wise_mask(w, 0.25, l=4)
        assert not mask[:4, 0].any()
        assert mask[:4, 1].all()

    def test_scores_shapes_and_norms(self, rng):
        w = rng.normal(size=(16, 8))
        l1 = vector_scores(w, 4, "l1")
        l2 = vector_scores(w, 4, "l2")
        assert l1.shape == (4, 8)
        assert np.all(l2 <= l1 + 1e-9)
        with pytest.raises(ValueError):
            vector_scores(w, 4, "linf")

    def test_rows_not_divisible(self, rng):
        with pytest.raises(ValueError):
            vector_wise_mask(rng.normal(size=(10, 4)), 0.5, l=4)

class TestNM:
    def test_exact_pattern(self, rng):
        w = rng.normal(size=(16, 32))
        mask = nm_mask(w, 2, 4)
        assert check_nm_pattern(mask, 2, 4)
        assert mask_sparsity(mask) == pytest.approx(0.5)

    def test_keeps_largest_magnitudes(self):
        w = np.array([[1.0, -4.0, 0.5, 3.0]])
        mask = nm_mask(w, 2, 4)
        assert list(mask[0]) == [False, True, False, True]

    def test_high_sparsity_patterns(self, rng):
        w = rng.normal(size=(8, 40))
        mask = nm_mask(w, 2, 10)
        assert check_nm_pattern(mask, 2, 10)
        assert mask_sparsity(mask) == pytest.approx(0.8)

    def test_invalid_pattern(self, rng):
        with pytest.raises(ValueError):
            nm_mask(rng.normal(size=(4, 8)), 5, 4)
        with pytest.raises(ValueError):
            nm_mask(rng.normal(size=(4, 9)), 2, 4)

    def test_pattern_for_sparsity(self):
        assert nm_pattern_for_sparsity(0.5) == (2, 4)
        assert nm_pattern_for_sparsity(0.8) == (2, 10)
        assert nm_pattern_for_sparsity(0.9) == (2, 20)
        assert nm_pattern_for_sparsity(0.95) == (2, 40)
        assert nm_pattern_for_sparsity(0.98) == (2, 100)

    def test_pattern_for_sparsity_invalid(self):
        with pytest.raises(ValueError):
            nm_pattern_for_sparsity(1.0)


class TestVNM:
    def test_pattern_constraints_hold(self, rng):
        w = rng.normal(size=(64, 64))
        mask = vnm_mask(w, v=16, n=2, m=16)
        assert check_vnm_pattern(mask, v=16, n=2, m=16)
        assert mask_sparsity(mask) == pytest.approx(1 - 2 / 16)

    def test_exactly_n_per_group_per_row(self, rng):
        w = rng.normal(size=(32, 32))
        mask = vnm_mask(w, v=8, n=2, m=8)
        per_group = mask.reshape(32, 4, 8).sum(axis=2)
        assert np.all(per_group == 2)

    def test_survivors_confined_to_four_columns_per_block(self, rng):
        w = rng.normal(size=(32, 32))
        mask = vnm_mask(w, v=8, n=2, m=8)
        blocks = mask.reshape(4, 8, 4, 8)
        used_cols = blocks.any(axis=1).sum(axis=2)
        assert np.all(used_cols <= 4)

    def test_column_selection_prefers_heavy_columns(self):
        w = np.full((8, 8), 0.01)
        w[:, [1, 3, 5, 7]] = 10.0  # four obviously dominant columns
        sel = select_block_columns(w, v=8, m=8)
        assert list(sel[0, 0]) == [1, 3, 5, 7]

    def test_v_equal_rows_is_single_block(self, rng):
        w = rng.normal(size=(16, 16))
        mask = vnm_mask(w, v=16, n=2, m=8)
        assert check_vnm_pattern(mask, v=16, n=2, m=8)

    def test_invalid_configurations(self, rng):
        w = rng.normal(size=(16, 16))
        with pytest.raises(ValueError):
            vnm_mask(w, v=5, n=2, m=8)  # rows not divisible by v
        with pytest.raises(ValueError):
            vnm_mask(w, v=8, n=2, m=3)  # m < 4

    def test_prune_wrapper_and_sparsity(self, rng):
        res = vnm_prune(rng.normal(size=(32, 32)), v=8, n=2, m=8)
        assert res.target_sparsity == pytest.approx(0.75)
        assert vnm_sparsity(2, 8) == pytest.approx(0.75)
        with pytest.raises(ValueError):
            vnm_sparsity(5, 4)

    def test_pad_to_vnm_shape(self, rng):
        w = rng.normal(size=(30, 37))
        padded, orig = pad_to_vnm_shape(w, v=8, m=8)
        assert orig == (30, 37)
        assert padded.shape == (32, 40)
        assert np.allclose(padded[:30, :37], w)
        assert np.all(padded[30:, :] == 0)

    def test_pad_noop_when_divisible(self, rng):
        w = rng.normal(size=(32, 40))
        padded, _ = pad_to_vnm_shape(w, v=8, m=8)
        assert padded.shape == w.shape


class TestFigure13Patterns:
    """The pruners at every sparsity of the paper's sweep."""

    def test_pattern_for_sparsity(self, fig13_pattern):
        sparsity, n, m = fig13_pattern
        assert nm_pattern_for_sparsity(sparsity) == (n, m)

    def test_nm_mask_hits_the_pattern_exactly(self, rng, fig13_pattern):
        _, n, m = fig13_pattern
        mask = nm_mask(rng.normal(size=(8, 3 * m)), n, m)
        assert np.all(mask.reshape(8, 3, m).sum(axis=2) == n)
        assert mask_sparsity(mask) == pytest.approx(1 - n / m)

    def test_vnm_mask_hits_the_pattern_exactly(self, rng, fig13_pattern):
        _, n, m = fig13_pattern
        mask = vnm_mask(rng.normal(size=(32, 3 * m)), v=16, n=n, m=m)
        assert check_vnm_pattern(mask, v=16, n=n, m=m)
        assert np.all(mask.reshape(32, 3, m).sum(axis=2) == n)
        assert mask_sparsity(mask) == pytest.approx(vnm_sparsity(n, m))

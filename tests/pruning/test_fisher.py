"""Tests for the empirical Fisher estimation (second-order pruning)."""

import numpy as np
import pytest

from repro.pruning.second_order.fisher import (
    BlockFisher,
    empirical_fisher_block,
    estimate_block_fisher,
    synthetic_gradients,
    woodbury_inverse,
)


@pytest.fixture
def grads(rng):
    return rng.normal(size=(32, 16))


class TestEmpiricalFisherBlock:
    def test_symmetric_positive_definite(self, grads):
        f = empirical_fisher_block(grads, damp=1e-3)
        assert np.allclose(f, f.T)
        eigvals = np.linalg.eigvalsh(f)
        assert np.all(eigvals > 0)

    def test_damping_on_diagonal(self, grads):
        f_small = empirical_fisher_block(grads, damp=1e-6)
        f_big = empirical_fisher_block(grads, damp=1.0)
        assert np.allclose(np.diag(f_big) - np.diag(f_small), 1.0 - 1e-6)

    def test_invalid_inputs(self, grads):
        with pytest.raises(ValueError):
            empirical_fisher_block(grads, damp=0.0)
        with pytest.raises(ValueError):
            empirical_fisher_block(np.zeros((0, 4)))
        with pytest.raises(ValueError):
            empirical_fisher_block(np.zeros(4))


class TestWoodburyInverse:
    def test_matches_direct_inverse(self, grads):
        damp = 1e-2
        direct = np.linalg.inv(empirical_fisher_block(grads, damp=damp))
        woodbury = woodbury_inverse(grads, damp=damp)
        assert np.allclose(direct, woodbury, atol=1e-8)

    def test_result_symmetric(self, grads):
        inv = woodbury_inverse(grads, damp=1e-3)
        assert np.allclose(inv, inv.T, atol=1e-10)

    def test_invalid_damp(self, grads):
        with pytest.raises(ValueError):
            woodbury_inverse(grads, damp=-1.0)


class TestBlockFisher:
    def test_estimate_shapes(self, rng):
        shape = (4, 16)
        g = rng.normal(size=(8, 64))
        bf = estimate_block_fisher(g, shape, block_size=8)
        assert bf.num_blocks == 8
        assert bf.inverse_blocks.shape == (8, 8, 8)

    def test_block_of_weight(self, rng):
        bf = estimate_block_fisher(rng.normal(size=(4, 32)), (2, 16), block_size=8)
        assert bf.block_of_weight(0, 0) == 0
        assert bf.block_of_weight(0, 8) == 1
        assert bf.block_of_weight(1, 0) == 2
        with pytest.raises(IndexError):
            bf.block_of_weight(5, 0)

    def test_inverse_submatrix(self, rng):
        bf = estimate_block_fisher(rng.normal(size=(4, 32)), (2, 16), block_size=8)
        sub = bf.inverse_submatrix(0, np.array([0, 3, 5]))
        assert sub.shape == (3, 3)
        assert np.allclose(sub, bf.inverse_blocks[0][np.ix_([0, 3, 5], [0, 3, 5])])

    def test_diagonal_shape(self, rng):
        bf = estimate_block_fisher(rng.normal(size=(4, 32)), (2, 16), block_size=8)
        assert bf.diagonal().shape == (2, 16)

    def test_block_size_must_divide(self, rng):
        with pytest.raises(ValueError):
            estimate_block_fisher(rng.normal(size=(4, 32)), (2, 16), block_size=5)

    def test_gradient_shape_checked(self, rng):
        with pytest.raises(ValueError):
            estimate_block_fisher(rng.normal(size=(4, 30)), (2, 16), block_size=8)

    def test_constructor_validation(self, rng):
        with pytest.raises(ValueError):
            BlockFisher(shape=(2, 16), block_size=8, inverse_blocks=np.zeros((3, 8, 8)), damp=1e-4)


class TestSyntheticGradients:
    def test_shape_and_determinism(self, rng):
        w = rng.normal(size=(4, 8))
        g1 = synthetic_gradients(w, num_samples=8, seed=3)
        g2 = synthetic_gradients(w, num_samples=8, seed=3)
        assert g1.shape == (8, 32)
        assert np.array_equal(g1, g2)

    def test_gradient_scale_follows_weight_scale(self, rng):
        w = np.ones((2, 8)) * 0.001
        w[0, 0] = 10.0
        g = synthetic_gradients(w, num_samples=256, seed=0, correlation_decay=0.0)
        assert g[:, 0].std() > 10 * g[:, 5].std()

    def test_invalid_args(self, rng):
        w = rng.normal(size=(2, 4))
        with pytest.raises(ValueError):
            synthetic_gradients(w, num_samples=0)
        with pytest.raises(ValueError):
            synthetic_gradients(w, correlation_decay=1.0)
        with pytest.raises(ValueError):
            synthetic_gradients(np.zeros(4))

"""Tests for the model-integration layer (paper Listing 1)."""

import numpy as np
import pytest

from repro.formats.vnm import check_vnm_pattern
from repro.integration.linear import sparsify_encoder
from repro.integration.sparsifier import VNMSparsifier
from repro.integration.vnm_tensor import VNMTensor
from repro.models.config import tiny_config
from repro.models.layers import DenseLinear, SparseLinear, init_dense_linear
from repro.models.transformer import TransformerEncoder


class TestVNMSparsifier:
    def test_magnitude_sparsify(self, rng):
        vnm = VNMSparsifier(n=2, m=8, v=16).sparsify(rng.normal(size=(32, 64)))
        assert isinstance(vnm, VNMTensor)
        assert vnm.matrix.logical_sparsity == pytest.approx(0.75)
        assert check_vnm_pattern(vnm.matrix.to_dense(), v=16, n=2, m=8)

    def test_padding_for_awkward_shapes(self, rng):
        vnm = VNMSparsifier(n=2, m=8, v=16).sparsify(rng.normal(size=(30, 60)))
        assert vnm.original_shape == (30, 60)
        assert vnm.matrix.shape == (32, 64)

    def test_second_order_method(self, rng):
        sparsifier = VNMSparsifier(n=2, m=8, v=16, method="second_order")
        w = rng.normal(size=(16, 32))
        vnm = sparsifier.sparsify(w)
        assert vnm.matrix.logical_sparsity == pytest.approx(0.75)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            VNMSparsifier(n=0, m=8, v=16)
        with pytest.raises(ValueError):
            VNMSparsifier(n=5, m=8, v=16)
        with pytest.raises(ValueError):
            VNMSparsifier(n=2, m=8, v=16, method="random")

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            VNMSparsifier(n=2, m=8, v=16).sparsify(np.zeros(16))


def sparsified(original, sparsifier=VNMSparsifier(n=2, m=8, v=16)):
    """A dense layer through the sparsifier, the way sparsify_encoder builds it,
    and the pruned dense weight it must compute with."""
    weight = sparsifier.sparsify(original.weight)
    layer = SparseLinear(
        sparse_weight=weight.matrix,
        logical_shape=weight.original_shape,
        bias=original.bias,
        name=original.name,
    )
    rows, cols = weight.original_shape
    return layer, weight.matrix.to_dense()[:rows, :cols]


class TestSparsifiedLinear:
    def test_forward_matches_sparse_dense_layer(self, rng):
        original = init_dense_linear(32, 64, seed=3)
        layer, pruned = sparsified(original)
        x = rng.normal(size=(5, 64)).astype(np.float32)
        expected = DenseLinear(weight=pruned, bias=original.bias).forward(x)
        assert np.allclose(layer.forward(x), expected, atol=5e-2, rtol=1e-2)

    @pytest.mark.parametrize("lead", [(4,), (2, 3)], ids=["2d", "3d"])
    def test_forward_with_padded_weight(self, rng, lead):
        original = init_dense_linear(30, 60, seed=3)
        layer, pruned = sparsified(original)
        assert (layer.out_features, layer.in_features) == (30, 60)
        # The launched problem is the padded one.
        problem = layer.gemm_problem(4)
        assert (problem.r, problem.k) == (32, 64)
        x = rng.normal(size=lead + (60,)).astype(np.float32)
        out = layer.forward(x)
        assert out.shape == lead + (30,)
        expected = DenseLinear(weight=pruned, bias=original.bias).forward(x)
        assert np.allclose(out, expected, atol=5e-2, rtol=1e-2)

    def test_forward_at_every_figure13_sparsity(self, rng, fig13_pattern):
        """50 input features fill whole M-groups only at 2:10; every other
        pattern of the sweep runs the padded launch."""
        _, n, m = fig13_pattern
        groups = -(-50 // m)
        original = init_dense_linear(32, 50, seed=3)
        layer, pruned = sparsified(original, VNMSparsifier(n=n, m=m, v=16))
        assert layer.gemm_problem(4).k == groups * m
        # n per whole group; the zero padding adds no weights of its own.
        kept = np.count_nonzero(pruned, axis=1)
        assert np.all((n * (50 // m) <= kept) & (kept <= n * groups))
        x = rng.normal(size=(4, 50)).astype(np.float32)
        expected = DenseLinear(weight=pruned, bias=original.bias).forward(x)
        assert np.allclose(layer.forward(x), expected, atol=5e-2, rtol=1e-2)

    @pytest.mark.parametrize("shape", [(32, 64), (30, 60)], ids=["exact", "padded"])
    def test_input_dim_validated(self, rng, shape):
        layer, _ = sparsified(init_dense_linear(*shape))
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(4, shape[1] - 1)))

    def test_logical_shape_must_fit_the_weight(self):
        weight = VNMSparsifier(n=2, m=8, v=16).sparsify(init_dense_linear(32, 64).weight)
        with pytest.raises(ValueError, match="logical_shape"):
            SparseLinear(sparse_weight=weight.matrix, logical_shape=(33, 64))
        with pytest.raises(ValueError, match="bias"):
            SparseLinear(
                sparse_weight=weight.matrix, logical_shape=(30, 60), bias=np.zeros(32)
            )


class TestSparsifyEncoder:
    @pytest.fixture
    def encoder(self):
        cfg = tiny_config(hidden_size=64, num_layers=2, num_heads=4, intermediate_size=128)
        return TransformerEncoder.init(cfg, seed=0)

    def test_sparsify_all_weights(self, encoder, rng):
        replaced = sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
        assert len(replaced) == 12
        assert encoder.count_sparse_layers() == 12
        x = rng.normal(size=(1, 8, 64)).astype(np.float32)
        assert np.isfinite(encoder.forward(x)).all()

    def test_sparsify_non_divisible_shapes(self, rng):
        """Shapes the pattern does not divide are padded by the sparsifier
        and cropped by the layer (used to die on the bias-shape check)."""
        cfg = tiny_config(hidden_size=40, intermediate_size=72, num_layers=1, num_heads=4)
        encoder = TransformerEncoder.init(cfg, seed=0)
        replaced = sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
        assert len(replaced) == len(list(encoder.named_linear_layers())) == 6
        assert encoder.count_sparse_layers() == 6
        out = encoder.forward(rng.normal(size=(2, 5, 40)).astype(np.float32))
        assert out.shape == (2, 5, 40)
        assert np.isfinite(out).all()

    def test_sparsify_with_filter(self, encoder):
        replaced = sparsify_encoder(
            encoder, VNMSparsifier(n=2, m=8, v=16), weight_filter=lambda name: "attention." in name
        )
        assert len(replaced) == 8
        assert encoder.count_sparse_layers() == 8

    def test_sparsify_named_weights(self, encoder):
        names = ["encoder.layer.0.ffn.output"]
        replaced = sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16), weight_names=names)
        assert replaced == names

    def test_unknown_weight_name_raises(self, encoder):
        with pytest.raises(KeyError):
            sparsify_encoder(
                encoder, VNMSparsifier(n=2, m=8, v=16), weight_names=["encoder.layer.0.made.up"]
            )

    def test_filter_and_names_mutually_exclusive(self, encoder):
        with pytest.raises(ValueError):
            sparsify_encoder(
                encoder,
                VNMSparsifier(n=2, m=8, v=16),
                weight_filter=lambda n: True,
                weight_names=["encoder.layer.0.ffn.output"],
            )

    def test_accuracy_of_sparsified_model_degrades_gracefully(self, encoder, rng):
        """Sparsification changes activations but keeps them in a sane range."""
        x = rng.normal(size=(1, 8, 64)).astype(np.float32)
        dense_out = encoder.forward(x)
        sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
        sparse_out = encoder.forward(x)
        rel = np.abs(dense_out - sparse_out).mean() / np.abs(dense_out).mean()
        assert rel < 0.5

"""Tests for the layer abstractions, attention and the encoder stack."""

import numpy as np
import pytest

from repro.integration import VNMSparsifier, sparsify_encoder
from repro.kernels.dispatch import KernelDispatcher, SpmmOperand
from repro.models.attention import MultiHeadAttention
from repro.models.config import tiny_config
from repro.models.functional import attend, split_heads
from repro.models.layers import Linear, init_dense_linear
from repro.models.transformer import EncoderLayer, TransformerEncoder


@pytest.fixture(scope="module")
def cfg():
    return tiny_config(hidden_size=64, num_layers=2, num_heads=4, intermediate_size=128)


@pytest.fixture
def hidden(rng, cfg):
    return rng.normal(size=(2, 16, cfg.hidden_size)).astype(np.float32)


def vnm_linear(dense, v, n, m):
    """A dense layer through the sparsifier, the way sparsify_encoder builds it."""
    weight = VNMSparsifier(n=n, m=m, v=v).sparsify(dense.weight)
    return Linear(
        SpmmOperand.from_vnm(weight.matrix, name=dense.name),
        bias=dense.bias,
        name=dense.name,
        logical_shape=weight.original_shape,
    )


class TestDenseLinear:
    def test_forward_matches_matmul(self, rng):
        layer = init_dense_linear(8, 16, seed=0)
        x = rng.normal(size=(3, 16)).astype(np.float32)
        out = layer.forward(x)
        expected = x @ layer.weight.T + layer.bias
        assert np.allclose(out, expected, atol=1e-2)

    def test_forward_keeps_leading_dims(self, rng):
        layer = init_dense_linear(8, 16, seed=0)
        x = rng.normal(size=(2, 5, 16)).astype(np.float32)
        assert layer.forward(x).shape == (2, 5, 8)

    def test_operand_problem_dims(self):
        layer = init_dense_linear(8, 16)
        p = layer.operand.problem(40)
        assert (p.r, p.k, p.c) == (8, 16, 40)
        assert layer.operand.vnm is None and layer.operand.pattern is None

    def test_modelled_time_positive(self, gpu):
        layer = init_dense_linear(64, 64)
        assert KernelDispatcher(gpu=gpu).estimate(layer.operand, 256).time_us > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Linear(SpmmOperand(dense=np.zeros(4)))
        with pytest.raises(ValueError):
            Linear(SpmmOperand(dense=np.zeros((4, 4))), bias=np.zeros(3))
        with pytest.raises(TypeError):
            Linear(np.zeros((4, 4)))


class TestSparseLinear:
    def test_sparsifier_applies_vnm_pattern(self):
        sparse = vnm_linear(init_dense_linear(32, 64, seed=1), v=16, n=2, m=8)
        assert sparse.sparsity == pytest.approx(0.75)
        assert sparse.out_features == 32 and sparse.in_features == 64

    def test_forward_close_to_dense_on_pruned_weight(self, rng):
        dense = init_dense_linear(32, 64, seed=1)
        sparse = vnm_linear(dense, v=16, n=2, m=8)
        x = rng.normal(size=(4, 64)).astype(np.float32)
        # The sparse layer equals a dense layer whose weight is the pruned one.
        pruned_dense = Linear(SpmmOperand(dense=sparse.operand.vnm.to_dense()), bias=dense.bias)
        assert np.allclose(sparse.forward(x), pruned_dense.forward(x), atol=5e-2, rtol=1e-2)

    def test_operand_problem_carries_pattern(self):
        sparse = vnm_linear(init_dense_linear(32, 64, seed=1), v=16, n=2, m=8)
        p = sparse.operand.problem(128)
        assert (p.n, p.m, p.v) == (2, 8, 16)

    def test_modelled_spmm_faster_than_dense(self, gpu):
        dense = init_dense_linear(1024, 4096, seed=1)
        sparse = vnm_linear(dense, v=128, n=2, m=16)
        dispatcher = KernelDispatcher(gpu=gpu)
        spmm = dispatcher.estimate(sparse.operand, 4096, backend="spatha-plan")
        assert spmm.time_us < dispatcher.estimate(dense.operand, 4096).time_us


class TestMultiHeadAttention:
    def test_forward_shape(self, cfg, hidden):
        mha = MultiHeadAttention.init(cfg, seed=0)
        out = mha.forward(hidden)
        assert out.shape == hidden.shape

    def test_attention_probs_normalised(self, cfg, hidden):
        mha = MultiHeadAttention.init(cfg, seed=0)
        q, k, v = (split_heads(p.forward(hidden), cfg.num_heads) for p in (mha.query, mha.key, mha.value))
        _, probs = attend(q, k, v)
        assert probs.shape == (2, cfg.num_heads, 16, 16)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-5)
        # One key (a decode's first step): its weight is exactly 1.0.
        _, single = attend(q[..., :1, :], k[..., :1, :], v[..., :1, :])
        assert np.all(single == 1.0)

    def test_replace_projection(self, cfg):
        mha = MultiHeadAttention.init(cfg, seed=0)
        new = init_dense_linear(cfg.hidden_size, cfg.hidden_size, name="attention.query", seed=99)
        mha.replace_projection("attention.query", new)
        assert mha.query is new
        with pytest.raises(KeyError):
            mha.replace_projection("attention.unknown", new)

    def test_shape_validation(self, cfg, rng):
        mha = MultiHeadAttention.init(cfg, seed=0)
        with pytest.raises(ValueError):
            mha.forward(rng.normal(size=(2, 16, cfg.hidden_size + 1)))


class TestEncoder:
    def test_forward_preserves_shape(self, cfg, hidden):
        enc = TransformerEncoder.init(cfg, seed=0)
        out = enc.forward(hidden)
        assert out.shape == hidden.shape
        assert np.isfinite(out).all()

    def test_layer_count_override(self, cfg):
        enc = TransformerEncoder.init(cfg, num_layers=1)
        assert len(enc.layers) == 1
        with pytest.raises(ValueError):
            TransformerEncoder.init(cfg, num_layers=0)

    def test_named_linear_layers_complete(self, cfg):
        enc = TransformerEncoder.init(cfg, seed=0)
        names = [name for name, _ in enc.named_linear_layers()]
        assert len(names) == cfg.num_layers * 6
        assert "encoder.layer.0.attention.query" in names
        assert "encoder.layer.1.ffn.output" in names

    def test_replace_linear_by_qualified_name(self, cfg):
        enc = TransformerEncoder.init(cfg, seed=0)
        new = init_dense_linear(cfg.hidden_size, cfg.hidden_size, seed=7)
        enc.replace_linear("encoder.layer.0.attention.key", new)
        assert enc.layers[0].attention.key is new
        with pytest.raises(KeyError):
            enc.replace_linear("decoder.layer.0.attention.key", new)
        with pytest.raises(KeyError):
            enc.replace_linear("encoder.layer.9.attention.key", new)

    def test_apply_to_linears_counts_replacements(self, cfg):
        enc = TransformerEncoder.init(cfg, seed=0)

        def swap_queries(name, layer):
            if name.endswith("attention.query"):
                return init_dense_linear(layer.out_features, layer.in_features, seed=1)
            return None

        replaced = enc.apply_to_linears(swap_queries)
        assert replaced == cfg.num_layers

    def test_sparsity_summary_dense_model(self, cfg):
        enc = TransformerEncoder.init(cfg, seed=0)
        summary = enc.layers[0].sparsity_summary()
        assert set(summary.values()) == {0.0}
        assert enc.count_sparse_layers() == 0

    def test_encoder_layer_forward_changes_activations(self, cfg, hidden):
        layer = EncoderLayer.init(cfg, index=0, seed=0)
        out = layer.forward(hidden)
        assert not np.allclose(out, hidden)


class TestSlabExactness:
    """The premise of serving a micro-batch as equal-length groups: at every
    level of the stack, stacking same-length sequences changes no bit of
    any of them."""

    @pytest.mark.parametrize("level", ["attention", "layer", "encoder"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_stacked_forward_is_each_sequence_forward(self, cfg, rng, sparse, level):
        enc = TransformerEncoder.init(cfg, seed=0)
        if sparse:
            sparsify_encoder(enc, VNMSparsifier(n=2, m=8, v=16))
        module = {"attention": enc.layers[0].attention, "layer": enc.layers[0], "encoder": enc}[level]
        hidden = rng.normal(size=(4, 9, cfg.hidden_size)).astype(np.float32)
        out = module.forward(hidden)
        for i in range(len(hidden)):
            assert out[i].tobytes() == module.forward(hidden[i : i + 1])[0].tobytes()

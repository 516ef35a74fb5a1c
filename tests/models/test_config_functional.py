"""Tests for model configurations and the functional (non-GEMM) operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.config import (
    BERT_BASE,
    BERT_LARGE,
    GPT2_LARGE,
    GPT3_175B,
    ModelConfig,
    get_model,
    tiny_config,
)
from repro.models.functional import (
    attend,
    attention_context,
    attention_scores,
    gelu,
    layer_norm,
    merge_heads,
    softmax,
    split_heads,
)


class TestModelConfig:
    def test_presets_match_published_sizes(self):
        assert (BERT_BASE.hidden_size, BERT_BASE.num_layers, BERT_BASE.num_heads) == (768, 12, 12)
        assert (BERT_LARGE.hidden_size, BERT_LARGE.num_layers, BERT_LARGE.num_heads) == (1024, 24, 16)
        assert (GPT2_LARGE.hidden_size, GPT2_LARGE.num_layers) == (1280, 36)
        assert (GPT3_175B.hidden_size, GPT3_175B.num_layers, GPT3_175B.num_heads) == (12288, 96, 96)

    def test_head_dim(self):
        assert BERT_BASE.head_dim == 64
        assert GPT3_175B.head_dim == 128

    def test_linear_layer_shapes(self):
        shapes = BERT_BASE.linear_layer_shapes()
        assert shapes["attention.query"] == (768, 768)
        assert shapes["ffn.intermediate"] == (3072, 768)
        assert shapes["ffn.output"] == (768, 3072)
        assert len(shapes) == 6

    def test_prunable_parameter_count_bert_base(self):
        """The paper prunes the 85M encoder weights of BERT-base."""
        assert BERT_BASE.prunable_parameters() == pytest.approx(85e6, rel=0.02)

    def test_gemm_problems_token_count(self):
        problems = BERT_BASE.gemm_problems(batch_size=8, seq_len=512)
        assert all(p["c"] == 8 * 512 for p in problems)
        assert len(problems) == 6

    def test_get_model(self):
        assert get_model("bert-large") is BERT_LARGE
        with pytest.raises(KeyError):
            get_model("llama")

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ModelConfig(name="x", hidden_size=100, num_layers=2, num_heads=3, intermediate_size=400)
        with pytest.raises(ValueError):
            ModelConfig(name="x", hidden_size=0, num_layers=2, num_heads=2, intermediate_size=4)

    def test_tiny_config(self):
        cfg = tiny_config()
        assert cfg.hidden_size % cfg.num_heads == 0


class TestFunctionalOps:
    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(size=(3, 5, 7))
        s = softmax(x, axis=-1)
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(s >= 0)

    def test_softmax_stability_with_large_values(self):
        x = np.array([[1e4, 1e4 + 1.0]])
        s = softmax(x)
        assert np.isfinite(s).all()

    def test_gelu_known_values(self):
        assert gelu(np.array([0.0]))[0] == pytest.approx(0.0)
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-3)
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-3)

    def test_layer_norm_normalises(self, rng):
        x = rng.normal(loc=3.0, scale=5.0, size=(4, 16))
        out = layer_norm(x, np.ones(16), np.zeros(16))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_layer_norm_shape_check(self, rng):
        with pytest.raises(ValueError):
            layer_norm(rng.normal(size=(2, 8)), np.ones(4), np.zeros(4))

    def test_split_merge_heads_roundtrip(self, rng):
        x = rng.normal(size=(2, 6, 16)).astype(np.float32)
        assert np.allclose(merge_heads(split_heads(x, 4)), x)

    def test_split_heads_shape(self, rng):
        out = split_heads(rng.normal(size=(2, 6, 16)), 4)
        assert out.shape == (2, 4, 6, 4)
        with pytest.raises(ValueError):
            split_heads(rng.normal(size=(2, 6, 15)), 4)

    def test_attention_scores_scaled(self, rng):
        q = rng.normal(size=(1, 2, 4, 8))
        k = rng.normal(size=(1, 2, 4, 8))
        scores = attention_scores(q, k)
        expected = q @ np.swapaxes(k, -1, -2) / np.sqrt(8)
        assert np.allclose(scores, expected, atol=1e-5)

    def test_attention_context_shape(self, rng):
        probs = softmax(rng.normal(size=(1, 2, 4, 4)))
        v = rng.normal(size=(1, 2, 4, 8))
        assert attention_context(probs, v).shape == (1, 2, 4, 8)


def _mean_var_layer_norm(x, gamma, beta, eps=1e-5):
    """The two-pass formula ``layer_norm`` used to be: ``x.mean`` / ``x.var``."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gamma * (x - mean) / np.sqrt(var + eps) + beta


class TestOneDefinitionBits:
    """The fused operators are bit-for-bit the compositions they replace."""

    def test_one_pass_layer_norm_is_the_mean_var_formula(self):
        """300 random shape / scale / offset cells, compared by uint32 view."""
        rng = np.random.default_rng(2026)
        for _ in range(300):
            lead = tuple(int(s) for s in rng.integers(1, 9, size=rng.integers(0, 3)))
            hidden = int(rng.choice([1, 3, 7, 16, 64, 100, 256, 768, 1024]))
            scale = 10.0 ** rng.uniform(-4, 4)
            x = rng.normal(size=lead + (hidden,)) * scale + rng.normal() * scale * rng.integers(0, 3)
            x = x.astype(np.float32)
            gamma = rng.normal(size=hidden).astype(np.float32)
            beta = rng.normal(size=hidden).astype(np.float32)
            got = layer_norm(x, gamma, beta)
            want = _mean_var_layer_norm(x, gamma, beta)
            assert got.dtype == np.float32
            assert got.view(np.uint32).tobytes() == want.view(np.uint32).tobytes(), x.shape

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(1, 3),
        heads=st.sampled_from([1, 2, 4, 8]),
        seq_q=st.integers(1, 40),
        seq_k=st.integers(1, 40),
        head_dim=st.sampled_from([1, 8, 32, 64]),
        log_scale=st.floats(-3, 3),
        seed=st.integers(0, 2**16),
    )
    def test_attend_is_the_scores_softmax_context_composition(
        self, batch, heads, seq_q, seq_k, head_dim, log_scale, seed
    ):
        rng = np.random.default_rng(seed)
        q, k, v = (
            (rng.normal(size=(batch, heads, s, head_dim)) * 10.0**log_scale).astype(np.float32)
            for s in (seq_q, seq_k, seq_k)
        )
        context, probs = attend(q, k, v)
        want_probs = softmax(attention_scores(q, k), axis=-1)
        want = attention_context(want_probs, v)
        assert probs.tobytes() == want_probs.tobytes()
        assert context.dtype == np.float32 and context.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        slabs=st.integers(1, 6),
        heads=st.sampled_from([1, 2, 4, 8]),
        seq_k=st.integers(1, 120),
        head_dim=st.sampled_from([8, 32, 64]),
        seed=st.integers(0, 2**16),
    )
    def test_attend_into_a_head_split_view_is_the_fresh_result(
        self, slabs, heads, seq_k, head_dim, seed
    ):
        """The decode layout: one query row per slab, each slab's context
        written into a head-split view of a ``(slabs, 1, hidden)`` buffer."""
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(slabs, heads, 1, head_dim)).astype(np.float32)
        k = rng.normal(size=(slabs, seq_k, heads, head_dim)).astype(np.float32)
        v = rng.normal(size=(slabs, seq_k, heads, head_dim)).astype(np.float32)
        out = np.empty((slabs, 1, heads * head_dim), dtype=np.float32)
        out_heads = split_heads(out, heads)
        for i in range(slabs):
            attend(q[i], k[i].transpose(1, 0, 2), v[i].transpose(1, 0, 2), out=out_heads[i])
            fresh, _ = attend(q[i : i + 1], k[i].transpose(1, 0, 2)[None], v[i].transpose(1, 0, 2)[None])
            assert out[i].tobytes() == merge_heads(fresh)[0].tobytes()

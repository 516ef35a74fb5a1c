"""fp32 means fp32: float32 in, float32 out, at every public model boundary.

Under NumPy >= 2 (NEP 50) a typed ``np.float64`` scalar — what ``np.sqrt``
and ``np.pi`` arithmetic produce — promotes a float32 array to float64;
under NumPy 1.x value-based casting keeps it float32.  ``pyproject.toml``
supports both, so a float64 constant meeting an activation makes the served
bits depend on the NumPy major version (and cost a float64 pass).  The
contract below is the version-proof statement of the rule: every public
operator of ``models/functional.py``, every forward of ``models/``, both
kinds of linear weight and the four functional kernels return float32 for float32
input.
"""

import numpy as np
import pytest

from repro.formats.blocked_ell import BlockedEllMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.vnm import VNMSparseMatrix
from repro.integration import VNMSparsifier, sparsify_encoder
from repro.kernels import cublas, cusparse, spatha, sputnik
from repro.models import TransformerEncoder, tiny_config
from repro.models import functional as F
from repro.kernels.dispatch import SpmmOperand
from repro.models.layers import Linear, init_dense_linear
from repro.pruning.masks import apply_mask
from repro.pruning.vnm import vnm_mask
from repro.serving import ModelServingEngine, Request, ServingConfig, decode_reference

HIDDEN, HEADS, SEQ, BATCH = 64, 4, 5, 3


def _f32(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


# -- models/functional.py ----------------------------------------------------

_Q = _f32(BATCH, HEADS, SEQ, 32)
_K = _f32(BATCH, HEADS, SEQ, 32, seed=1)
_SCORES = _f32(BATCH, HEADS, SEQ, SEQ)
_GAMMA, _BETA = np.ones(HIDDEN, dtype=np.float32), np.zeros(HIDDEN, dtype=np.float32)

FUNCTIONAL_OPS = {
    "softmax": lambda: F.softmax(_SCORES),
    "gelu": lambda: F.gelu(_f32(BATCH, SEQ, HIDDEN)),
    "layer_norm": lambda: F.layer_norm(_f32(BATCH, SEQ, HIDDEN), _GAMMA, _BETA),
    "attention_scores": lambda: F.attention_scores(_Q, _K),
    "attention_scores[float scale]": lambda: F.attention_scores(_Q, _K, scale=0.25),
    "attention_scores[float64 scale]": lambda: F.attention_scores(_Q, _K, scale=np.float64(0.25)),
    "attention_context": lambda: F.attention_context(F.softmax(_SCORES), _K),
    "split_heads": lambda: F.split_heads(_f32(BATCH, SEQ, HIDDEN), HEADS),
    "merge_heads": lambda: F.merge_heads(_Q),
}


@pytest.mark.parametrize("op", sorted(FUNCTIONAL_OPS))
def test_functional_ops_return_float32(op):
    assert FUNCTIONAL_OPS[op]().dtype == np.float32


def test_gelu_matches_the_float64_formula_to_float32_rounding():
    x = np.linspace(-6, 6, 4001, dtype=np.float32)
    x64 = x.astype(np.float64)
    exact = 0.5 * x64 * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x64 + 0.044715 * x64**3)))
    bound = 4 * np.finfo(np.float32).eps * np.maximum(1.0, np.abs(x64))
    assert np.all(np.abs(F.gelu(x).astype(np.float64) - exact) <= bound)


def test_attention_scores_scale_is_one_float32_multiply():
    # head_dim 32: 1/sqrt(32) is not a power of two, so a float64 scale
    # rounded late would differ from the float32 one in the last bit.
    expected = np.matmul(_Q, np.swapaxes(_K, -1, -2)) * np.float32(1.0 / np.sqrt(32))
    assert expected.dtype == np.float32
    assert F.attention_scores(_Q, _K).tobytes() == expected.tobytes()


# -- models/: every forward, dense and sparsified ----------------------------


def _encoder(sparse):
    cfg = tiny_config(
        hidden_size=HIDDEN, num_layers=2, num_heads=HEADS, intermediate_size=2 * HIDDEN
    )
    encoder = TransformerEncoder.init(cfg, seed=0)
    if sparse:
        sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
    return encoder


ENCODERS = {"dense": _encoder(False), "sparse": _encoder(True)}


def _module(encoder, level):
    layer = encoder.layers[0]
    return {
        "attention": layer.attention,
        "ffn": layer.ffn,
        "layer": layer,
        "encoder": encoder,
    }[level]


@pytest.mark.parametrize("level", ["attention", "layer", "encoder"])
@pytest.mark.parametrize("kind", sorted(ENCODERS))
def test_forward_returns_float32(kind, level):
    out = _module(ENCODERS[kind], level).forward(_f32(BATCH, SEQ, HIDDEN))
    assert out.dtype == np.float32


@pytest.mark.parametrize("kind", sorted(ENCODERS))
def test_ffn_forward_returns_float32(kind):
    ffn = _module(ENCODERS[kind], "ffn")
    assert ffn.forward(_f32(BATCH, SEQ, HIDDEN)).dtype == np.float32
    assert ffn.forward(_f32(1, HIDDEN)).dtype == np.float32


def _step_cache(encoder, level):
    """A fresh cache for one step at ``level`` (the stack's, or layer 0's view)."""
    kv = encoder.new_sequence_kv()
    if level == "encoder":
        return kv
    kv.extend()
    return kv.view(0)


@pytest.mark.parametrize("level", ["attention", "layer", "encoder"])
@pytest.mark.parametrize("kind", sorted(ENCODERS))
def test_forward_step_returns_float32(kind, level):
    encoder = ENCODERS[kind]
    out = _module(encoder, level).forward_step(_f32(1, HIDDEN), _step_cache(encoder, level))
    assert out.dtype == np.float32 and out.shape == (1, HIDDEN)


@pytest.mark.parametrize("level", ["attention", "layer", "encoder"])
@pytest.mark.parametrize("kind", sorted(ENCODERS))
def test_forward_steps_returns_float32(kind, level):
    encoder = ENCODERS[kind]
    caches = [_step_cache(encoder, level) for _ in range(BATCH)]
    out = _module(encoder, level).forward_steps(_f32(BATCH, 1, HIDDEN), caches)
    assert out.dtype == np.float32 and out.shape == (BATCH, 1, HIDDEN)


# -- the serving boundaries over the stack -----------------------------------


@pytest.mark.parametrize("padding", ["exact", "ladder"])
@pytest.mark.parametrize("kind", sorted(ENCODERS))
def test_served_outputs_are_float32(kind, padding):
    """float64 activations are cast once at intake; every length group of a
    ragged window comes back float32."""
    engine = ModelServingEngine(
        _encoder(kind == "sparse"), config=ServingConfig(padding=padding, warm=False)
    )
    requests = [
        Request(f"r{i}", np.random.default_rng(i).normal(size=(t, HIDDEN)))
        for i, t in enumerate([3, SEQ, 9, SEQ])
    ]
    results = engine.serve(requests)
    for req in requests:
        assert results[req.request_id].dtype == np.float32
        assert results[req.request_id].shape == (req.tokens, HIDDEN)


@pytest.mark.parametrize("kind", sorted(ENCODERS))
def test_decode_reference_returns_float32(kind):
    prompt = np.random.default_rng(4).normal(size=(SEQ, HIDDEN))  # float64 prompt
    out = decode_reference(ENCODERS[kind], prompt, 2)
    assert out.dtype == np.float32 and out.shape == (2, HIDDEN)


# -- linear layers and functional kernels ------------------------------------


def _pruned(rows=32, cols=64):
    w = np.random.default_rng(3).normal(size=(rows, cols))
    return apply_mask(w, vnm_mask(w, v=16, n=2, m=8)).astype(np.float32)


@pytest.mark.parametrize("shape", [(SEQ, HIDDEN), (BATCH, SEQ, HIDDEN)], ids=["2d", "3d"])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_linear_forward_returns_float32(kind, shape):
    layer = init_dense_linear(32, HIDDEN, seed=1)
    if kind == "sparse":
        weight = VNMSparsifier(n=2, m=8, v=16).sparsify(layer.weight)
        layer = Linear(SpmmOperand.from_vnm(weight.matrix), bias=layer.bias)
    out = layer.forward(_f32(*shape))
    assert out.dtype == np.float32 and out.shape == shape[:-1] + (32,)


KERNELS = {
    "spatha.spmm": lambda w, b: spatha.spmm(VNMSparseMatrix.from_dense(w, v=16, n=2, m=8), b),
    "sputnik.spmm": lambda w, b: sputnik.spmm(CSRMatrix.from_dense(w), b),
    "cusparse.spmm": lambda w, b: cusparse.spmm(BlockedEllMatrix.from_dense(w, b=16), b),
    "cublas.gemm": lambda w, b: cublas.gemm(w, b),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_functional_kernels_return_float32(kernel):
    out = KERNELS[kernel](_pruned(), _f32(64, 7))
    assert out.dtype == np.float32 and out.shape == (32, 7)

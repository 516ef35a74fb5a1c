"""``forward_steps`` is ``forward_step``, bit for bit, slab by slab.

The decode engine advances all its residents with one
``TransformerEncoder.forward_steps`` call on a ``(k, 1, hidden)`` slab stack
and prefills a prompt as the same call with one cache repeated; the oracle
for both is the per-token ``forward_step`` (and, for a prompt, the causal
``forward``).  These properties pin that equivalence over ragged context
lengths, both KV stores (paged with a block size that leaves partial tail
blocks) and dense and sparsified encoders — bits *and* cache state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.integration import VNMSparsifier, sparsify_encoder
from repro.models import PagedKVCache, TransformerEncoder, tiny_config

HIDDEN, HEADS, BLOCK = 32, 2, 3


def _encoder(sparse, num_layers):
    cfg = tiny_config(
        hidden_size=HIDDEN, num_layers=num_layers, num_heads=HEADS, intermediate_size=2 * HIDDEN
    )
    encoder = TransformerEncoder.init(cfg, seed=num_layers)
    if sparse:
        sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
    return encoder


ENCODERS = {
    f"{'sparse' if sparse else 'dense'}-{layers}L": _encoder(sparse, layers)
    for sparse in (False, True)
    for layers in (1, 2)
}


def _new_caches(encoder, store, count):
    """``count`` empty per-sequence caches of one store kind."""
    if store == "reference":
        return [encoder.new_sequence_kv() for _ in range(count)]
    pool = PagedKVCache(
        num_layers=len(encoder.layers),
        num_heads=HEADS,
        head_dim=HIDDEN // HEADS,
        block_size=BLOCK,
        capacity_blocks=max(count, 1) * 16,
    )
    # Each sized for its share of the pool, past the longest context drawn.
    return [pool.create(f"seq-{i}", tokens=16 * BLOCK) for i in range(count)]


def _fill(cache, encoder, rows):
    """Give ``cache`` a context of ``len(rows)`` arbitrary cached positions."""
    for k, v in rows:
        cache.extend()
        for layer in range(len(encoder.layers)):
            cache.view(layer).append(k, v)


def _state(cache, encoder):
    """(length, per-layer written counts, per-layer gathered K/V bytes)."""
    layers = range(len(encoder.layers))
    written = [len(cache.view(layer)) for layer in layers]
    if hasattr(cache, "gathered"):
        gathered = [cache.gathered(layer) for layer in layers if written[layer]]
    else:
        views = [cache.view(layer) for layer in layers if written[layer]]
        gathered = [(np.stack(view._keys), np.stack(view._values)) for view in views]
    return cache.length, written, [(k.tobytes(), v.tobytes()) for k, v in gathered]


@pytest.mark.parametrize("store", ["reference", "paged"])
@pytest.mark.parametrize("kind", sorted(ENCODERS))
@settings(max_examples=6, deadline=None)
@given(
    contexts=st.lists(st.integers(0, 40), min_size=1, max_size=8),
    steps=st.integers(3, 4),
    seed=st.integers(0, 2**16),
)
def test_each_slab_is_the_lone_forward_step(kind, store, contexts, steps, seed):
    encoder = ENCODERS[kind]
    rng = np.random.default_rng(seed)
    k = len(contexts)
    stacked = _new_caches(encoder, store, k)
    lone = _new_caches(encoder, store, k)
    for i, context in enumerate(contexts):
        rows = rng.normal(size=(context, 2, HEADS, HIDDEN // HEADS)).astype(np.float32)
        _fill(stacked[i], encoder, rows)
        _fill(lone[i], encoder, rows)
    stack = rng.normal(size=(k, 1, HIDDEN)).astype(np.float32)
    for _ in range(steps):
        out = encoder.forward_steps(stack, stacked)
        assert out.shape == (k, 1, HIDDEN) and out.dtype == np.float32
        for i in range(k):
            assert out[i].tobytes() == encoder.forward_step(stack[i], lone[i]).tobytes()
        stack = out  # autoregressive: each output row is the next input
    for i, context in enumerate(contexts):
        state = _state(stacked[i], encoder)
        assert state == _state(lone[i], encoder)
        assert state[0] == context + steps
        assert state[1] == [context + steps] * len(encoder.layers)


@pytest.mark.parametrize("store", ["reference", "paged"])
@pytest.mark.parametrize("kind", sorted(ENCODERS))
@settings(max_examples=5, deadline=None)
@given(tokens=st.integers(1, 20), seed=st.integers(0, 2**16))
def test_one_cache_repeated_is_the_causal_forward(kind, store, tokens, seed):
    """Layer-major prefill: a prompt's positions as the slabs of one stack."""
    encoder = ENCODERS[kind]
    prompt = np.random.default_rng(seed).normal(size=(tokens, HIDDEN)).astype(np.float32)
    stacked, lone = _new_caches(encoder, store, 2)
    out = encoder.forward_steps(prompt[:, None, :], [stacked] * tokens)
    rows = [encoder.forward_step(prompt[t][None], lone) for t in range(tokens)]
    assert out[:, 0].tobytes() == np.concatenate(rows).tobytes()
    fresh = encoder.new_sequence_kv()  # the causal forward, position by position
    full = np.concatenate([encoder.forward_step(prompt[t][None], fresh) for t in range(tokens)])
    assert out[:, 0].tobytes() == full.tobytes()
    assert _state(stacked, encoder) == _state(lone, encoder)


@pytest.mark.parametrize(
    "shape, caches",
    [
        ((2, HIDDEN), 2),  # not a slab stack
        ((2, 2, HIDDEN), 2),  # two tokens per slab
        ((2, 1, HIDDEN + 1), 2),  # wrong width
        ((2, 1, HIDDEN), 3),  # one cache per slab, no more
        ((2, 1, HIDDEN), 1),
        ((0, 1, HIDDEN), 0),  # an empty stack is a caller bug, not a no-op
    ],
)
def test_shape_errors_raise_before_any_cache_moves(shape, caches):
    encoder = ENCODERS["dense-1L"]
    kv = _new_caches(encoder, "paged", caches)
    tokens = np.zeros(shape, dtype=np.float32)
    for module, views in (
        (encoder, kv),
        (encoder.layers[0], [c.view(0) for c in kv]),
        (encoder.layers[0].attention, [c.view(0) for c in kv]),
    ):
        with pytest.raises(ValueError):
            module.forward_steps(tokens, views)
    assert all(c.length == 0 and not c.block_ids for c in kv)

"""Multi-head attention block (Figure 14).

The MHA of a transformer layer contains four weight GEMMs — the Q, K, V and
output projections — which the paper converts to SpMMs by sparsifying their
weights, plus two batched matmuls (scores ``QKᵀ`` and context ``PV``) and a
softmax that stay dense.  This module implements the functional forward
pass on numpy tensors and reports the per-operator kernel executions the
latency model aggregates.

Attention is the only operator in the encoder that mixes information
*across* the tokens of a sequence, so it is the one operator padding could
perturb — and it never sees padding: :meth:`MultiHeadAttention.forward`
takes true-shape ``(batch, seq, hidden)`` input only.  A server batching
ragged sequences groups them by length and runs one forward per group
(:mod:`repro.serving.model_engine`).  Masking padded keys with ``-inf``
would not be enough for bitwise equality anyway: BLAS picks its
tile/micro-kernel split from the operand shapes, so growing a GEMM from
``(t, d)`` to a padded ``(S, d)`` can change the summation trees of the
valid rows' dot products (measurably — single-token sequences take a
GEMV-shaped path, and ``Q Kᵀ`` at some shapes flips low-order bits).

Decoding is the same idea turned a quarter: under causal attention every
query position attends to a different key count, so the shape-stable
decomposition is per position — :meth:`MultiHeadAttention.forward_step`
against a KV cache, which is exactly what KV-cached decoding executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .config import ModelConfig
from .functional import attend, merge_heads, split_heads
from .layers import Linear, init_dense_linear


def check_token_stack(tokens: np.ndarray, kv_caches, hidden_size: int) -> np.ndarray:
    """``tokens`` as the float32 ``(k >= 1, 1, hidden)`` stack ``forward_steps`` takes."""
    tokens = np.asarray(tokens, dtype=np.float32)
    if tokens.ndim != 3 or tokens.shape[0] == 0 or tokens.shape[1:] != (1, hidden_size):
        raise ValueError(
            f"tokens must have shape (k >= 1, 1, {hidden_size}), got {tokens.shape}"
        )
    if len(kv_caches) != tokens.shape[0]:
        raise ValueError(f"{tokens.shape[0]} token slabs but {len(kv_caches)} kv caches")
    return tokens


@dataclass
class MultiHeadAttention:
    """Functional multi-head self-attention with pluggable projections."""

    config: ModelConfig
    query: Linear
    key: Linear
    value: Linear
    output: Linear

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "MultiHeadAttention":
        """Randomly initialised dense MHA for the given configuration."""
        h = config.hidden_size
        return cls(
            config=config,
            query=init_dense_linear(h, h, name="attention.query", seed=seed),
            key=init_dense_linear(h, h, name="attention.key", seed=seed + 1),
            value=init_dense_linear(h, h, name="attention.value", seed=seed + 2),
            output=init_dense_linear(h, h, name="attention.output", seed=seed + 3),
        )

    def projections(self) -> Dict[str, Linear]:
        """The four prunable projections, keyed by their layer names."""
        return {
            "attention.query": self.query,
            "attention.key": self.key,
            "attention.value": self.value,
            "attention.output": self.output,
        }

    def replace_projection(self, name: str, layer: Linear) -> None:
        """Swap one projection (used by the sparsification pass)."""
        mapping = {
            "attention.query": "query",
            "attention.key": "key",
            "attention.value": "value",
            "attention.output": "output",
        }
        if name not in mapping:
            raise KeyError(f"unknown projection {name!r}")
        setattr(self, mapping[name], layer)

    def forward(self, hidden: np.ndarray) -> np.ndarray:
        """Self-attention forward pass on ``(batch, seq, hidden)`` activations."""
        hidden = np.asarray(hidden, dtype=np.float32)
        if hidden.ndim != 3 or hidden.shape[-1] != self.config.hidden_size:
            raise ValueError(
                f"hidden must have shape (batch, seq, {self.config.hidden_size}), got {hidden.shape}"
            )
        q = split_heads(self.query.forward(hidden), self.config.num_heads)
        k = split_heads(self.key.forward(hidden), self.config.num_heads)
        v = split_heads(self.value.forward(hidden), self.config.num_heads)
        context, _ = attend(q, k, v)
        return self.output.forward(merge_heads(context))

    def forward_step(self, new_token: np.ndarray, kv_cache) -> np.ndarray:
        """Incremental causal attention for one appended token.

        ``new_token`` is the ``(1, hidden)`` activation of the sequence's
        newest position; ``kv_cache`` is a per-layer KV view exposing
        ``append(k, v) -> (K, V)`` (:class:`~repro.models.kv_cache.LayerKV`
        or a paged layer view).  The token's K/V are projected at their
        true one-row shape, appended to the cache, and the query attends
        over every cached position: causality is the cache's extent, not
        a mask.  Returns the ``(1, hidden)``
        attention output.
        """
        x = np.asarray(new_token, dtype=np.float32)
        if x.ndim == 1:
            x = x[None]
        if x.shape != (1, self.config.hidden_size):
            raise ValueError(
                f"new_token must have shape (1, {self.config.hidden_size}), got {x.shape}"
            )
        h3 = x[None]  # (1, 1, hidden)
        heads = self.config.num_heads
        q = split_heads(self.query.forward(h3), heads)  # (1, heads, 1, d)
        k_new = split_heads(self.key.forward(h3), heads)[0, :, 0, :]  # (heads, d)
        v_new = split_heads(self.value.forward(h3), heads)[0, :, 0, :]
        k_all, v_all = kv_cache.append(k_new, v_new)  # (t, heads, d)
        context, _ = attend(q, k_all.transpose(1, 0, 2)[None], v_all.transpose(1, 0, 2)[None])
        return self.output.forward(merge_heads(context))[0]  # (1, hidden)

    def forward_steps(self, tokens: np.ndarray, kv_caches) -> np.ndarray:
        """:meth:`forward_step` for a ``(k, 1, hidden)`` slab stack of tokens.

        ``kv_caches[i]`` is the per-layer KV view slab ``i`` appends to; the
        same view may repeat, in position order (a prompt's positions
        prefilled as one stack).  The four projections run once on the
        stack — slab-exact, so slab ``i`` carries the bits of the lone call
        — and only attention loops: per slab, append then attend over that
        cache's K/V at its true length, the shapes and strides
        :meth:`forward_step` uses, writing the context straight into a
        head-split view of the output.  Stacked along the slab axis on
        purpose: column ``c`` of a C=k GEMM is *not* the C=1 result.
        """
        x = check_token_stack(tokens, kv_caches, self.config.hidden_size)
        heads, d = self.config.num_heads, self.config.head_dim
        q = split_heads(self.query.forward(x), heads)  # (k, heads, 1, d)
        k_new = split_heads(self.key.forward(x), heads)[:, :, 0, :]  # (k, heads, d)
        v_new = split_heads(self.value.forward(x), heads)[:, :, 0, :]
        context = np.empty_like(x)
        context_heads = split_heads(context, heads)  # a view: (k, heads, 1, d)
        scale = np.float32(1.0 / np.sqrt(d))
        for i, kv_cache in enumerate(kv_caches):
            k_all, v_all = kv_cache.append(k_new[i], v_new[i])  # (t, heads, d)
            attend(q[i], k_all.transpose(1, 0, 2), v_all.transpose(1, 0, 2), scale, out=context_heads[i])
        return self.output.forward(context)

    def weight_gemm_layers(self) -> List[Linear]:
        """The four projections in execution order."""
        return [self.query, self.key, self.value, self.output]

"""Multi-head attention block (Figure 14).

The MHA of a transformer layer contains four weight GEMMs — the Q, K, V and
output projections — which the paper converts to SpMMs by sparsifying their
weights, plus two batched matmuls (scores ``QKᵀ`` and context ``PV``) and a
softmax that stay dense.  This module implements the functional forward
pass on numpy tensors and reports the per-operator kernel executions the
latency model aggregates.

Attention is the only operator in the encoder that mixes information
*across* the tokens of a sequence, so it is the one place padded-bucket
serving has to intervene: :meth:`MultiHeadAttention.forward` accepts an
additive attention mask (``0.0`` valid, ``-inf`` padded) that assigns
padded key positions exactly zero softmax weight.

Exactly-zero weights make the masked forward *mathematically* equal to the
unpadded one, but not automatically *bitwise* equal: BLAS picks its
tile/micro-kernel split from the operand shapes, so growing a GEMM from
``(t, d)`` to a padded ``(S, d)`` can change the summation trees of the
valid rows' dot products (measurably — e.g. single-token sequences take a
GEMV-shaped path, and ``Q Kᵀ`` at some shapes flips low-order bits).  The
masked path therefore derives each sequence's valid length from the mask
and executes the *grouped* computation: sequences of equal valid length
are sliced out of the padded batch and run through the standard unmasked
code at their true shapes, which is bit-for-bit the standalone forward by
the slab-exactness of every operator.

Causal masks get the same treatment with the roles rotated a quarter turn:
under a causal mask every *query* position attends to a different key
count, so the only shape-stable decomposition is per position — exactly
the shape KV-cached decoding executes.  :meth:`MultiHeadAttention.forward`
detects the mask :func:`~repro.models.functional.causal_mask` builds and
runs the per-position path (:meth:`MultiHeadAttention.forward_step` over a
scratch :class:`~repro.models.kv_cache.LayerKV`), which is why cached
decoding is bit-for-bit the full causal recompute: they are literally the
same operations at the same shapes.  Masks without either structure
(ALiBi-style biases, scattered ``-inf``) fall back to a general masked
computation — exact zero weights, no bitwise claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from .config import ModelConfig
from .functional import (
    attend,
    attention_context,
    attention_scores,
    grouped_by_length,
    mask_is_causal,
    merge_heads,
    resolve_padding_lengths,
    softmax,
    split_heads,
)
from .kv_cache import LayerKV
from .layers import DenseLinear, SparseLinear, init_dense_linear

LinearLike = Union[DenseLinear, SparseLinear]


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
    query: LinearLike
    key: LinearLike
    value: LinearLike
    output: LinearLike

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

    def projections(self) -> Dict[str, LinearLike]:
        """The four prunable projections, keyed by their layer names."""
        return {
            "attention.query": self.query,
            "attention.key": self.key,
            "attention.value": self.value,
            "attention.output": self.output,
        }

    def replace_projection(self, name: str, layer: LinearLike) -> None:
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

    def forward(
        self,
        hidden: np.ndarray,
        return_probs: bool = False,
        mask: Optional[np.ndarray] = None,
    ):
        """Self-attention forward pass.

        Parameters
        ----------
        hidden:
            ``(batch, seq, hidden)`` activations.
        return_probs:
            Also return the attention probabilities (used by tests).
        mask:
            Optional additive attention mask broadcastable to the
            ``(batch, heads, seq, seq)`` scores: ``0.0`` keeps a key
            position, ``-inf`` gives it exactly zero softmax weight.  A
            right-padding mask (see
            :func:`~repro.models.functional.padding_mask`) additionally
            guarantees that every valid token's output is bit-for-bit the
            unpadded forward of its sequence (padded rows of the output
            are zero); see the module docstring for why that requires the
            grouped execution path rather than masking alone.
        """
        hidden = np.asarray(hidden, dtype=np.float32)
        if hidden.ndim != 3 or hidden.shape[-1] != self.config.hidden_size:
            raise ValueError(
                f"hidden must have shape (batch, seq, {self.config.hidden_size}), got {hidden.shape}"
            )
        if mask is not None:
            lengths = resolve_padding_lengths(mask, hidden)
            if lengths is not None:
                return self._forward_grouped(hidden, lengths, return_probs)
            if mask_is_causal(mask):
                if np.shape(mask)[-1] != hidden.shape[1]:
                    raise ValueError(
                        f"causal mask covers {np.shape(mask)[-1]} key positions but the "
                        f"activations have {hidden.shape[1]} tokens; build the mask with "
                        f"causal_mask({hidden.shape[1]})"
                    )
                return self._forward_causal(hidden, return_probs)
        q = split_heads(self.query.forward(hidden), self.config.num_heads)
        k = split_heads(self.key.forward(hidden), self.config.num_heads)
        v = split_heads(self.value.forward(hidden), self.config.num_heads)

        if mask is None:
            context, probs = attend(q, k, v)
        else:
            probs = softmax(attention_scores(q, k), axis=-1, mask=mask)
            context = attention_context(probs, v)
        out = self.output.forward(merge_heads(context))
        if return_probs:
            return out, probs
        return out

    def _forward_grouped(self, hidden: np.ndarray, lengths: np.ndarray, return_probs: bool):
        """Right-padding masked forward via equal-length grouping.

        Sequences sharing a valid length are sliced out of the padded
        batch and run through the standard unmasked forward at their true
        ``(group, length, hidden)`` shape — the bits of each sequence
        forwarded alone, by slab-exactness — then scattered back into the
        padded layout with zeros on the padded rows.  Padded keys thus get
        exactly zero attention weight in the strongest sense: they never
        enter a reduction at all.
        """
        if not return_probs:
            return grouped_by_length(hidden, lengths, self.forward)
        batch, seq, _ = hidden.shape
        probs = np.zeros((batch, self.config.num_heads, seq, seq), dtype=np.float32)

        def forward_capturing_probs(sub):
            t = sub.shape[1]
            sub_out, sub_probs = self.forward(sub, return_probs=True)
            idx = np.flatnonzero(lengths == t)
            for j, b in enumerate(idx):
                probs[b, :, :t, :t] = sub_probs[j]
            return sub_out

        out = grouped_by_length(hidden, lengths, forward_capturing_probs)
        return out, probs

    def forward_step(
        self,
        new_token: np.ndarray,
        kv_cache,
        return_probs: bool = False,
    ):
        """Incremental causal attention for one appended token.

        ``new_token`` is the ``(1, hidden)`` activation of the sequence's
        newest position; ``kv_cache`` is a per-layer KV view exposing
        ``append(k, v) -> (K, V)`` (:class:`~repro.models.kv_cache.LayerKV`
        or a paged layer view).  The token's K/V are projected at their
        true one-row shape, appended to the cache, and the query attends
        over every cached position — no mask needed: the causal row always
        includes at least the token itself, so its softmax row sums to 1,
        never the fully-masked zero sentinel.  Returns the ``(1, hidden)``
        attention output (plus the ``(heads, t)`` probability row with
        ``return_probs``).
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
        context, probs = attend(q, k_all.transpose(1, 0, 2)[None], v_all.transpose(1, 0, 2)[None])
        out = self.output.forward(merge_heads(context))[0]  # (1, hidden)
        if return_probs:
            return out, probs[0, :, 0, :]
        return out

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

    def _forward_causal(self, hidden: np.ndarray, return_probs: bool):
        """Causal-mask forward as per-position true-shape execution.

        Each position runs :meth:`forward_step` against a scratch
        :class:`~repro.models.kv_cache.LayerKV` — the identical operations
        (and therefore the identical bits) KV-cached decoding executes,
        minus the cache reuse.  Probabilities scatter into the ``(batch,
        heads, seq, seq)`` layout with exact zeros above the diagonal.
        """
        batch, seq, _ = hidden.shape
        out = np.empty_like(hidden)
        probs = (
            np.zeros((batch, self.config.num_heads, seq, seq), dtype=np.float32)
            if return_probs
            else None
        )
        for b in range(batch):
            kv = LayerKV()
            for t in range(seq):
                step = self.forward_step(hidden[b, t][None], kv, return_probs=return_probs)
                if return_probs:
                    row, row_probs = step
                    probs[b, :, t, : t + 1] = row_probs
                else:
                    row = step
                out[b, t] = row[0]
        if return_probs:
            return out, probs
        return out

    # ------------------------------------------------------------------
    # Latency accounting helpers (used by models.latency)
    # ------------------------------------------------------------------
    def weight_gemm_layers(self) -> List[LinearLike]:
        """The four projections in execution order."""
        return [self.query, self.key, self.value, self.output]

    def attention_matmul_flops(self, batch_size: int, seq_len: int) -> float:
        """FLOPs of the two batched attention matmuls (QKᵀ and PV)."""
        d = self.config.head_dim
        per_head = 2.0 * seq_len * d * seq_len  # QK^T
        per_head += 2.0 * seq_len * seq_len * d  # P V
        return per_head * self.config.num_heads * batch_size

    def softmax_elements(self, batch_size: int, seq_len: int) -> float:
        """Number of attention-score elements the softmax touches."""
        return float(batch_size * self.config.num_heads * seq_len * seq_len)

"""Transformer encoder layer and encoder stack.

The functional substrate for the end-to-end experiments: an encoder layer
is the standard pre-LLM block (MHA + residual/LayerNorm + FFN +
residual/LayerNorm), built from :class:`~repro.models.layers.Linear`
layers so any of its six weight matrices can be swapped for a V:N:M-sparse
version.  The stack exposes iteration over its prunable layers — the
interface the STen-style sparsification pass in :mod:`repro.integration`
uses.

Every forward takes true-shape input and there is no attention mask: a
server batching ragged sequences runs one ``forward`` per length
(:mod:`repro.serving.model_engine`), and the causal forward is
:meth:`TransformerEncoder.forward_step` position by position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .attention import MultiHeadAttention, check_token_stack
from .config import ModelConfig
from .functional import gelu, layer_norm
from .kv_cache import SequenceKV
from .layers import Linear, init_dense_linear

if TYPE_CHECKING:  # import cycle: kernels.spatha pulls in formats, not models
    from ..kernels.spatha import SpmmPlan


@dataclass
class FeedForward:
    """The transformer FFN: intermediate (expansion) + output projections."""

    intermediate: Linear
    output: Linear

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "FeedForward":
        return cls(
            intermediate=init_dense_linear(
                config.intermediate_size, config.hidden_size, name="ffn.intermediate", seed=seed
            ),
            output=init_dense_linear(
                config.hidden_size, config.intermediate_size, name="ffn.output", seed=seed + 1
            ),
        )

    def forward(self, hidden: np.ndarray) -> np.ndarray:
        return self.output.forward(gelu(self.intermediate.forward(hidden)))

    def projections(self) -> Dict[str, Linear]:
        return {"ffn.intermediate": self.intermediate, "ffn.output": self.output}

    def replace_projection(self, name: str, layer: Linear) -> None:
        if name == "ffn.intermediate":
            self.intermediate = layer
        elif name == "ffn.output":
            self.output = layer
        else:
            raise KeyError(f"unknown projection {name!r}")


@dataclass
class EncoderLayer:
    """One transformer encoder block."""

    config: ModelConfig
    attention: MultiHeadAttention
    ffn: FeedForward
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    index: int = 0

    @classmethod
    def init(cls, config: ModelConfig, index: int = 0, seed: int = 0) -> "EncoderLayer":
        h = config.hidden_size
        base = seed + index * 101
        return cls(
            config=config,
            attention=MultiHeadAttention.init(config, seed=base),
            ffn=FeedForward.init(config, seed=base + 10),
            ln1_gamma=np.ones(h, dtype=np.float32),
            ln1_beta=np.zeros(h, dtype=np.float32),
            ln2_gamma=np.ones(h, dtype=np.float32),
            ln2_beta=np.zeros(h, dtype=np.float32),
            index=index,
        )

    def forward(self, hidden: np.ndarray) -> np.ndarray:
        """Post-LN encoder block forward pass (BERT convention)."""
        hidden = np.asarray(hidden, dtype=np.float32)
        attn_out = self.attention.forward(hidden)
        hidden = layer_norm(hidden + attn_out, self.ln1_gamma, self.ln1_beta)
        ffn_out = self.ffn.forward(hidden)
        return layer_norm(hidden + ffn_out, self.ln2_gamma, self.ln2_beta)

    def forward_step(self, new_token: np.ndarray, kv_view) -> np.ndarray:
        """Run the whole block for one appended token against cached K/V.

        ``new_token`` is ``(1, hidden)``; ``kv_view`` is this layer's KV
        view (``append(k, v) -> (K, V)``).  Every operator — the attention
        step, both residual adds and LayerNorms, and the FFN — executes at
        the one-row decode shape, so the block's bits depend only on the
        token's value and the cached K/V, never on how many other tokens
        are in flight.
        """
        token = np.asarray(new_token, dtype=np.float32)
        if token.ndim == 1:
            token = token[None]
        row = self.attention.forward_step(token, kv_view)  # (1, hidden)
        hidden = layer_norm(token + row, self.ln1_gamma, self.ln1_beta)
        ffn_out = self.ffn.forward(hidden)
        return layer_norm(hidden + ffn_out, self.ln2_gamma, self.ln2_beta)

    def forward_steps(self, tokens: np.ndarray, kv_views) -> np.ndarray:
        """:meth:`forward_step` for a ``(k, 1, hidden)`` slab stack of tokens.

        ``kv_views[i]`` is this layer's KV view for slab ``i``.  Residual
        adds, LayerNorms, GELU and the six projections run once on the
        stack and attention per slab; all are slab-exact, so slab ``i`` is
        bit-for-bit the lone ``forward_step(tokens[i], kv_views[i])``.
        """
        tokens = np.asarray(tokens, dtype=np.float32)
        rows = self.attention.forward_steps(tokens, kv_views)  # (k, 1, hidden)
        hidden = layer_norm(tokens + rows, self.ln1_gamma, self.ln1_beta)
        ffn_out = self.ffn.forward(hidden)
        return layer_norm(hidden + ffn_out, self.ln2_gamma, self.ln2_beta)

    def named_linear_layers(self) -> Dict[str, Linear]:
        """All six prunable linear layers of this block, keyed by name."""
        layers: Dict[str, Linear] = {}
        layers.update(self.attention.projections())
        layers.update(self.ffn.projections())
        return layers

    def replace_linear(self, name: str, layer: Linear) -> None:
        """Swap one of the six linear layers by name."""
        if name.startswith("attention."):
            self.attention.replace_projection(name, layer)
        elif name.startswith("ffn."):
            self.ffn.replace_projection(name, layer)
        else:
            raise KeyError(f"unknown linear layer {name!r}")

    def sparsity_summary(self) -> Dict[str, float]:
        """Sparsity of every linear layer (0.0 for dense ones)."""
        return {name: layer.sparsity for name, layer in self.named_linear_layers().items()}


@dataclass
class TransformerEncoder:
    """A stack of encoder layers (the model the end-to-end study times)."""

    config: ModelConfig
    layers: List[EncoderLayer] = field(default_factory=list)

    @classmethod
    def init(cls, config: ModelConfig, num_layers: Optional[int] = None, seed: int = 0) -> "TransformerEncoder":
        """Initialise a stack of ``num_layers`` (default: config.num_layers) blocks.

        The end-to-end GPT-3 experiment of the paper only instantiates a
        single encoder layer to fit on one GPU; ``num_layers`` exposes the
        same control.
        """
        n = num_layers if num_layers is not None else config.num_layers
        if n <= 0:
            raise ValueError("num_layers must be positive")
        return cls(config=config, layers=[EncoderLayer.init(config, index=i, seed=seed) for i in range(n)])

    def forward(self, hidden: np.ndarray) -> np.ndarray:
        """Run the full stack on ``(batch, seq, hidden)`` activations.

        Every sequence of the batch has the same true length; every
        projection executes the whole batch as one batched RHS through the
        dispatcher.
        """
        hidden = np.asarray(hidden, dtype=np.float32)
        for layer in self.layers:
            hidden = layer.forward(hidden)
        return hidden

    def new_sequence_kv(self) -> SequenceKV:
        """A fresh reference KV cache sized for this stack (one store per layer)."""
        return SequenceKV(len(self.layers))

    def forward_step(self, new_token: np.ndarray, kv_cache) -> np.ndarray:
        """One decode step: run an appended token through the whole stack.

        ``new_token`` is the ``(1, hidden)`` activation of the sequence's
        newest position; ``kv_cache`` is a per-sequence cache exposing
        ``extend()`` and ``view(layer_index)`` — either the reference
        :class:`~repro.models.kv_cache.SequenceKV` or a
        :class:`~repro.models.kv_cache.PagedKVCache` sequence handle; the
        two are bit-interchangeable.  Returns the stack output for the
        token, ``(1, hidden)``.  Feeding each position of a sequence
        through this method against one fresh cache is the causal forward
        of the sequence (:func:`~repro.serving.decoder.decode_reference`
        recomputes exactly that at every step).
        """
        token = np.asarray(new_token, dtype=np.float32)
        if token.ndim == 1:
            token = token[None]
        if token.shape != (1, self.config.hidden_size):
            raise ValueError(
                f"new_token must have shape (1, {self.config.hidden_size}), got {token.shape}"
            )
        kv_cache.extend()
        for layer in self.layers:
            token = layer.forward_step(token, kv_cache.view(layer.index))
        return token

    def forward_steps(self, tokens: np.ndarray, kv_caches) -> np.ndarray:
        """One decode step for ``k`` tokens at once: a ``(k, 1, hidden)`` stack.

        The slab-stacked sibling of :meth:`forward_step` (which stays, as
        the oracle): slab ``i`` of the result is bit-for-bit
        ``forward_step(tokens[i], kv_caches[i])``.  Every cache is
        ``extend()``-ed first, then each layer runs its token-wise
        operators once on the stack and attention per slab at that cache's
        true length — Orca's selective batching, along the slab axis
        because the column axis is not bit-stable.

        The same cache may repeat, in position order: a layer's causal
        dependencies are only on its own earlier K/V, so a prompt prefills
        layer-major as ``forward_steps(prompt[:, None, :], [cache] *
        len(prompt))``, row ``t`` being :meth:`forward_step`'s output for
        position ``t``.

        If this raises, the caches hold a partial step; a paged sequence is
        restored with ``truncate(length_before)``.
        """
        tokens = check_token_stack(tokens, kv_caches, self.config.hidden_size)
        for kv_cache in kv_caches:
            kv_cache.extend()
        for layer in self.layers:
            tokens = layer.forward_steps(tokens, [kv.view(layer.index) for kv in kv_caches])
        return tokens

    def named_sparse_layers(self) -> Iterator[Tuple[str, Linear]]:
        """Iterate over the V:N:M-sparse projections only."""
        for name, lin in self.named_linear_layers():
            if lin.operand.vnm is not None:
                yield name, lin

    def set_dispatcher(self, dispatcher) -> int:
        """Route every projection through one injected kernel dispatcher.

        This is how a serving engine scopes its caches: all projections of
        the encoder share the engine's dispatcher (one decision cache, one
        tuner, one circuit breaker) instead of the process-wide default.
        Returns the number of layers re-routed.
        """
        routed = 0
        for _, lin in self.named_linear_layers():
            lin.dispatcher = dispatcher
            routed += 1
        return routed

    def spmm_plan_registry(self) -> Dict[str, "SpmmPlan"]:
        """Build (memoized) and return the per-layer SpMM plan registry.

        One warmed :class:`~repro.kernels.spatha.SpmmPlan` per sparse
        projection, keyed by the qualified layer name.  Plans are memoized
        on the weight itself, so the registry is cheap to rebuild and every
        consumer (forward passes, serving engines, benchmarks) shares the
        same plan objects.
        """
        from ..kernels.spatha import SpmmPlan

        return {
            name: SpmmPlan.for_matrix(lin.operand.vnm)
            for name, lin in self.named_sparse_layers()
        }

    def named_linear_layers(self) -> Iterator[Tuple[str, Linear]]:
        """Iterate over ``(qualified_name, layer)`` of every prunable layer."""
        for layer in self.layers:
            for name, lin in layer.named_linear_layers().items():
                yield f"encoder.layer.{layer.index}.{name}", lin

    def replace_linear(self, qualified_name: str, new_layer: Linear) -> None:
        """Replace a layer addressed by its qualified name."""
        parts = qualified_name.split(".")
        if len(parts) < 4 or parts[0] != "encoder" or parts[1] != "layer":
            raise KeyError(f"unrecognised layer name {qualified_name!r}")
        idx = int(parts[2])
        if not 0 <= idx < len(self.layers):
            raise KeyError(f"layer index {idx} out of range")
        self.layers[idx].replace_linear(".".join(parts[3:]), new_layer)

    def apply_to_linears(self, fn: Callable[[str, Linear], Optional[Linear]]) -> int:
        """Apply ``fn`` to every prunable layer; replace it when fn returns a layer.

        Returns the number of layers replaced.
        """
        replaced = 0
        for name, lin in list(self.named_linear_layers()):
            new = fn(name, lin)
            if new is not None and new is not lin:
                self.replace_linear(name, new)
                replaced += 1
        return replaced

    def count_sparse_layers(self) -> int:
        """Number of layers currently running through Spatha."""
        return sum(1 for _ in self.named_sparse_layers())

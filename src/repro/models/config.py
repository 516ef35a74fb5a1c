"""Transformer model configurations used in the paper's evaluation.

The end-to-end experiments (Section 7.2) cover BERT-base/large, GPT-2-large
and a GPT-3-175B-style configuration (the paper instantiates the GPT-3
architecture with random weights because the trained model is not public —
the reproduction does exactly the same).  This module defines the
architecture descriptions and the per-layer weight-matrix shapes the
micro-benchmarks extract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description of a transformer encoder/decoder stack."""

    name: str
    hidden_size: int
    num_layers: int
    num_heads: int
    intermediate_size: int
    max_seq_len: int = 512
    vocab_size: int = 30522
    #: Total parameter count (reported, used only for documentation).
    approx_params: str = ""

    def __post_init__(self) -> None:
        if self.hidden_size <= 0 or self.num_layers <= 0 or self.num_heads <= 0:
            raise ValueError("hidden_size, num_layers and num_heads must be positive")
        if self.hidden_size % self.num_heads:
            raise ValueError(
                f"hidden_size ({self.hidden_size}) must be divisible by num_heads ({self.num_heads})"
            )
        if self.intermediate_size <= 0:
            raise ValueError("intermediate_size must be positive")

    @property
    def head_dim(self) -> int:
        """Per-head dimension."""
        return self.hidden_size // self.num_heads

    def linear_layer_shapes(self) -> Dict[str, Tuple[int, int]]:
        """The (out_features, in_features) shape of every prunable linear
        layer in one transformer block.

        These are the weight tensors Figure 14 sparsifies: the Q/K/V and
        output projections of the MHA plus the two FFN projections.
        """
        h, i = self.hidden_size, self.intermediate_size
        return {
            "attention.query": (h, h),
            "attention.key": (h, h),
            "attention.value": (h, h),
            "attention.output": (h, h),
            "ffn.intermediate": (i, h),
            "ffn.output": (h, i),
        }

    def prunable_parameters_per_layer(self) -> int:
        """Number of prunable weights in one transformer block."""
        return sum(r * c for r, c in self.linear_layer_shapes().values())

    def prunable_parameters(self) -> int:
        """Number of prunable encoder weights in the whole model."""
        return self.num_layers * self.prunable_parameters_per_layer()

    def gemm_problems(self, batch_size: int, seq_len: int | None = None) -> List[Dict]:
        """The weight GEMMs of one block as R x K x C problem descriptors.

        ``R`` is the weight's output dimension, ``K`` its input dimension
        (the sparsified one), and ``C`` the number of tokens
        (``batch_size * seq_len``).
        """
        seq = seq_len or self.max_seq_len
        tokens = batch_size * seq
        problems = []
        for layer_name, (out_f, in_f) in self.linear_layer_shapes().items():
            problems.append({"name": layer_name, "r": out_f, "k": in_f, "c": tokens})
        return problems


# ----------------------------------------------------------------------
# Presets (sizes from the respective papers / HuggingFace configurations)
# ----------------------------------------------------------------------

BERT_BASE = ModelConfig(
    name="bert-base",
    hidden_size=768,
    num_layers=12,
    num_heads=12,
    intermediate_size=3072,
    max_seq_len=512,
    approx_params="110M",
)

BERT_LARGE = ModelConfig(
    name="bert-large",
    hidden_size=1024,
    num_layers=24,
    num_heads=16,
    intermediate_size=4096,
    max_seq_len=512,
    approx_params="336M",
)

GPT2_LARGE = ModelConfig(
    name="gpt2-large",
    hidden_size=1280,
    num_layers=36,
    num_heads=20,
    intermediate_size=5120,
    max_seq_len=1024,
    vocab_size=50257,
    approx_params="774M",
)

GPT3_175B = ModelConfig(
    name="gpt3-175b",
    hidden_size=12288,
    num_layers=96,
    num_heads=96,
    intermediate_size=49152,
    max_seq_len=2048,
    vocab_size=50257,
    approx_params="175B",
)

def tiny_config(hidden_size: int = 64, num_layers: int = 2, num_heads: int = 4,
                intermediate_size: int = 128, max_seq_len: int = 32) -> ModelConfig:
    """A miniature configuration for functional tests and the quickstart."""
    return ModelConfig(
        name="tiny",
        hidden_size=hidden_size,
        num_layers=num_layers,
        num_heads=num_heads,
        intermediate_size=intermediate_size,
        max_seq_len=max_seq_len,
        vocab_size=1000,
        approx_params="<1M",
    )

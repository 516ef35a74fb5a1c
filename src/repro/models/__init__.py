"""Transformer model substrate (BERT / GPT-2 / GPT-3) and latency model."""

from .attention import MultiHeadAttention
from .config import (
    BERT_BASE,
    BERT_LARGE,
    GPT2_LARGE,
    GPT3_175B,
    ModelConfig,
    tiny_config,
)
from .functional import (
    attention_context,
    attention_scores,
    gelu,
    layer_norm,
    merge_heads,
    softmax,
    split_heads,
)
from .kv_cache import KVCacheExhausted, LayerKV, PagedKVCache, SequenceKV, prompt_fingerprint
from .latency import (
    SparsityPlan,
    latency_breakdown_ms,
    model_inference_trace,
)
from .layers import Linear, init_dense_linear
from .transformer import EncoderLayer, FeedForward, TransformerEncoder
from .workloads import (
    K_SWEEP,
    synthetic_bert_weight,
)

__all__ = [
    "MultiHeadAttention",
    "BERT_BASE",
    "BERT_LARGE",
    "GPT2_LARGE",
    "GPT3_175B",
    "ModelConfig",
    "tiny_config",
    "attention_context",
    "attention_scores",
    "gelu",
    "layer_norm",
    "merge_heads",
    "softmax",
    "split_heads",
    "LayerKV",
    "KVCacheExhausted",
    "PagedKVCache",
    "SequenceKV",
    "prompt_fingerprint",
    "SparsityPlan",
    "latency_breakdown_ms",
    "model_inference_trace",
    "Linear",
    "init_dense_linear",
    "EncoderLayer",
    "FeedForward",
    "TransformerEncoder",
    "K_SWEEP",
    "synthetic_bert_weight",
]

"""Numpy implementations of the transformer's non-GEMM operators.

The end-to-end inference substrate needs softmax, GELU, layer normalisation
and the usual residual/bias plumbing.  These are the operators that appear
as the "softmax" and "others" bars of the latency breakdown in Figure 15;
their functional versions here are used by the numerical tests and the
small-scale examples, while their execution time is modelled separately in
:mod:`repro.models.latency` (they are bandwidth-bound elementwise kernels).

There is no attention mask.  The model stack only ever sees true-shape
input: a serving engine that batches ragged sequences runs each group of
equal-length sequences as its own forward (see
:mod:`repro.serving.model_engine`), so no padded row ever reaches a
reduction and every operator here runs unmasked.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

# Typed float32 on purpose: a ``np.float64`` scalar (what ``np.sqrt`` returns)
# promotes a float32 activation to float64 under NumPy >= 2 (NEP 50) and not
# under NumPy 1.x, so the served bits would depend on the NumPy major version.
_GELU_SCALE = np.float32(np.sqrt(2.0 / np.pi))
_GELU_CUBIC = np.float32(0.044715)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian Error Linear Unit (tanh approximation, as used by BERT/GPT)."""
    x = np.asarray(x, dtype=np.float32)
    # One float32 temporary carried through the chain; ``x * x * x`` rather
    # than ``x**3`` (pow is ~10x a multiply).  Nothing is kept between calls.
    t = np.multiply(x, x, out=np.empty_like(x))
    t *= x
    t *= _GELU_CUBIC
    t += x
    t *= _GELU_SCALE
    np.tanh(t, out=t)
    t += 1.0
    t *= x
    t *= 0.5
    return t


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Layer normalisation over the last dimension."""
    x = np.asarray(x, dtype=np.float32)
    gamma = np.asarray(gamma, dtype=np.float32)
    beta = np.asarray(beta, dtype=np.float32)
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ValueError("gamma/beta must have shape (hidden,)")
    # ``x.mean()`` / ``x.var()``'s ufunc steps, centring once; their intp divide (f64 rounded
    # to f32 under NumPy >= 2) is correctly rounded like the f32 ``/ n``: the same bits.
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(np.square(centred), axis=-1, keepdims=True) / n
    out = gamma * centred
    out /= np.sqrt(var + eps)
    out += beta
    return out


def attention_scores(q: np.ndarray, k: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Scaled dot-product attention scores ``Q Kᵀ / sqrt(d)``.

    ``q`` and ``k`` have shape ``(..., seq, head_dim)``.
    """
    q = np.asarray(q, dtype=np.float32)
    k = np.asarray(k, dtype=np.float32)
    if q.shape[-1] != k.shape[-1]:
        raise ValueError("q and k must share the head dimension")
    # float32 whoever supplied it: a typed float64 scale would promote.
    scale = np.float32(scale if scale is not None else 1.0 / np.sqrt(q.shape[-1]))
    scores = np.matmul(q, np.swapaxes(k, -1, -2))
    scores *= scale
    return scores


def attention_context(probs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Attention-weighted value aggregation ``P V``."""
    probs = np.asarray(probs, dtype=np.float32)
    v = np.asarray(v, dtype=np.float32)
    return np.matmul(probs, v)


def attend(q, k, v, scale=None, out: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Float32 attention ``(softmax(Q Kᵀ·scale) V, probs)``; ``out`` gets the context.

    Bit-for-bit ``attention_context(softmax(attention_scores(q, k, scale)), v)``:
    the same ufuncs in the same order, without the wrappers and temporaries."""
    scale = np.float32(1.0 / np.sqrt(q.shape[-1]) if scale is None else scale)
    probs = np.matmul(q, k.swapaxes(-1, -2))
    probs *= scale
    probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    return np.matmul(probs, v, out=out), probs


def split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """Reshape ``(batch, seq, hidden)`` to ``(batch, heads, seq, head_dim)``."""
    x = np.asarray(x, dtype=np.float32)
    b, s, h = x.shape
    if h % num_heads:
        raise ValueError(f"hidden size {h} not divisible by num_heads {num_heads}")
    return x.reshape(b, s, num_heads, h // num_heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`."""
    x = np.asarray(x, dtype=np.float32)
    b, n, s, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, n * d)

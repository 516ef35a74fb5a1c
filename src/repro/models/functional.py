"""Numpy implementations of the transformer's non-GEMM operators.

The end-to-end inference substrate needs softmax, GELU, layer normalisation
and the usual residual/bias plumbing.  These are the operators that appear
as the "softmax" and "others" bars of the latency breakdown in Figure 15;
their functional versions here are used by the numerical tests and the
small-scale examples, while their execution time is modelled separately in
:mod:`repro.models.latency` (they are bandwidth-bound elementwise kernels).

Attention masking lives here too: padded-bucket serving stacks ragged
sequences into one right-padded batch, and an *additive* mask — ``0.0`` at
valid positions, ``-inf`` at padded key positions — removes the padding
from the only cross-token reductions in the stack, attention's score
matmuls and softmax.  ``exp(-inf) == 0.0`` exactly, so masked keys receive
*exactly zero* attention weight, not merely a small one.
:func:`padding_mask` builds the mask from per-sequence valid lengths and
:func:`mask_valid_lengths` recovers them (the model layers use it to detect
the right-padding structure and take the bit-exact grouped execution path —
see :mod:`repro.models.attention` for why exact zeros alone are not enough
for bitwise equality).

Decoder workloads add the second recognised mask family: :func:`causal_mask`
builds the lower-triangular additive mask and :func:`mask_is_causal` detects
it, routing the model layers onto the per-position causal path whose bits
are, by construction, those of incremental KV-cached decoding (see
:mod:`repro.models.kv_cache`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

# Typed float32 on purpose: a ``np.float64`` scalar (what ``np.sqrt`` returns)
# promotes a float32 activation to float64 under NumPy >= 2 (NEP 50) and not
# under NumPy 1.x, so the served bits would depend on the NumPy major version.
_GELU_SCALE = np.float32(np.sqrt(2.0 / np.pi))
_GELU_CUBIC = np.float32(0.044715)


def softmax(x: np.ndarray, axis: int = -1, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Numerically stable softmax along ``axis``, with optional masking.

    ``mask`` is an *additive* attention mask broadcastable to ``x``:
    ``0.0`` keeps a position, ``-inf`` removes it.  Masked positions
    receive **exactly** ``0.0`` weight (``exp(-inf)`` is an exact IEEE
    zero, and ``0.0 / denom == 0.0``), so masked keys can never perturb a
    valid token's context — the property padded-bucket serving is built
    on.  Rows whose positions are all masked return all-zero weights
    rather than NaN.  With ``mask=None`` the computation is unchanged
    (bit-identical to earlier revisions), and an all-zero mask produces
    bit-identical results to no mask at all.
    """
    x = np.asarray(x, dtype=np.float32)
    if mask is None:
        shifted = x - np.max(x, axis=axis, keepdims=True)
        exp = np.exp(shifted)
        return exp / np.sum(exp, axis=axis, keepdims=True)
    masked = x + np.asarray(mask, dtype=np.float32)
    peak = np.max(masked, axis=axis, keepdims=True)
    # Fully-masked rows have peak == -inf; shift those by 0 so the
    # subtraction below cannot produce -inf - -inf = NaN.
    peak = np.where(np.isfinite(peak), peak, np.float32(0.0))
    exp = np.exp(masked - peak)  # exactly 0.0 wherever mask == -inf
    denom = np.sum(exp, axis=axis, keepdims=True)
    out = np.zeros_like(exp)
    np.divide(exp, denom, out=out, where=denom > 0)
    return out


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


def dropout_eval(x: np.ndarray) -> np.ndarray:
    """Dropout in inference mode (identity); kept for API parity."""
    return np.asarray(x, dtype=np.float32)


def attention_scores(
    q: np.ndarray,
    k: np.ndarray,
    scale: float | None = None,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Scaled dot-product attention scores ``Q Kᵀ / sqrt(d)``.

    ``q`` and ``k`` have shape ``(..., seq, head_dim)``.  ``mask`` is an
    optional additive attention mask broadcastable to the ``(..., seq_q,
    seq_k)`` scores (``0.0`` valid, ``-inf`` masked); masked key columns
    come out as ``-inf`` so a following :func:`softmax` assigns them
    exactly zero weight.
    """
    q = np.asarray(q, dtype=np.float32)
    k = np.asarray(k, dtype=np.float32)
    if q.shape[-1] != k.shape[-1]:
        raise ValueError("q and k must share the head dimension")
    # float32 whoever supplied it: a typed float64 scale would promote.
    scale = np.float32(scale if scale is not None else 1.0 / np.sqrt(q.shape[-1]))
    scores = np.matmul(q, np.swapaxes(k, -1, -2))
    scores *= scale
    if mask is not None:
        scores = scores + np.asarray(mask, dtype=np.float32)
    return scores


def attention_context(probs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Attention-weighted value aggregation ``P V``."""
    probs = np.asarray(probs, dtype=np.float32)
    v = np.asarray(v, dtype=np.float32)
    return np.matmul(probs, v)


def attend(q, k, v, scale=None, out: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Unmasked float32 attention ``(softmax(Q Kᵀ·scale) V, probs)``; ``out`` gets the context.

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


def padding_mask(lengths: Union[Sequence[int], np.ndarray], total_tokens: int) -> np.ndarray:
    """Additive right-padding attention mask from per-sequence valid lengths.

    Returns a ``(batch, 1, 1, total_tokens)`` float32 mask — ``0.0`` over
    each sequence's leading ``lengths[b]`` key positions, ``-inf`` over its
    padded tail — broadcastable over heads and query positions onto
    ``(batch, heads, seq_q, seq_k)`` attention scores.  This is the mask
    the padded-bucket serving engine builds per micro-batch.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0:
        raise ValueError(f"lengths must be a non-empty 1-D sequence, got shape {lengths.shape}")
    if total_tokens <= 0:
        raise ValueError("total_tokens must be positive")
    if np.any(lengths <= 0) or np.any(lengths > total_tokens):
        raise ValueError(
            f"every valid length must be in [1, {total_tokens}], got {lengths.tolist()}"
        )
    valid = np.arange(total_tokens)[None, :] < lengths[:, None]
    mask = np.where(valid, np.float32(0.0), np.float32(-np.inf))
    return mask[:, None, None, :]


def causal_mask(total_tokens: int) -> np.ndarray:
    """Additive causal (autoregressive) attention mask.

    Returns a ``(total_tokens, total_tokens)`` float32 mask — ``0.0`` on and
    below the diagonal, ``-inf`` strictly above — which numpy broadcasting
    aligns as per-query ``(seq_q, seq_k)`` onto ``(batch, heads, seq_q,
    seq_k)`` attention scores.  Query position ``i`` attends to keys ``0..i``
    only; in particular every query row keeps at least itself, so a causal
    mask can never produce the all-zero fully-masked softmax sentinel.
    """
    if total_tokens <= 0:
        raise ValueError("total_tokens must be positive")
    return np.triu(np.full((total_tokens, total_tokens), -np.inf, dtype=np.float32), k=1)


def mask_is_causal(mask: np.ndarray) -> bool:
    """Whether ``mask`` is exactly the mask :func:`causal_mask` builds.

    Recognises the ``(seq, seq)`` 2-D layout and its ``(1, 1, seq, seq)``
    4-D broadcast-equivalent: exactly ``0.0`` on and below the diagonal and
    exactly ``-inf`` strictly above it.  The model layers use this to take
    the per-position causal path (decode-shaped true-length execution, the
    bit-exact sibling of KV-cached decoding); anything else — per-batch
    causal variants, finite biases, scattered ``-inf`` — stays on the
    general additive path.
    """
    mask = np.asarray(mask)
    if mask.ndim == 4:
        if mask.shape[0] != 1 or mask.shape[1] != 1:
            return False
        mask = mask[0, 0]
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1] or mask.shape[0] == 0:
        return False
    seq = mask.shape[0]
    lower = np.tril_indices(seq)
    upper = np.triu_indices(seq, k=1)
    return bool(np.all(mask[lower] == 0.0) and np.all(np.isneginf(mask[upper].astype(np.float64))))


def mask_valid_lengths(mask: np.ndarray) -> Optional[np.ndarray]:
    """Per-sequence valid lengths of a right-padding key mask, else ``None``.

    Recognises additive masks of the exact shape :func:`padding_mask`
    emits — ``(batch, 1, 1, seq_k)`` — whose entries are exactly ``0.0``
    (valid) or ``-inf`` (masked) and whose valid region is a non-empty
    *prefix* of the key axis.  Any other mask returns ``None``, telling
    the model layers to use the general masked-computation path instead of
    the grouped bit-exact one.  Lower-rank masks are deliberately *not*
    recognised: numpy broadcasting aligns a 2-D mask as per-query ``(seq_q,
    seq_k)`` and a 3-D mask's leading axis with the *heads* axis of
    ``(batch, heads, seq_q, seq_k)`` scores, so reading their first axis
    as the batch would silently contradict what the additive path computes.
    """
    mask = np.asarray(mask)
    if mask.ndim != 4 or mask.shape[1] != 1 or mask.shape[2] != 1:
        return None
    flat = mask.reshape(mask.shape[0], mask.shape[-1])
    valid = flat == 0.0
    if not np.all(valid | np.isneginf(flat)):
        return None
    lengths = valid.sum(axis=1)
    if np.any(lengths == 0):
        return None
    prefix = np.arange(flat.shape[1])[None, :] < lengths[:, None]
    if not np.array_equal(valid, prefix):
        return None
    return lengths.astype(np.int64)


def resolve_padding_lengths(mask: np.ndarray, hidden: np.ndarray) -> Optional[np.ndarray]:
    """Valid lengths when ``mask`` is a right-padding mask *for* ``hidden``.

    The one shared detection step of the model layers' masked forwards:
    returns :func:`mask_valid_lengths` of ``mask`` when the mask's batch
    axis matches ``hidden``'s and at least one sequence is actually
    padded; returns ``None`` when the mask is not padding-structured *or*
    is all-valid (either way the caller's general additive path applies,
    which for an all-valid mask is bit-identical to no mask at all —
    pinned by tests); and **raises** when a padding mask's key axis
    disagrees with ``hidden``'s sequence axis — numpy slicing would
    otherwise silently clamp the claimed lengths and reinterpret the
    caller's mask instead of failing loudly.
    """
    lengths = mask_valid_lengths(mask)
    if lengths is None:
        return None
    if mask.shape[0] == mask.shape[-1] and np.array_equal(
        lengths, np.arange(1, mask.shape[-1] + 1)
    ):
        # A causal mask reshaped to (seq, 1, 1, seq) is byte-for-byte a
        # right-padding mask for a staircase batch of lengths 1..seq — the
        # two are indistinguishable, and treating the causal one as padding
        # would silently compute per-*sequence* prefixes instead of
        # per-*query* ones.  Refuse loudly rather than misclassify.
        raise ValueError(
            f"mask of shape {np.shape(mask)} is a causal staircase, not a "
            f"right-padding mask; pass causal_mask({mask.shape[-1]}) (2-D) for "
            f"autoregressive attention"
        )
    if lengths.shape[0] != hidden.shape[0]:
        return None
    if np.shape(mask)[-1] != hidden.shape[1]:
        raise ValueError(
            f"right-padding mask covers {np.shape(mask)[-1]} key positions but the "
            f"activations have {hidden.shape[1]} tokens; build the mask with "
            f"padding_mask(lengths, {hidden.shape[1]})"
        )
    if np.all(lengths == hidden.shape[1]):
        return None  # nothing is padded
    return lengths


def grouped_by_length(hidden: np.ndarray, lengths: np.ndarray, fn) -> np.ndarray:
    """Apply ``fn`` to equal-valid-length groups of a right-padded batch.

    The scatter step of the grouped bit-exact path: sequences sharing a
    valid length are sliced to a contiguous ``(group, length, hidden)``
    block, transformed by ``fn`` (which must preserve the block shape
    except possibly the feature axis), and written back into the padded
    layout; padded rows of the result stay zero.
    """
    out = np.zeros_like(hidden)
    for t in np.unique(lengths):
        idx = np.flatnonzero(lengths == t)
        out[idx, :t] = fn(np.ascontiguousarray(hidden[idx, :t]))
    return out

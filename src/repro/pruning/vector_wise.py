"""Vector-wise (column-vector) pruning.

Vector-wise pruning (Figure 2, scheme 2) groups weights into 1-D vertical
vectors of length ``l`` within a column and prunes whole vectors: the
vectors with the smallest saliency (L1 or L2 mass) are removed until the
target sparsity is reached.  This is the selection policy behind
vectorSparse / CLASP (the ``vw_l`` baselines of Figures 11 and 13) and
behind the vector-wise entries of the BERT accuracy study (Table 2's
``vw_8`` column).

The paper notes that vector lengths above ~8 cost significant accuracy;
the energy study reproduces that effect (longer vectors retain less energy
at a given sparsity).
"""

from __future__ import annotations

import numpy as np

from .masks import validate_weight_matrix


def vector_scores(weights: np.ndarray, l: int, norm: str = "l1") -> np.ndarray:
    """Saliency of every length-``l`` column vector.

    Returns an array of shape ``(rows // l, cols)`` where entry ``(b, c)``
    is the norm of rows ``b*l..(b+1)*l`` of column ``c``.
    """
    w = validate_weight_matrix(weights)
    rows, cols = w.shape
    if l <= 0:
        raise ValueError("vector length l must be positive")
    if rows % l != 0:
        raise ValueError(f"rows ({rows}) must be divisible by the vector length ({l})")
    blocks = w.reshape(rows // l, l, cols)
    if norm == "l1":
        return np.abs(blocks).sum(axis=1)
    if norm == "l2":
        return np.sqrt((blocks**2).sum(axis=1))
    raise ValueError(f"unknown norm {norm!r}; use 'l1' or 'l2'")


def vector_wise_mask(weights: np.ndarray, sparsity: float, l: int = 8, norm: str = "l1") -> np.ndarray:
    """Keep-mask of vector-wise pruning at ``sparsity`` with vectors of length ``l``.

    Whole vectors are kept or dropped, so the achieved sparsity is the
    closest multiple of ``l / size`` to the request (rounded so that the
    achieved sparsity does not exceed the target by more than one vector).
    """
    w = validate_weight_matrix(weights)
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    rows, cols = w.shape
    scores = vector_scores(w, l, norm)  # (rows//l, cols)
    n_vectors = scores.size
    n_prune_vectors = int(round(sparsity * n_vectors))
    vec_mask = np.ones(n_vectors, dtype=bool)
    if n_prune_vectors >= n_vectors:
        vec_mask[:] = False
    elif n_prune_vectors > 0:
        flat = scores.ravel()
        prune_idx = np.argpartition(flat, n_prune_vectors - 1)[:n_prune_vectors]
        vec_mask[prune_idx] = False
    vec_mask = vec_mask.reshape(scores.shape)  # (rows//l, cols)
    return np.repeat(vec_mask, l, axis=0)

"""Empirical Fisher information estimation (Section 6).

Second-order pruning needs the curvature of the loss around the trained
weights.  Following the paper (and the Optimal BERT Surgeon it builds on),
the Hessian is approximated by the *empirical Fisher matrix*

``F̂ = λ I + (1 / G) Σ_g ∇L_g ∇L_gᵀ``

computed from ``G`` per-sample gradients, with a small dampening ``λ`` for
invertibility.  A full ``d x d`` Fisher is intractable at LLM scale, so the
standard trick is a *block-diagonal* approximation: the weights of a layer
are split into consecutive blocks of size ``B`` and correlations across
blocks are ignored.  The block inverses are then computed directly (the
blocks are small) via the Woodbury identity applied to the low-rank
gradient outer products, exactly as in M-FAC / oBERT.

This module implements that estimator and a synthetic gradient generator
used by the Table 2 substitution task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


def empirical_fisher_block(grads: np.ndarray, damp: float = 1e-4) -> np.ndarray:
    """Dense empirical Fisher of one weight block.

    Parameters
    ----------
    grads:
        ``(G, B)`` array of per-sample gradients restricted to the block.
    damp:
        Dampening ``λ`` added to the diagonal.
    """
    g = np.asarray(grads, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError("grads must be a 2-D (samples, block_size) array")
    if damp <= 0:
        raise ValueError("damp must be positive")
    num_samples, block = g.shape
    if num_samples == 0:
        raise ValueError("at least one gradient sample is required")
    fisher = (g.T @ g) / num_samples
    fisher[np.diag_indices(block)] += damp
    return fisher


def woodbury_inverse(grads: np.ndarray, damp: float = 1e-4) -> np.ndarray:
    """Inverse of the dampened empirical Fisher via the Woodbury identity.

    ``(λI + (1/G) AᵀA)⁻¹ = (1/λ)(I − Aᵀ(λ G I + A Aᵀ)⁻¹ A)``

    which only requires inverting a ``G x G`` matrix — the formulation that
    makes second-order pruning scalable to LLM dimensionality (M-FAC).
    """
    g = np.asarray(grads, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError("grads must be a 2-D (samples, block_size) array")
    if damp <= 0:
        raise ValueError("damp must be positive")
    num_samples, block = g.shape
    if num_samples == 0:
        raise ValueError("at least one gradient sample is required")
    small = g @ g.T + damp * num_samples * np.eye(num_samples)
    small_inv = np.linalg.inv(small)
    return (np.eye(block) - g.T @ small_inv @ g) / damp


@dataclass
class BlockFisher:
    """Block-diagonal empirical Fisher of one weight matrix.

    The weight matrix ``(rows, cols)`` is flattened row-major and split into
    consecutive blocks of ``block_size`` weights (oBERT uses the same
    row-major blocking).  ``block_size`` must divide ``cols`` so that a
    block never straddles two rows — the inner N:M groups the pruner scores
    always live inside a single block.
    """

    shape: tuple
    block_size: int
    inverse_blocks: np.ndarray  # (num_blocks, block_size, block_size)
    damp: float

    def __post_init__(self) -> None:
        rows, cols = self.shape
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if cols % self.block_size != 0:
            raise ValueError(
                f"block_size ({self.block_size}) must divide the number of columns ({cols})"
            )
        expected_blocks = rows * cols // self.block_size
        if self.inverse_blocks.shape != (expected_blocks, self.block_size, self.block_size):
            raise ValueError(
                "inverse_blocks has the wrong shape: expected "
                f"({expected_blocks}, {self.block_size}, {self.block_size}), got {self.inverse_blocks.shape}"
            )

    @property
    def num_blocks(self) -> int:
        """Number of diagonal blocks."""
        return self.inverse_blocks.shape[0]

    def block_of_weight(self, row: int, col: int) -> int:
        """Index of the diagonal block containing weight ``(row, col)``."""
        rows, cols = self.shape
        if not (0 <= row < rows and 0 <= col < cols):
            raise IndexError(f"weight ({row}, {col}) outside matrix of shape {self.shape}")
        flat = row * cols + col
        return flat // self.block_size

    def inverse_submatrix(self, block_idx: int, local_indices: np.ndarray) -> np.ndarray:
        """Sub-matrix of one inverse block restricted to ``local_indices``."""
        idx = np.asarray(local_indices, dtype=np.int64)
        block = self.inverse_blocks[block_idx]
        return block[np.ix_(idx, idx)]

    def diagonal(self) -> np.ndarray:
        """Diagonal of the inverse Fisher, reshaped to the weight shape."""
        rows, cols = self.shape
        return np.diagonal(self.inverse_blocks, axis1=1, axis2=2).reshape(rows, cols)

    def gather_submatrices(self, flat_start: np.ndarray, local_offsets: np.ndarray) -> np.ndarray:
        """Batched :meth:`inverse_submatrix` for many weight groups at once.

        Parameters
        ----------
        flat_start:
            ``(G,)`` flat (row-major) index of the first weight of each
            group.  Every group must lie entirely inside one diagonal block.
        local_offsets:
            ``(G, S)`` offsets of the group's weights relative to
            ``flat_start`` (e.g. ``arange(m)`` for a contiguous N:M group,
            or the selected in-block columns for the V:N:M inner problem).

        Returns
        -------
        np.ndarray
            ``(G, S, S)`` stack of inverse-Fisher sub-matrices.
        """
        flat_start = np.asarray(flat_start, dtype=np.int64)
        local_offsets = np.asarray(local_offsets, dtype=np.int64)
        block_idx = flat_start // self.block_size
        local = (flat_start % self.block_size)[:, None] + local_offsets
        if local.size and (local.min() < 0 or local.max() >= self.block_size):
            raise IndexError("a group straddles a Fisher block boundary")
        return self.inverse_blocks[block_idx[:, None, None], local[:, :, None], local[:, None, :]]


def estimate_block_fisher(
    grads: np.ndarray,
    weight_shape: tuple,
    block_size: int,
    damp: float = 1e-4,
) -> BlockFisher:
    """Estimate a block-diagonal inverse Fisher from per-sample gradients.

    Parameters
    ----------
    grads:
        ``(G, rows*cols)`` per-sample gradients of the layer, flattened
        row-major (the same layout the pruner uses).
    weight_shape:
        ``(rows, cols)`` of the layer.
    block_size:
        Size of the diagonal blocks; must divide ``cols``.

    The Woodbury inverse of every block is computed in batched form — the
    ``G x G`` systems of all blocks are assembled and inverted together in
    bounded-memory chunks, with no Python loop over individual blocks.
    :func:`estimate_block_fisher_reference` retains the per-block loop.
    """
    g = np.asarray(grads, dtype=np.float64)
    rows, cols = weight_shape
    if g.ndim != 2 or g.shape[1] != rows * cols:
        raise ValueError(
            f"grads must have shape (samples, {rows * cols}), got {g.shape}"
        )
    if cols % block_size != 0:
        raise ValueError(f"block_size ({block_size}) must divide cols ({cols})")
    if damp <= 0:
        raise ValueError("damp must be positive")
    num_samples = g.shape[0]
    if num_samples == 0:
        raise ValueError("at least one gradient sample is required")
    num_blocks = rows * cols // block_size
    inv_blocks = np.empty((num_blocks, block_size, block_size), dtype=np.float64)
    # (num_blocks, samples, block_size) view of the gradients, processed in
    # chunks so the batched G x G systems stay within a fixed memory budget.
    g_blocks = g.reshape(num_samples, num_blocks, block_size).transpose(1, 0, 2)
    per_block_bytes = 8 * (
        2 * num_samples * num_samples + 3 * num_samples * block_size + block_size * block_size
    )
    chunk = max(1, int((128 * 1024 * 1024) // max(1, per_block_bytes)))
    eye_s = np.eye(num_samples)
    eye_b = np.eye(block_size)
    for lo in range(0, num_blocks, chunk):
        hi = min(lo + chunk, num_blocks)
        gb = np.ascontiguousarray(g_blocks[lo:hi])  # (chunk, samples, block)
        small = gb @ gb.transpose(0, 2, 1) + damp * num_samples * eye_s
        small_inv = np.linalg.inv(small)
        inv_blocks[lo:hi] = (eye_b - (gb.transpose(0, 2, 1) @ small_inv) @ gb) / damp
    return BlockFisher(shape=(rows, cols), block_size=block_size, inverse_blocks=inv_blocks, damp=damp)


def estimate_block_fisher_reference(
    grads: np.ndarray,
    weight_shape: tuple,
    block_size: int,
    damp: float = 1e-4,
) -> BlockFisher:
    """Per-block loop implementation of :func:`estimate_block_fisher`.

    Retained as the equivalence reference for the batched estimator.
    """
    g = np.asarray(grads, dtype=np.float64)
    rows, cols = weight_shape
    if g.ndim != 2 or g.shape[1] != rows * cols:
        raise ValueError(
            f"grads must have shape (samples, {rows * cols}), got {g.shape}"
        )
    if cols % block_size != 0:
        raise ValueError(f"block_size ({block_size}) must divide cols ({cols})")
    num_blocks = rows * cols // block_size
    inv_blocks = np.empty((num_blocks, block_size, block_size), dtype=np.float64)
    for b in range(num_blocks):
        sl = slice(b * block_size, (b + 1) * block_size)
        inv_blocks[b] = woodbury_inverse(g[:, sl], damp=damp)
    return BlockFisher(shape=(rows, cols), block_size=block_size, inverse_blocks=inv_blocks, damp=damp)


def synthetic_gradients(
    weights: np.ndarray,
    num_samples: int = 64,
    noise_scale: float = 0.1,
    correlation_decay: float = 0.5,
    seed: int = 0,
) -> np.ndarray:
    """Generate synthetic per-sample gradients around a trained-like layer.

    The Table 2 substitution (README, "Reproduction ledger") replaces SQuAD
    fine-tuning gradients with a synthetic generator whose statistics mimic
    what second-order pruning relies on: gradient magnitude correlates with
    weight magnitude (well-trained weights sit near a minimum where
    curvature scales with weight scale), plus correlated noise between
    neighbouring weights (token/feature correlation).

    Returns a ``(num_samples, rows*cols)`` float64 array.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("weights must be 2-D")
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    if not 0.0 <= correlation_decay < 1.0:
        raise ValueError("correlation_decay must be in [0, 1)")
    rng = np.random.default_rng(seed)
    d = w.size
    scale = np.abs(w).ravel() + noise_scale * np.abs(w).mean()
    base = rng.standard_normal((num_samples, d))
    # First-order autoregressive smoothing introduces correlations between
    # neighbouring weights, giving the Fisher non-trivial off-diagonals.
    if correlation_decay > 0:
        a = correlation_decay
        try:
            from scipy.signal import lfilter
        except ImportError:
            base = _ar1_filter(base, a)
        else:
            base = lfilter([np.sqrt(1.0 - a * a)], [1.0, -a], base, axis=1)
    return base * scale[None, :]


def _ar1_filter(x: np.ndarray, a: float, block: int = 128) -> np.ndarray:
    """AR(1) recursion ``y[i] = sqrt(1-a²)·x[i] + a·y[i-1]`` along axis 1.

    Pure-NumPy fallback for ``scipy.signal.lfilter`` so the synthetic
    gradient generator (and everything downstream: second-order pruning,
    the Table 2 substitution, ``run_bench.py``) degrades gracefully when
    SciPy is absent.  The recursion is unrolled block-wise with the closed
    form ``y[i] = a^(i+1)·carry + Σ_{j<=i} a^(i-j)·b0·x[j]`` — one small
    lower-triangular Toeplitz matmul per block instead of a per-element
    Python loop — which stays numerically stable because the powers of
    ``a`` never exceed the block length.
    """
    b0 = np.sqrt(1.0 - a * a)
    n = x.shape[1]
    idx = np.arange(min(block, n))
    # T[i, j] = a^(i-j) for j <= i (the block's impulse-response matrix).
    # The exponent is clamped to >= 0 before the mask so small decay values
    # cannot overflow on the (discarded) upper triangle.
    lag = np.maximum(idx[:, None] - idx[None, :], 0)
    toeplitz = np.where(idx[:, None] >= idx[None, :], a ** lag, 0.0)
    decay = a ** (idx + 1.0)
    y = np.empty_like(x, dtype=np.float64)
    carry = np.zeros(x.shape[0], dtype=np.float64)
    for lo in range(0, n, block):
        xb = x[:, lo : lo + block]
        width = xb.shape[1]
        yb = b0 * xb @ toeplitz[:width, :width].T + carry[:, None] * decay[None, :width]
        y[:, lo : lo + width] = yb
        carry = yb[:, -1]
    return y

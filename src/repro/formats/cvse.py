"""Column-Vector Sparse Encoding (CVSE).

CVSE is the storage format of vectorSparse (Chen et al., SC'21) and CLASP
(Castro et al., PACT'22): the matrix is divided into vertical vectors of
``l`` consecutive rows within one column; a vector is stored (densely, all
``l`` elements) whenever any of its elements survives pruning.  Column
indices are therefore shared by the ``l`` elements of a vector, which is
what lets those libraries feed Tensor Cores with semi-structured data.

The reproduction uses this format as the substrate of the CLASP baseline
(Figure 13, the ``vw_l`` columns) and for the vector-wise entries of the
energy study (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .base import FormatFootprint, SparseFormat, as_float_matrix
from ..hardware.memory import dtype_bytes


@dataclass
class CVSEMatrix(SparseFormat):
    """A matrix stored as column-vectors of length ``l``.

    Attributes
    ----------
    data:
        ``(num_vectors, l)`` float32 array; each row is one stored vertical
        vector (all ``l`` elements of the vector, zeros included).
    vector_cols:
        ``(num_vectors,)`` column index of each stored vector.
    vector_ptr:
        ``(num_row_blocks + 1,)`` pointer array: row-block ``b`` (rows
        ``b*l .. (b+1)*l``) owns vectors ``vector_ptr[b]:vector_ptr[b+1]``.
    l:
        Vector length (the paper evaluates l in {2, 4, 8, 16, 32}).
    nrows / ncols_total:
        Logical matrix shape.
    """

    data: np.ndarray
    vector_cols: np.ndarray
    vector_ptr: np.ndarray
    l: int
    nrows: int
    ncols_total: int
    format_name: str = "cvse"

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        self.vector_cols = np.ascontiguousarray(self.vector_cols, dtype=np.int64)
        self.vector_ptr = np.ascontiguousarray(self.vector_ptr, dtype=np.int64)
        if self.l <= 0:
            raise ValueError("vector length l must be positive")
        if self.nrows % self.l != 0:
            raise ValueError(f"rows ({self.nrows}) must be divisible by the vector length ({self.l})")
        if self.data.ndim != 2 or self.data.shape[1] != self.l:
            raise ValueError(f"data must have shape (num_vectors, l={self.l})")
        if self.vector_cols.shape != (self.data.shape[0],):
            raise ValueError("vector_cols must have one entry per stored vector")
        n_blocks = self.nrows // self.l
        if self.vector_ptr.shape != (n_blocks + 1,):
            raise ValueError("vector_ptr must have num_row_blocks + 1 entries")
        if self.vector_ptr[0] != 0 or self.vector_ptr[-1] != self.data.shape[0]:
            raise ValueError("vector_ptr must start at 0 and end at num_vectors")
        if np.any(np.diff(self.vector_ptr) < 0):
            raise ValueError("vector_ptr must be non-decreasing")
        if self.vector_cols.size and (
            self.vector_cols.min() < 0 or self.vector_cols.max() >= self.ncols_total
        ):
            raise ValueError("vector column indices out of range")

    # ------------------------------------------------------------------
    # Construction / reconstruction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray, l: int = 8, tol: float = 0.0) -> "CVSEMatrix":
        """Store every length-``l`` column vector that contains a non-zero.

        One pass over the row blocks, each gathering its kept vectors in
        ascending column order.  A batched rewrite (one ``np.nonzero`` over
        all blocks) produced the same bits but was at best level with this
        loop on 256- to 4096-row V:N:M weights, so the loop is the only path.
        """
        arr = as_float_matrix(dense)
        rows, cols = arr.shape
        if l <= 0:
            raise ValueError("vector length l must be positive")
        if rows % l != 0:
            raise ValueError(f"rows ({rows}) must be divisible by l ({l})")
        n_blocks = rows // l
        blocks = arr.reshape(n_blocks, l, cols)
        keep = np.abs(blocks).max(axis=1) > tol  # (n_blocks, cols)

        data_rows = []
        vec_cols = []
        ptr = np.zeros(n_blocks + 1, dtype=np.int64)
        for b in range(n_blocks):
            cols_b = np.nonzero(keep[b])[0]
            ptr[b + 1] = ptr[b] + cols_b.size
            if cols_b.size:
                data_rows.append(blocks[b][:, cols_b].T)  # (n_kept, l)
                vec_cols.append(cols_b)
        data = np.concatenate(data_rows, axis=0) if data_rows else np.zeros((0, l), dtype=np.float32)
        vector_cols = np.concatenate(vec_cols) if vec_cols else np.zeros(0, dtype=np.int64)
        return cls(
            data=data,
            vector_cols=vector_cols,
            vector_ptr=ptr,
            l=l,
            nrows=rows,
            ncols_total=cols,
        )

    #: The same loop under its former name: the legacy kernel-pair record
    #: (``benchmarks/run_bench.py``) still times it against :meth:`from_dense`.
    from_dense_reference = from_dense

    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense ``(nrows, ncols_total)`` matrix.

        Single vectorized scatter of all stored vectors;
        :meth:`to_dense_reference` keeps the nested loop for the tests.
        """
        dense = np.zeros((self.nrows, self.ncols_total), dtype=np.float32)
        if self.data.shape[0]:
            n_blocks = self.nrows // self.l
            blk_of_vec = np.repeat(
                np.arange(n_blocks, dtype=np.int64), np.diff(self.vector_ptr)
            )
            dense.reshape(n_blocks, self.l, self.ncols_total)[
                blk_of_vec, :, self.vector_cols
            ] = self.data
        return dense

    def to_dense_reference(self) -> np.ndarray:
        """Per-vector loop implementation of :meth:`to_dense` (for tests)."""
        dense = np.zeros((self.nrows, self.ncols_total), dtype=np.float32)
        n_blocks = self.nrows // self.l
        for b in range(n_blocks):
            lo, hi = self.vector_ptr[b], self.vector_ptr[b + 1]
            for vec_idx in range(lo, hi):
                col = self.vector_cols[vec_idx]
                dense[b * self.l : (b + 1) * self.l, col] = self.data[vec_idx]
        return dense

    # ------------------------------------------------------------------
    # SparseFormat interface
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols_total)

    @property
    def nnz(self) -> int:
        """Explicitly stored elements (every element of every kept vector)."""
        return int(self.data.size)

    def footprint(self, precision: str = "fp16") -> FormatFootprint:
        """Vector values at ``precision`` + one 4-byte column index per vector."""
        return FormatFootprint(
            values_bytes=self.data.size * dtype_bytes(precision),
            metadata_bytes=0.0,
            index_bytes=self.vector_cols.size * 4.0 + self.vector_ptr.size * 4.0,
        )

    # ------------------------------------------------------------------
    # Statistics for the CLASP cost model
    # ------------------------------------------------------------------
    @property
    def num_vectors(self) -> int:
        """Number of stored column vectors."""
        return int(self.data.shape[0])

    def vectors_per_block(self) -> np.ndarray:
        """Number of stored vectors for each row block."""
        return np.diff(self.vector_ptr)

    def load_imbalance(self) -> float:
        """Max vectors-per-block divided by the mean (1.0 = balanced)."""
        counts = self.vectors_per_block()
        mean = counts.mean() if counts.size else 0.0
        if mean == 0:
            return 1.0
        return float(counts.max() / mean)

    def effective_density(self) -> float:
        """Stored elements over logical size (includes intra-vector zeros)."""
        return self.nnz / float(self.nrows * self.ncols_total)

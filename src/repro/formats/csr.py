"""Compressed Sparse Row (CSR) format.

CSR is the substrate of the Sputnik baseline (Gale et al., SC'20): one
row-pointer array, one column-index array and one value array.  Sputnik's
one-dimensional tiling scheme operates directly on this layout, so the
reproduction includes a complete CSR implementation (construction from a
dense/pruned matrix, reconstruction, row-slicing, and load-imbalance
statistics that Sputnik's performance model consumes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .base import FormatFootprint, SparseFormat, as_float_matrix
from ..hardware.memory import dtype_bytes


@dataclass
class CSRMatrix(SparseFormat):
    """A matrix in CSR layout.

    Attributes
    ----------
    data:
        Non-zero values in row-major order, shape ``(nnz,)``.
    indices:
        Column index of each value, shape ``(nnz,)``.
    indptr:
        Row pointer array, shape ``(rows + 1,)``; row ``i`` owns
        ``data[indptr[i]:indptr[i+1]]``.
    ncols:
        Number of logical columns.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    ncols: int
    format_name: str = "csr"

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        if self.data.ndim != 1 or self.indices.ndim != 1 or self.indptr.ndim != 1:
            raise ValueError("data, indices and indptr must be 1-D arrays")
        if self.data.size != self.indices.size:
            raise ValueError("data and indices must have the same length")
        if self.indptr.size < 1 or self.indptr[0] != 0 or self.indptr[-1] != self.data.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.ncols <= 0:
            raise ValueError("ncols must be positive")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.ncols):
            raise ValueError("column indices out of range")

    # ------------------------------------------------------------------
    # Construction / reconstruction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "CSRMatrix":
        """Build a CSR matrix from the non-zeros of ``dense``."""
        arr = as_float_matrix(dense)
        rows, cols = arr.shape
        mask = np.abs(arr) > tol
        counts = mask.sum(axis=1)
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        rows_idx, cols_idx = np.nonzero(mask)
        order = np.lexsort((cols_idx, rows_idx))
        return cls(
            data=arr[rows_idx[order], cols_idx[order]],
            indices=cols_idx[order],
            indptr=indptr,
            ncols=cols,
        )

    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense ``(rows, ncols)`` matrix.

        One vectorized scatter: every value's row index is expanded from the
        row-pointer array and the whole matrix is written with a single
        fancy assignment.  :meth:`to_dense_reference` keeps the per-row loop
        as the equivalence reference.
        """
        rows = self.indptr.size - 1
        dense = np.zeros((rows, self.ncols), dtype=np.float32)
        if self.data.size:
            row_idx = np.repeat(np.arange(rows, dtype=np.int64), np.diff(self.indptr))
            dense[row_idx, self.indices] = self.data
        return dense

    def to_dense_reference(self) -> np.ndarray:
        """Per-row loop implementation of :meth:`to_dense` (kept for tests)."""
        rows = self.indptr.size - 1
        dense = np.zeros((rows, self.ncols), dtype=np.float32)
        for r in range(rows):
            lo, hi = self.indptr[r], self.indptr[r + 1]
            dense[r, self.indices[lo:hi]] = self.data[lo:hi]
        return dense

    # ------------------------------------------------------------------
    # SparseFormat interface
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.indptr.size - 1, self.ncols)

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def footprint(self, precision: str = "fp16") -> FormatFootprint:
        """Values at ``precision`` + 4-byte column indices + row pointers."""
        return FormatFootprint(
            values_bytes=self.data.size * dtype_bytes(precision),
            metadata_bytes=0.0,
            index_bytes=self.indices.size * 4.0 + self.indptr.size * 4.0,
        )

    # ------------------------------------------------------------------
    # Statistics used by the Sputnik cost model
    # ------------------------------------------------------------------
    def row_lengths(self) -> np.ndarray:
        """Number of non-zeros per row."""
        return np.diff(self.indptr)

    def load_imbalance(self) -> float:
        """Max row length divided by mean row length (1.0 = balanced).

        DL weight matrices pruned unstructuredly show pronounced imbalance,
        which is one of the effects the paper cites (Section 3) as limiting
        non-structured kernels like Sputnik.
        """
        lengths = self.row_lengths()
        mean = lengths.mean() if lengths.size else 0.0
        if mean == 0:
            return 1.0
        return float(lengths.max() / mean)

"""Row-wise N:M format (NVIDIA's native Sparse Tensor Core layout).

Figure 1 of the paper: a matrix pruned to the row-wise 2:4 pattern (at most
two non-zeros in every group of four consecutive columns) is stored as

* a ``R x K/2`` array with the non-zero values, and
* a 2-bit metadata index per stored value giving its position within its
  group of four columns.

This module implements the general N:M version of that layout (the
hardware only supports 1:2 and 2:4, but the software format generalises,
and the V:N:M format reuses these building blocks for its inner 2:4
stage).  Compression is bit-exact and reversible: ``NMSparseMatrix`` stores
exactly ``N`` values per group, padding groups that have fewer natural
non-zeros with explicit zeros, and round-trips to the original dense matrix
as long as that matrix obeys the N:M constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .base import FormatFootprint, SparseFormat, as_float_matrix
from .metadata import metadata_bytes, validate_indices
from ..hardware.memory import dtype_bytes


def check_nm_pattern(matrix: np.ndarray, n: int, m: int, tol: float = 0.0) -> bool:
    """True when every row-wise group of ``m`` columns has <= ``n`` non-zeros."""
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError("matrix must be 2-D")
    rows, cols = arr.shape
    if cols % m != 0:
        return False
    grouped = np.abs(arr).reshape(rows, cols // m, m) > tol
    return bool(np.all(grouped.sum(axis=2) <= n))


def nm_violations(matrix: np.ndarray, n: int, m: int, tol: float = 0.0) -> int:
    """Number of (row, group) pairs violating the N:M constraint."""
    arr = np.asarray(matrix)
    rows, cols = arr.shape
    if cols % m != 0:
        raise ValueError(f"columns ({cols}) must be divisible by M ({m})")
    grouped = np.abs(arr).reshape(rows, cols // m, m) > tol
    return int(np.count_nonzero(grouped.sum(axis=2) > n))


@dataclass
class NMSparseMatrix(SparseFormat):
    """A matrix stored in the row-wise N:M compressed layout.

    Attributes
    ----------
    values:
        ``(R, K/M * N)`` float32 array of stored values (zero-padded when a
        group has fewer than N natural non-zeros).
    indices:
        ``(R, K/M * N)`` uint8 array with the in-group column position of
        each stored value (each entry in ``[0, M)``), ascending within a
        group.
    n, m:
        The N:M pattern.
    k:
        Number of logical columns of the original matrix.
    """

    values: np.ndarray
    indices: np.ndarray
    n: int
    m: int
    k: int
    format_name: str = "nm"

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        self.indices = validate_indices(self.indices, group_size=self.m).reshape(self.values.shape)
        if self.n <= 0 or self.m <= 0 or self.n > self.m:
            raise ValueError(f"invalid N:M pattern {self.n}:{self.m}")
        if self.k % self.m != 0:
            raise ValueError(f"K ({self.k}) must be divisible by M ({self.m})")
        expected = (self.k // self.m) * self.n
        if self.values.ndim != 2 or self.values.shape[1] != expected:
            raise ValueError(
                f"values must have shape (R, K/M*N) = (R, {expected}), got {self.values.shape}"
            )
        if self.indices.shape != self.values.shape:
            raise ValueError("indices must have the same shape as values")

    # ------------------------------------------------------------------
    # Construction / reconstruction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(
        cls, dense: np.ndarray, n: int = 2, m: int = 4, strict: bool = True, tol: float = 0.0
    ) -> "NMSparseMatrix":
        """Compress a dense matrix that already obeys the N:M pattern.

        Parameters
        ----------
        dense:
            ``(R, K)`` matrix.  With ``strict=True`` (default) a
            ``ValueError`` is raised if any group of ``m`` columns holds
            more than ``n`` non-zeros; with ``strict=False`` the ``n``
            largest-magnitude entries of each group are kept (i.e. the
            compression itself performs magnitude N:M pruning).
        """
        arr = as_float_matrix(dense)
        rows, cols = arr.shape
        if n <= 0 or m <= 0 or n > m:
            raise ValueError(f"invalid N:M pattern {n}:{m}")
        if cols % m != 0:
            raise ValueError(f"K ({cols}) must be divisible by M ({m})")
        if strict and not check_nm_pattern(arr, n, m, tol=tol):
            raise ValueError(
                f"matrix violates the {n}:{m} pattern in {nm_violations(arr, n, m, tol)} groups; "
                "prune it first or pass strict=False"
            )
        groups = arr.reshape(rows, cols // m, m)
        # Keep the n largest magnitudes per group.  For compliant matrices
        # this selects exactly the non-zeros (plus zero padding); argsort is
        # stable so ties resolve to the lowest column index.
        order = np.argsort(-np.abs(groups), axis=2, kind="stable")[:, :, :n]
        order = np.sort(order, axis=2)
        values = np.take_along_axis(groups, order, axis=2)
        return cls(
            values=values.reshape(rows, -1),
            indices=order.reshape(rows, -1).astype(np.uint8),
            n=n,
            m=m,
            k=cols,
        )

    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense ``(R, K)`` matrix."""
        rows = self.values.shape[0]
        groups = self.k // self.m
        dense = np.zeros((rows, groups, self.m), dtype=np.float32)
        vals = self.values.reshape(rows, groups, self.n)
        idx = self.indices.reshape(rows, groups, self.n).astype(np.int64)
        np.put_along_axis(dense, idx, vals, axis=2)
        return dense.reshape(rows, self.k)

    # ------------------------------------------------------------------
    # SparseFormat interface
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.values.shape[0], self.k)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def footprint(self, precision: str = "fp16") -> FormatFootprint:
        """Compressed footprint: values at ``precision`` + 2-bit metadata."""
        return FormatFootprint(
            values_bytes=self.values.size * dtype_bytes(precision),
            metadata_bytes=metadata_bytes(self.values.size),
            index_bytes=0.0,
        )

    # ------------------------------------------------------------------
    # Extras used by kernels and tests
    # ------------------------------------------------------------------
    @property
    def groups_per_row(self) -> int:
        """Number of M-column groups per row."""
        return self.k // self.m

    def column_indices(self) -> np.ndarray:
        """Absolute column index of every stored value, shape like ``values``."""
        rows = self.values.shape[0]
        groups = self.groups_per_row
        base = (np.arange(groups, dtype=np.int64) * self.m)[None, :, None]
        idx = self.indices.reshape(rows, groups, self.n).astype(np.int64)
        return (base + idx).reshape(rows, -1)

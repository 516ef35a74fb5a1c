"""The V:N:M format — the paper's primary storage contribution (Section 3).

A dense ``R x K`` matrix is partitioned into blocks of ``V x M`` elements.
Within each block, the vector-wise stage keeps the four "most significant"
columns (the ones chosen by the pruning algorithm), and the N:M stage keeps
``N`` values in every row of those four columns — so the physically stored
pattern is always N:4 (2:4 in practice), which is exactly what Sparse
Tensor Cores accept, while the logical pattern is N:M with arbitrary ``M``.

The compressed representation (Figure 3) consists of three arrays:

``values``
    ``R x (K/M * N)`` non-zero values.
``m_indices``
    one 2-bit index per value: the position of the value among the four
    *selected* columns of its block (not among the M original columns).
``column_loc``
    ``R/V x (K/M * 4)`` column indices: which four of the M columns of each
    block were kept by the vector-wise stage.

``VNMSparseMatrix`` performs bit-exact compression/decompression and exposes
the derived quantities the kernels need (a condensed ``R x K/M*4`` view of
the selected columns, the Figure-7 storage order, footprints).

The derived views (:meth:`to_condensed`, :meth:`selected_column_indices`,
:meth:`packed_metadata`) are memoized per instance: the compressed arrays
never change after construction, so every caller — the Spatha execution
plan, repeated layer forwards — pays the derivation once.  The returned
arrays are shared and must be treated as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .base import FormatFootprint, SparseFormat, as_float_matrix
from .metadata import metadata_bytes, pack_indices, validate_indices
from ..hardware.memory import dtype_bytes

#: Number of columns the vector-wise stage keeps per block; fixed at 4 so
#: that the remaining pattern maps onto the hardware's 2:4 support.
SELECTED_COLUMNS = 4


def check_vnm_pattern(matrix: np.ndarray, v: int, n: int, m: int, tol: float = 0.0) -> bool:
    """True when ``matrix`` obeys the V:N:M pattern.

    Two conditions are checked for every ``V x M`` block: (1) non-zeros
    appear in at most four distinct columns of the block, and (2) every row
    of the block holds at most ``n`` non-zeros.
    """
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError("matrix must be 2-D")
    rows, cols = arr.shape
    if rows % v != 0 or cols % m != 0:
        return False
    nz = np.abs(arr) > tol
    blocks = nz.reshape(rows // v, v, cols // m, m)
    col_used = blocks.any(axis=1)  # (R/V, K/M, M)
    if np.any(col_used.sum(axis=2) > SELECTED_COLUMNS):
        return False
    per_row = blocks.sum(axis=3)  # (R/V, V, K/M)
    return bool(np.all(per_row <= n))


def validate_vnm_shape(rows: int, cols: int, v: int, n: int, m: int) -> None:
    """Raise ``ValueError`` when (rows, cols) cannot hold a V:N:M pattern."""
    if v <= 0 or n <= 0 or m <= 0:
        raise ValueError(f"V, N, M must be positive, got {v}:{n}:{m}")
    if m < SELECTED_COLUMNS:
        raise ValueError(f"M ({m}) must be >= {SELECTED_COLUMNS} for the V:N:M format")
    if n > SELECTED_COLUMNS:
        raise ValueError(f"N ({n}) must be <= {SELECTED_COLUMNS} so the pattern maps onto 2:4 SPTCs")
    if rows % v != 0:
        raise ValueError(f"rows ({rows}) must be divisible by V ({v})")
    if cols % m != 0:
        raise ValueError(f"cols ({cols}) must be divisible by M ({m})")


@dataclass
class VNMSparseMatrix(SparseFormat):
    """A matrix stored in the V:N:M compressed layout (Figure 3)."""

    values: np.ndarray
    m_indices: np.ndarray
    column_loc: np.ndarray
    v: int
    n: int
    m: int
    k: int
    format_name: str = "vnm"

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        self.m_indices = validate_indices(self.m_indices, group_size=SELECTED_COLUMNS).reshape(
            self.values.shape
        )
        self.column_loc = np.ascontiguousarray(self.column_loc, dtype=np.int32)
        rows = self.values.shape[0]
        validate_vnm_shape(rows, self.k, self.v, self.n, self.m)
        groups = self.k // self.m
        if self.values.shape != (rows, groups * self.n):
            raise ValueError(
                f"values must have shape (R, K/M*N) = ({rows}, {groups * self.n}), got {self.values.shape}"
            )
        if self.column_loc.shape != (rows // self.v, groups * SELECTED_COLUMNS):
            raise ValueError(
                "column_loc must have shape (R/V, K/M*4) = "
                f"({rows // self.v}, {groups * SELECTED_COLUMNS}), got {self.column_loc.shape}"
            )
        if self.column_loc.size and (self.column_loc.min() < 0 or self.column_loc.max() >= self.m):
            raise ValueError(f"column_loc entries must lie in [0, M={self.m})")
        # Memo for the derived views (and the kernels' execution plan).  The
        # compressed arrays are immutable after construction, so the cache
        # is only ever invalidated by constructing a new matrix.
        self._memo: dict = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        v: int,
        n: int = 2,
        m: int = 8,
        strict: bool = True,
        tol: float = 0.0,
    ) -> "VNMSparseMatrix":
        """Compress a dense matrix into the V:N:M layout.

        With ``strict=True`` the matrix must already obey the V:N:M pattern
        (typically produced by :mod:`repro.pruning.vnm` or the second-order
        pruner); a ``ValueError`` is raised otherwise.  With
        ``strict=False`` the compressor itself applies magnitude V:N:M
        pruning: per block it keeps the four columns with the largest L1
        mass and then the ``n`` largest magnitudes per row among them.
        """
        arr = as_float_matrix(dense)
        rows, cols = arr.shape
        validate_vnm_shape(rows, cols, v, n, m)
        if strict and not check_vnm_pattern(arr, v, n, m, tol=tol):
            raise ValueError(
                f"matrix violates the {v}:{n}:{m} pattern; prune it first or pass strict=False"
            )
        row_blocks = rows // v
        groups = cols // m
        blocks = arr.reshape(row_blocks, v, groups, m)

        # Vector-wise stage: pick the 4 columns per (row-block, group) with
        # the largest L1 mass.  For strict (already pruned) inputs this
        # recovers the columns that hold the non-zeros.
        mass = np.abs(blocks).sum(axis=1)  # (R/V, K/M, M)
        col_order = np.argsort(-mass, axis=2, kind="stable")[:, :, :SELECTED_COLUMNS]
        col_order = np.sort(col_order, axis=2)  # ascending column order within the block
        column_loc = col_order.reshape(row_blocks, groups * SELECTED_COLUMNS).astype(np.int32)

        # Gather the selected columns: (R/V, V, K/M, 4)
        gather_idx = col_order[:, None, :, :]
        gather_idx = np.broadcast_to(gather_idx, (row_blocks, v, groups, SELECTED_COLUMNS))
        selected = np.take_along_axis(blocks, gather_idx, axis=3)

        # N:4 stage: keep the n largest magnitudes per row of the selected
        # columns (ties resolve to the lowest position, stable sort).
        pos_order = np.argsort(-np.abs(selected), axis=3, kind="stable")[:, :, :, :n]
        pos_order = np.sort(pos_order, axis=3)
        values = np.take_along_axis(selected, pos_order, axis=3)

        return cls(
            values=values.reshape(rows, groups * n),
            m_indices=pos_order.reshape(rows, groups * n).astype(np.uint8),
            column_loc=column_loc,
            v=v,
            n=n,
            m=m,
            k=cols,
        )

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense ``(R, K)`` matrix."""
        rows = self.values.shape[0]
        groups = self.k // self.m
        row_blocks = rows // self.v

        vals = self.values.reshape(row_blocks, self.v, groups, self.n)
        midx = self.m_indices.reshape(row_blocks, self.v, groups, self.n).astype(np.int64)
        cloc = self.column_loc.reshape(row_blocks, groups, SELECTED_COLUMNS).astype(np.int64)

        # Scatter values into the 4 selected columns, then scatter those
        # columns into the M columns of the block.
        selected = np.zeros((row_blocks, self.v, groups, SELECTED_COLUMNS), dtype=np.float32)
        np.put_along_axis(selected, midx, vals, axis=3)

        dense_blocks = np.zeros((row_blocks, self.v, groups, self.m), dtype=np.float32)
        scatter_idx = np.broadcast_to(
            cloc[:, None, :, :], (row_blocks, self.v, groups, SELECTED_COLUMNS)
        )
        np.put_along_axis(dense_blocks, scatter_idx, selected, axis=3)
        return dense_blocks.reshape(rows, self.k)

    def to_condensed(self) -> np.ndarray:
        """Return the ``R x (K/M*4)`` matrix of the selected columns.

        This is the dense "LHS after vector-wise pruning" view of Figure 4:
        for every block the four selected columns are gathered side by side.
        The inner 2:4 structure is still present in this view (each group of
        four holds ``n`` non-zeros); it is the operand shape the SPTC
        ultimately consumes after metadata expansion.  The result is
        memoized; treat it as read-only.
        """
        cached = self._memo.get("condensed")
        if cached is not None:
            return cached
        rows = self.values.shape[0]
        groups = self.k // self.m
        row_blocks = rows // self.v
        vals = self.values.reshape(row_blocks, self.v, groups, self.n)
        midx = self.m_indices.reshape(row_blocks, self.v, groups, self.n).astype(np.int64)
        selected = np.zeros((row_blocks, self.v, groups, SELECTED_COLUMNS), dtype=np.float32)
        np.put_along_axis(selected, midx, vals, axis=3)
        condensed = selected.reshape(rows, groups * SELECTED_COLUMNS)
        condensed.setflags(write=False)
        self._memo["condensed"] = condensed
        return condensed

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
        """Values + 2-bit m-indices + column-loc (one byte per entry).

        ``column_loc`` entries index one of M columns; the reference
        implementation stores them as bytes (M <= 256 in every experiment),
        matching the paper's accounting that the structure is small
        (``R/V x K/M x 4`` entries).
        """
        return FormatFootprint(
            values_bytes=self.values.size * dtype_bytes(precision),
            metadata_bytes=metadata_bytes(self.values.size),
            index_bytes=float(self.column_loc.size),
        )

    # ------------------------------------------------------------------
    # Derived views used by kernels and tests
    # ------------------------------------------------------------------
    @property
    def groups_per_row(self) -> int:
        """Number of M-column groups per row."""
        return self.k // self.m

    @property
    def row_blocks(self) -> int:
        """Number of V-row blocks."""
        return self.values.shape[0] // self.v

    @property
    def logical_sparsity(self) -> float:
        """Sparsity implied by the N:M ratio (``1 - N/M``)."""
        return 1.0 - self.n / self.m

    def selected_column_indices(self) -> np.ndarray:
        """Absolute columns chosen by the vector-wise stage, ``(R/V, K/M*4)``.

        Memoized; treat the result as read-only.
        """
        cached = self._memo.get("selected_column_indices")
        if cached is not None:
            return cached
        groups = self.groups_per_row
        base = np.repeat(np.arange(groups, dtype=np.int64) * self.m, SELECTED_COLUMNS)[None, :]
        result = self.column_loc.astype(np.int64) + base
        result.setflags(write=False)
        self._memo["selected_column_indices"] = result
        return result

    def packed_metadata(self) -> np.ndarray:
        """The 2-bit m-indices packed into uint32 words (row-major).

        Memoized; treat the result as read-only.
        """
        cached = self._memo.get("packed_metadata")
        if cached is not None:
            return cached
        result = pack_indices(self.m_indices.ravel())
        result.setflags(write=False)
        self._memo["packed_metadata"] = result
        return result

    def storage_order_values(self, ws_m: int = 32, mma_k: int = 32) -> np.ndarray:
        """Linearise ``values`` in the Figure-7 storage order.

        The kernel stores the non-zero structure so that the values consumed
        by one ``mma.sp`` warp tile are contiguous: values are traversed in
        tiles of ``ws_m`` rows by ``mma_k/2 * n / 2`` stored columns... in
        this reference implementation we reproduce the two key properties of
        the layout rather than its exact byte ordering: (1) values of one
        warp row-tile are contiguous, (2) within a row-tile, groups of four
        consecutive stored values (8 bytes in fp16, i.e. half of a 128-bit
        transaction per thread pair) stay contiguous.  Returns a 1-D array
        that is a permutation of ``values.ravel()``.

        The permutation is applied with a single pad-transpose-mask pass;
        :meth:`storage_order_values_reference` retains the per-tile loop and
        the two are asserted bit-equal in the tests.
        """
        rows, stored = self.values.shape
        if ws_m <= 0 or mma_k <= 0:
            raise ValueError("ws_m and mma_k must be positive")
        if rows == 0 or stored == 0:
            return np.zeros(0, dtype=np.float32)
        tile_rows = min(ws_m, rows)
        chunk = 4  # stored values grouped per 64-bit half-transaction
        rows_pad = -(-rows // tile_rows) * tile_rows
        stored_pad = -(-stored // chunk) * chunk
        padded = np.zeros((rows_pad, stored_pad), dtype=self.values.dtype)
        padded[:rows, :stored] = self.values
        real = np.zeros((rows_pad, stored_pad), dtype=bool)
        real[:rows, :stored] = True

        def linearise(arr: np.ndarray) -> np.ndarray:
            tiles = arr.reshape(rows_pad // tile_rows, tile_rows, stored_pad // chunk, chunk)
            return tiles.transpose(0, 2, 1, 3).ravel()

        return linearise(padded)[linearise(real)]

    def storage_order_values_reference(self, ws_m: int = 32, mma_k: int = 32) -> np.ndarray:
        """Loop implementation of :meth:`storage_order_values` (kept as the
        equivalence reference for the vectorized path)."""
        rows, stored = self.values.shape
        if ws_m <= 0 or mma_k <= 0:
            raise ValueError("ws_m and mma_k must be positive")
        tile_rows = min(ws_m, rows)
        chunk = 4  # stored values grouped per 64-bit half-transaction
        out = []
        for r0 in range(0, rows, tile_rows):
            tile = self.values[r0 : r0 + tile_rows]
            n_chunks = (stored + chunk - 1) // chunk
            for c in range(n_chunks):
                out.append(tile[:, c * chunk : (c + 1) * chunk].ravel())
        return np.concatenate(out) if out else np.zeros(0, dtype=np.float32)

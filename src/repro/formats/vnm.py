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

Selection
---------
Magnitude V:N:M pruning (:func:`repro.pruning.vnm.vnm_mask`) and the
compressor (:meth:`VNMSparseMatrix.from_dense`) pick their survivors with
one routine, :func:`vnm_select`, and one mass rule: a column's saliency in
its block is its l1 (or l2) mass summed in float64, whatever the input
dtype, so a float32 weight ranks exactly as its float64 copy would.  The
tie rule: in each block the four columns of largest saliency survive and
in each row of those the ``n`` largest magnitudes; equal scores go to the
lower position and NaN ranks below every number — the order a stable
``argsort`` of the negated scores gives.  :func:`vnm_select_reference` is
that argsort, kept as the executable spec; the two agree bit for bit.
Gathers and scatters between an ``R x K`` matrix and its ``R x K/M*4``
selected columns go through one flat index built from
:meth:`VNMSparseMatrix.selected_column_indices`.

A strict compression (``from_dense(strict=True)``) stores every entry
whose magnitude is above ``tol`` or refuses the matrix: it selects first,
then compares how many entries above ``tol`` the matrix holds with how
many it stored.  At ``tol = 0`` on finite input that accepts exactly what
:func:`check_vnm_pattern`, the public pattern rule, accepts.

The derived views (:meth:`to_condensed`, :meth:`selected_column_indices`,
:meth:`packed_metadata`) are memoized per instance: the compressed arrays
never change after construction, so every caller pays the derivation
once.  The returned arrays are shared and must be treated as read-only.
The Spatha execution plan takes only the indices: it condenses its
fp16-rounded ``values`` with :func:`condense`, so an operand that is only
ever executed keeps no fp32 copy of its selected columns and packs no
metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .base import FormatFootprint, SparseFormat, as_float_matrix, empty_aligned
from .metadata import metadata_bytes, pack_indices, validate_indices
from ..hardware.memory import dtype_bytes

#: Number of columns the vector-wise stage keeps per block; fixed at 4 so
#: that the remaining pattern maps onto the hardware's 2:4 support.
SELECTED_COLUMNS = 4


def check_vnm_pattern(matrix: np.ndarray, v: int, n: int, m: int, tol: float = 0.0) -> bool:
    """True when ``matrix`` obeys the V:N:M pattern.

    Two conditions are checked for every ``V x M`` block: (1) non-zeros
    (magnitudes above ``tol``) appear in at most four distinct columns of
    the block, and (2) every row of the block holds at most ``n`` of them.
    :meth:`VNMSparseMatrix.from_dense` with ``strict=True`` asks for more
    — that its selection store every such entry — and at ``tol = 0`` on
    finite input the two agree.
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


class VNMSelection(NamedTuple):
    """What V:N:M selection keeps of an ``R x K`` matrix."""

    #: ``(R/V, K/M*4)`` int64 absolute columns of every block, ascending.
    columns: np.ndarray
    #: ``(R, K/M*4)`` the matrix at those columns.
    selected: np.ndarray
    #: ``(R, K/M*4)`` bool: the ``n`` survivors in every group of four.
    keep: np.ndarray


def _check_norm(norm: str) -> None:
    if norm not in ("l1", "l2"):
        raise ValueError(f"unknown norm {norm!r}; use 'l1' or 'l2'")


def _argsort_block_columns(arr: np.ndarray, v: int, m: int, norm: str) -> np.ndarray:
    """Stable argsort of the negated ``norm`` mass of every column of every
    ``V x M`` block: in-block indices ``(R/V, K/M, 4)``, ascending."""
    _check_norm(norm)
    rows, cols = arr.shape
    blocks = arr.reshape(rows // v, v, cols // m, m)
    if norm == "l1":
        mass = np.abs(blocks).sum(axis=1, dtype=np.float64)
    else:
        mass = np.sqrt(np.square(blocks, dtype=np.float64).sum(axis=1))
    order = np.argsort(-mass, axis=2, kind="stable")[:, :, :SELECTED_COLUMNS]
    return np.sort(order, axis=2)


def select_block_columns(arr: np.ndarray, v: int, m: int, norm: str = "l1") -> np.ndarray:
    """Columns kept by the vector-wise stage for every ``V x M`` block.

    Returns an int64 array of shape ``(R/V, K/M, 4)`` with the in-block
    indices (ascending) of the four columns of largest ``norm`` mass,
    summed in float64 whatever ``arr``'s dtype (read-only when M = 4:
    every column survives and no mass is ranked).
    """
    if m == SELECTED_COLUMNS:
        _check_norm(norm)
        rows, cols = arr.shape
        return np.broadcast_to(np.arange(m, dtype=np.int64), (rows // v, cols // m, m))
    return _argsort_block_columns(arr, v, m, norm)


def _absolute_columns(in_block: np.ndarray, m: int) -> np.ndarray:
    """``(R/V, K/M, 4)`` in-block indices as ``(R/V, K/M*4)`` matrix columns."""
    groups = in_block.shape[1]
    return (in_block + np.arange(groups, dtype=np.int64)[:, None] * m).reshape(in_block.shape[0], -1)


def _flat_index(columns: np.ndarray, rows: int, k: int) -> np.ndarray:
    """Flat positions in a C-ordered ``(rows, k)`` matrix of every row's
    selected ``columns`` (one row of ``columns`` per ``V``-row block)."""
    row_blocks, width = columns.shape
    base = (np.arange(rows, dtype=np.int64) * k).reshape(row_blocks, rows // row_blocks, 1)
    return (base + columns[:, None, :]).reshape(rows, width)


def _gather_columns(arr: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``arr`` (C-contiguous ``R x K``) at its blocks' selected ``columns``.

    When every column is selected (M = 4) that is ``arr`` itself, shared.
    """
    if columns.shape[1] == arr.shape[1]:
        return arr
    return np.take(arr.reshape(-1), _flat_index(columns, *arr.shape))


def scatter_columns(condensed: np.ndarray, columns: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`_gather_columns`: a new ``R x k`` matrix holding
    ``condensed`` at the selected ``columns`` and zeros elsewhere,
    allocated :data:`~repro.formats.base.ALIGNMENT`-byte aligned (the
    Spatha plan's ``dense16`` is built here)."""
    rows = condensed.shape[0]
    out = empty_aligned(rows * k, condensed.dtype)
    if columns.shape[1] == k:
        out[...] = condensed.reshape(-1)
    else:
        out.fill(0)
        out[_flat_index(columns, rows, k)] = condensed
    return out.reshape(rows, k)


def condense(values: np.ndarray, m_indices: np.ndarray, n: int) -> np.ndarray:
    """A new ``R x (K/M*4)`` float32 condensed operand: the ``R x (K/M*n)``
    stored ``values`` placed at their ``m_indices`` within each group of
    four, zeros elsewhere.

    Not memoized: :meth:`VNMSparseMatrix.to_condensed` caches the result
    for its callers, while the Spatha plan condenses its fp16-rounded
    ``values`` straight into the operand it keeps, so the result is
    allocated :data:`~repro.formats.base.ALIGNMENT`-byte aligned.
    """
    rows = values.shape[0]
    slots = values.size // n
    index = m_indices.reshape(slots, n) + (np.arange(slots, dtype=np.int64) * SELECTED_COLUMNS)[:, None]
    condensed = empty_aligned(slots * SELECTED_COLUMNS)
    condensed.fill(0)
    condensed[index] = values.reshape(slots, n)
    return condensed.reshape(rows, -1)


def _count_above(arr: np.ndarray, tol: float) -> int:
    """How many entries of ``arr`` have a magnitude above ``tol`` (NaN
    never does)."""
    return int(np.count_nonzero(np.abs(arr) > tol))


def _keep_n_of_4(selected: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` largest magnitudes of every group of four, as a mask.

    Six pairwise comparisons rank each position: ``b_ij`` says the later
    position ``j`` strictly outranks ``i``, so a tie goes to the lower
    position; NaN magnitudes become -1 first, so they rank last.  Rank
    ``r_i`` is the number of positions outranking ``i``; ``i`` survives
    when ``r_i < n``.
    """
    if n >= SELECTED_COLUMNS:
        return np.ones(selected.shape, dtype=bool)
    keep = np.empty(selected.shape, dtype=bool)
    mag = np.abs(selected).reshape(-1, SELECTED_COLUMNS)
    np.fmax(mag, -1, out=mag)
    a0, a1, a2, a3 = (mag[:, i] for i in range(SELECTED_COLUMNS))
    b01, b02, b03, b12, b13, b23 = (
        np.greater(aj, ai).view(np.uint8)
        for ai, aj in ((a0, a1), (a0, a2), (a0, a3), (a1, a2), (a1, a3), (a2, a3))
    )
    out = keep.reshape(-1, SELECTED_COLUMNS)
    np.less(b01 + b02 + b03, n, out=out[:, 0])
    np.less(1 + b12 + b13 - b01, n, out=out[:, 1])
    np.less(2 + b23 - b02 - b12, n, out=out[:, 2])
    np.less(3 - b03 - b13 - b23, n, out=out[:, 3])
    return keep


def vnm_select(arr: np.ndarray, v: int, n: int, m: int, norm: str = "l1") -> VNMSelection:
    """V:N:M magnitude selection of a C-contiguous float matrix whose shape
    suits ``v:n:m`` (the tie rule is in the module docstring).

    The column choice argsorts the small ``(R/V, K/M, M)`` mass array; the
    selected columns move with one flat-index gather and the N:4 stage is
    :func:`_keep_n_of_4`'s six comparisons.  Bit for bit
    :func:`vnm_select_reference`.
    """
    columns = _absolute_columns(select_block_columns(arr, v, m, norm), m)
    selected = _gather_columns(arr, columns)
    return VNMSelection(columns, selected, _keep_n_of_4(selected, n))


def vnm_select_reference(arr: np.ndarray, v: int, n: int, m: int, norm: str = "l1") -> VNMSelection:
    """:func:`vnm_select` by stable argsorts and ``take_along_axis`` /
    ``put_along_axis`` over ``(R/V, V, K/M, 4)`` blocks: the executable
    spec of the tie rule."""
    rows, cols = arr.shape
    row_blocks, groups = rows // v, cols // m
    blocks = arr.reshape(row_blocks, v, groups, m)
    in_block = _argsort_block_columns(arr, v, m, norm)
    gather_idx = np.broadcast_to(in_block[:, None], (row_blocks, v, groups, SELECTED_COLUMNS))
    selected = np.take_along_axis(blocks, gather_idx, axis=3)
    pos_order = np.argsort(-np.abs(selected), axis=3, kind="stable")[:, :, :, :n]
    keep = np.zeros(selected.shape, dtype=bool)
    np.put_along_axis(keep, pos_order, True, axis=3)
    width = groups * SELECTED_COLUMNS
    return VNMSelection(
        _absolute_columns(in_block, m), selected.reshape(rows, width), keep.reshape(rows, width)
    )


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
        # Memo for the derived views (and the kernels' execution plans).  The
        # compressed arrays are immutable after construction, so the cache
        # is only ever invalidated by constructing a new matrix.  Exempt from
        # the BoundedCache rule: its key set is fixed — the three views
        # ("condensed", "selected_column_indices", "packed_metadata") plus
        # one ("spmm_plan", strategy) per SpmmPlan strategy — so it holds at
        # most six entries whatever the traffic, and dies with the matrix.
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

        With ``strict=True`` every entry whose magnitude is above ``tol``
        must be stored (the matrix typically comes from
        :mod:`repro.pruning.vnm` or the second-order pruner); a
        ``ValueError`` is raised otherwise — for a matrix that breaks the
        pattern, and also for one that keeps it but whose selection would
        drop such an entry (sub-``tol`` columns outweighing it, or a NaN
        ranking its column last).  With
        ``strict=False`` the compressor itself applies magnitude V:N:M
        pruning: per block it keeps the four columns with the largest L1
        mass and then the ``n`` largest magnitudes per row among them.
        Either way the survivors come from :func:`vnm_select` (mass and
        tie rules in the module docstring), which on an accepted strict
        input recovers the columns and positions that hold the non-zeros.
        """
        arr = as_float_matrix(dense)
        rows, cols = arr.shape
        validate_vnm_shape(rows, cols, v, n, m)
        selection = vnm_select(arr, v, n, m)
        kept = np.flatnonzero(selection.keep)  # ascending: row-major, then position
        stored = (rows, cols // m * n)
        values = np.take(selection.selected.reshape(-1), kept).reshape(stored)
        if strict and _count_above(arr, tol) != _count_above(values, tol):
            raise ValueError(
                f"matrix violates the {v}:{n}:{m} pattern; prune it first or pass strict=False"
            )
        return cls(
            values=values,
            m_indices=(kept & (SELECTED_COLUMNS - 1)).astype(np.uint8).reshape(stored),
            column_loc=(selection.columns % m).astype(np.int32),
            v=v,
            n=n,
            m=m,
            k=cols,
        )

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense ``(R, K)`` matrix: the condensed view
        scattered to the selected columns."""
        condensed = self._memo.get("condensed")
        if condensed is None:
            condensed = condense(self.values, self.m_indices, self.n)
        return scatter_columns(condensed, self.selected_column_indices(), self.k)

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
        condensed = condense(self.values, self.m_indices, self.n)
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

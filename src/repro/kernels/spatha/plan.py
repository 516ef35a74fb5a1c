"""Planned, batched execution of the V:N:M SpMM (the vectorized engine).

The seed implementation of :func:`repro.kernels.spatha.spmm.spmm` walked the
V-row blocks of the operand in a Python loop and re-derived the condensed
operand and gather indices on every call.  That is exactly the pattern the
real Spatha kernel avoids: the GPU library prepares the operand once
(values, column-loc, 2-bit metadata) and then replays the same gather +
``mma.sp`` schedule for every activation batch.  :class:`SpmmPlan` is the
CPU analogue of that preparation step:

* preparation is paid once per operand.  The absolute gather indices of
  the selected B rows are the :class:`~repro.formats.vnm.VNMSparseMatrix`'s
  memoized view, taken at plan construction; the m-indices are read as
  stored, one per byte (no host schedule reads packed words).  The
  fp16-rounded operand is prepared per schedule, the first time that
  schedule runs: the condensed operand for the gather schedule, the dense
  operand for the dense one.  Either is rounded from the stored
  ``values`` alone (N of every four condensed slots) and condensed
  straight into its aligned buffer.  A plan keeps only the copies its
  schedules read, so an operand that runs dense at every C holds no
  condensed copy at all;
* execution is fully batched: no Python loop over row blocks.  Two
  strategies are provided and an ``auto`` mode picks between them per
  (operand, C) with a small host cost model:

  - ``"gather"`` — the faithful condensed-operand schedule: the selected B
    rows of every row block are gathered, in chunks small enough to stay in
    cache until the GEMM reads them, and multiplied with the condensed
    operand via one stacked ``matmul``.  This is bit-identical to the
    retained loop reference.
  - ``"dense"`` — scatter the fp16-rounded operand to its dense form once,
    on first use, then execute each call as a single large GEMM: ``M/4``
    times the arithmetic in one BLAS call instead of one small GEMM per row
    block.

  The gather schedule wins where tall row blocks multiply a narrow condensed
  operand (64:2:8, 128:2:16, 64:2:32); the dense schedule wins at V = 16
  and 2:8, where many small GEMMs lose to one large one, and at 2:4, where
  the condensed operand is as wide as the dense one.  In between — 32:2:8,
  say — the verdict depends on C.

* the RHS may be 2-D ``(K, C)`` or batched 3-D ``(B, K, C)``; the batched
  form lets :mod:`repro.integration.linear` and the transformer layers run
  whole activation batches in one call.  Batched execution is *slab-exact*:
  every slab of a 3-D batch is computed by the same stacked GEMMs a 2-D
  call would issue, so ``execute(stack)[i]`` is bit-identical to
  ``execute(stack[i])``.  The dynamic-batching serving layer
  (:mod:`repro.serving`) relies on this to make batched request execution
  provably equivalent to sequential per-request execution.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from ...formats.base import fp16_finite, quantize_fp16, quantize_fp16_checked
from ...formats.vnm import SELECTED_COLUMNS, VNMSparseMatrix, condense, scatter_columns

#: Host cost model of the two schedules, in seconds per unit, fitted on an
#: AVX-512 Xeon (2 MiB L2 per core) with one BLAS thread over 152
#: (operand, C) cells: R and K from 256 to 4096, V from 16 to 128, M from
#: 4 to 32, C from 1 to 2048.  Both costs are affine in C.
#: Per call, each schedule pays ``_OPERAND_ELEMENT_S`` for every operand
#: element it multiplies (R*K dense, R*kc gather), and the gather schedule
#: also pays ``_ROW_BLOCK_S`` per row block, one small GEMM each.  Per RHS
#: column, the dense schedule pays ``_DENSE_MAC_S`` per multiply-add; the
#: gather schedule pays ``_BLOCK_MAC_S`` per condensed multiply-add plus
#: ``_PANEL_ELEMENT_S`` per gathered B element (its copy, and its read by
#: a GEMM that only V rows share).
_OPERAND_ELEMENT_S = 6.9e-10
_ROW_BLOCK_S = 5.9e-6
_DENSE_MAC_S = 1.4e-11
_BLOCK_MAC_S = 1.83e-11
_PANEL_ELEMENT_S = 5.9e-10

#: Upper bound on the gathered-RHS buffer of one gather chunk: a quarter of
#: a 2 MiB L2, so a chunk's panel is still in cache when its GEMMs read it
#: (and beside it BLAS's packed copy).  Measured against 256 KiB, 1 MiB and
#: 2 MiB; a 256 MiB chunk, which gathers the whole panel before any GEMM
#: reads it, was 1.1x to 2.0x slower at C = 512.
_GATHER_CHUNK_BYTES = 512 * 1024

_STRATEGIES = ("auto", "dense", "gather")


def demote_nonfinite_slabs(
    b: np.ndarray,
    fast: Callable[[np.ndarray], np.ndarray],
    safe: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Run a RHS the fp16 screen flagged: ``safe`` on its non-finite slabs.

    The dense schedule multiplies the operand's zeros against *every* B
    row, so a non-finite value in a row the sparse structure never selects
    would leak NaN (``0 * inf``); the gather schedule touches only stored
    entries, like the loop reference.  Each slab of a 3-D RHS is screened
    and run as its own 2-D call: a slab's schedule may depend only on its
    own values, or one non-finite request would flip its batchmates'
    schedule and break batched == sequential bit-exactness.
    """
    if b.ndim == 2:
        return safe(b)
    return np.stack([(fast if fp16_finite(slab) else safe)(slab) for slab in b])


def auto_schedule(r: int, k: int, v: int, kc: int) -> Tuple[str, int, str]:
    """The cost model's verdict for an ``R x K`` operand of V-row blocks and
    condensed width ``kc``: ``(below, crossover, above)``.

    A C-column RHS runs ``below`` when ``C < crossover`` and ``above``
    otherwise.  Both modelled costs are affine in C, so their difference
    changes sign at most once and one crossover describes every C; a
    verdict that does not depend on C has ``below == above``.  Ties go to
    the dense schedule.
    """
    blocks = r // v
    # What the gather schedule saves per call, and what it costs extra per
    # column: gather(C) < dense(C)  <=>  extra * C < saving.
    saving = r * (k - kc) * _OPERAND_ELEMENT_S - blocks * _ROW_BLOCK_S
    extra = r * kc * _BLOCK_MAC_S + blocks * kc * _PANEL_ELEMENT_S - r * k * _DENSE_MAC_S
    if extra > 0:
        below, crossover, above = "gather", math.ceil(saving / extra), "dense"
    elif extra < 0:
        below, crossover, above = "dense", math.floor(saving / extra) + 1, "gather"
    else:
        below = above = "gather" if saving > 0 else "dense"
        crossover = 0
    if crossover <= 1:  # no C >= 1 runs ``below``
        return above, 0, above
    return below, crossover, above


class SpmmPlan:
    """A prepared, reusable execution schedule for one V:N:M operand.

    Parameters
    ----------
    matrix:
        The sparse LHS.  Its gather indices are memoized on the matrix, so
        several plans for one matrix share them; each plan rounds its own
        fp16 copies, per schedule, on first use.
    strategy:
        ``"auto"`` (default), ``"dense"`` or ``"gather"`` — see the module
        docstring.
    """

    def __init__(self, matrix: VNMSparseMatrix, strategy: str = "auto") -> None:
        if not isinstance(matrix, VNMSparseMatrix):
            raise TypeError("SpmmPlan expects a VNMSparseMatrix operand")
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; use one of {_STRATEGIES}")
        # The matrix's arrays and sizes, never the matrix itself (nor a
        # closure over it): the plan is memoized on the matrix, and a cycle
        # would leave both to the cyclic collector.
        self.shape = matrix.shape
        self.v = matrix.v
        self.row_blocks = matrix.row_blocks
        self.strategy = strategy
        #: Width of the condensed operand (``K/M * 4``).
        self.condensed_k = matrix.k // matrix.m * SELECTED_COLUMNS
        self.gather_indices = matrix.selected_column_indices()  # (R/V, K/M*4)
        # The stored arrays the fp16 copies are rounded from, each the first
        # time its schedule runs.
        self._values = matrix.values
        self._m_indices = matrix.m_indices
        self._n = matrix.n
        self._condensed16: Optional[np.ndarray] = None
        self._dense16: Optional[np.ndarray] = None
        if strategy == "auto":
            self._below, self._crossover, self._above = auto_schedule(
                *self.shape, self.v, self.condensed_k
            )
        else:
            self._below = self._above = strategy
            self._crossover = 0

    # ------------------------------------------------------------------
    # Cached plan lookup
    # ------------------------------------------------------------------
    @classmethod
    def for_matrix(cls, matrix: VNMSparseMatrix, strategy: str = "auto") -> "SpmmPlan":
        """The memoized plan of ``matrix`` (built on first use).

        Plans are cached per (strategy,) on the matrix itself, so repeated
        ``spmm`` calls — every layer forward, every sweep point — reuse one
        prepared schedule.  The cache lives for the life of the matrix and
        is naturally invalidated by constructing a new one.
        """
        if not isinstance(matrix, VNMSparseMatrix):
            raise TypeError("SpmmPlan expects a VNMSparseMatrix operand")
        key = ("spmm_plan", strategy)
        plan = matrix._memo.get(key)
        if plan is None:
            plan = cls(matrix, strategy=strategy)
            matrix._memo[key] = plan
        return plan

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def _round_condensed(self) -> np.ndarray:
        """A new fp16-rounded condensed operand, 64-byte aligned: the stored
        ``values`` rounded, then condensed.  Rounding maps zero to zero
        (``-0.0`` to ``-0.0``), so this is the rounded condensed operand
        bit for bit, at N/4 of the rounding work and with no fp32
        condensed copy."""
        return condense(quantize_fp16(self._values), self._m_indices, self._n)

    @property
    def condensed16(self) -> np.ndarray:
        """The fp16-rounded condensed operand the gather schedule reads,
        ``(R, K/M*4)``: built the first time that schedule runs — a C on
        the gather side of the crossover, or a non-finite slab — then
        kept."""
        if self._condensed16 is None:
            self._condensed16 = self._round_condensed()
        return self._condensed16

    @property
    def dense16(self) -> np.ndarray:
        """The fp16-rounded dense operand the dense schedule reads: built
        the first time that schedule runs, then kept.  A transient rounded
        condensed operand scattered to its columns, as ``to_dense`` does
        with the unrounded one."""
        if self._dense16 is None:
            self._dense16 = scatter_columns(self._round_condensed(), self.gather_indices, self.shape[1])
        return self._dense16

    def resolve_strategy(self, c: int) -> str:
        """The strategy ``execute`` will use for a C-column RHS.

        Under ``auto`` it depends on C as well as the operand: the plan
        keeps :func:`auto_schedule`'s crossover, settled at build, and
        compares against it.  The same operand and C always get the same
        schedule, hence the same bits.
        """
        return self._below if c < self._crossover else self._above

    def _execute_dense(self, b16: np.ndarray) -> np.ndarray:
        """Dense schedule: matmul broadcasts (R, K) @ (B, K, C) into one GEMM
        per slab, so each slab's result is bit-identical to its 2-D call."""
        return np.matmul(self.dense16, b16)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, b: np.ndarray, bias: Optional[np.ndarray] = None, strategy: Optional[str] = None
    ) -> np.ndarray:
        """``A @ B (+ bias)`` with fp16-operand / fp32-accumulate numerics.

        ``b`` may be ``(K, C)`` (returns ``(R, C)``) or a batch
        ``(B, K, C)`` (returns ``(B, R, C)``).  ``strategy`` pins
        ``"dense"`` or ``"gather"`` over :meth:`resolve_strategy` (the
        dispatcher's dense fallback pins ``"dense"``); a non-finite slab
        takes the gather schedule either way.
        """
        r, k = self.shape
        b = np.asarray(b)
        if b.ndim not in (2, 3) or b.shape[-2] != k:
            raise ValueError(f"B must have shape ({k}, C) or (batch, {k}, C), got {b.shape}")
        if strategy not in (None, "dense", "gather"):
            raise ValueError(f"a pinned strategy is 'dense' or 'gather', got {strategy!r}")
        b16, finite = quantize_fp16_checked(b)
        if (strategy or self.resolve_strategy(b.shape[-1])) == "gather":
            out = self._execute_gather(b16)
        elif finite:
            out = self._execute_dense(b16)
        else:
            # A non-finite slab takes the gather schedule, which only ever
            # touches the selected rows — exactly like the loop reference.
            out = demote_nonfinite_slabs(b16, self._execute_dense, self._execute_gather)

        if bias is not None:
            bias = np.asarray(bias, dtype=np.float32)
            if bias.shape not in {(r,), (r, 1)}:
                raise ValueError(f"bias must have shape ({r},), got {bias.shape}")
            out += bias.reshape(r, 1)
        return out

    def _execute_gather(self, b16: np.ndarray) -> np.ndarray:
        """Condensed-operand schedule: chunked gather + stacked matmul.

        ``b16`` may be ``(K, C)`` or ``(B, K, C)``.  The batched form
        broadcasts the condensed row-block operands against a per-slab
        gather, so every slab runs the exact GEMMs of its standalone 2-D
        call (slab-bit-exactness; chunking does not change any per-block
        GEMM, only how many are stacked per ``matmul`` dispatch).
        """
        r = self.shape[0]
        c = b16.shape[-1]
        v = self.v
        kc = self.condensed_k
        cond = self.condensed16.reshape(self.row_blocks, v, kc)
        batched = b16.ndim == 3
        slabs = b16.shape[0] if batched else 1
        out = np.empty((slabs, r, c), dtype=np.float32)
        out_blocks = out.reshape(slabs, self.row_blocks, v, c)
        chunk = max(1, int(_GATHER_CHUNK_BYTES // max(1, slabs * kc * c * 4)))
        for lo in range(0, self.row_blocks, chunk):
            hi = min(lo + chunk, self.row_blocks)
            if batched:
                b_sel = b16[:, self.gather_indices[lo:hi]]  # (B, chunk, K/M*4, C)
            else:
                b_sel = b16[self.gather_indices[lo:hi]][None]  # (1, chunk, K/M*4, C)
            np.matmul(cond[lo:hi], b_sel, out=out_blocks[:, lo:hi])
        return out if batched else out[0]

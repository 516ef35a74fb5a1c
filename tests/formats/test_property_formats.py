"""Property-based tests (hypothesis) for the compression formats.

These check the fundamental invariants the rest of the system relies on:
compression followed by decompression is the identity on compliant
matrices, and every format's footprint accounting is consistent with its
stored structures.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.formats.csr import CSRMatrix
from repro.formats.cvse import CVSEMatrix
from repro.formats.nm import NMSparseMatrix, check_nm_pattern
from repro.formats.vnm import VNMSparseMatrix, check_vnm_pattern
from repro.kernels.spatha import SpmmPlan
from repro.pruning.masks import apply_mask
from repro.pruning.nm import nm_mask
from repro.pruning.vector_wise import vector_wise_mask
from repro.pruning.vnm import vnm_mask


def dense_matrices(max_rows=8, max_row_blocks=4, col_groups=st.integers(1, 4)):
    """Strategy producing small dense float matrices with controlled shapes."""
    return st.tuples(st.integers(1, max_rows), col_groups).flatmap(
        lambda dims: hnp.arrays(
            dtype=np.float32,
            shape=(dims[0] * 4, dims[1] * 8),
            elements=st.floats(-10, 10, allow_nan=False, width=32),
        )
    )


@settings(max_examples=30, deadline=None)
@given(dense_matrices())
def test_nm_compression_roundtrip(dense):
    pruned = apply_mask(dense, nm_mask(dense, 2, 4)).astype(np.float32)
    sp = NMSparseMatrix.from_dense(pruned, 2, 4)
    assert np.array_equal(sp.to_dense(), pruned)
    assert check_nm_pattern(sp.to_dense(), 2, 4)


@settings(max_examples=30, deadline=None)
@given(dense_matrices())
def test_vnm_compression_roundtrip(dense):
    v = 4
    pruned = apply_mask(dense, vnm_mask(dense, v=v, n=2, m=8)).astype(np.float32)
    sp = VNMSparseMatrix.from_dense(pruned, v=v, n=2, m=8)
    assert np.array_equal(sp.to_dense(), pruned)
    assert check_vnm_pattern(sp.to_dense(), v=v, n=2, m=8)


@settings(max_examples=30, deadline=None)
@given(dense_matrices())
def test_vnm_nonstrict_always_produces_compliant_pattern(dense):
    sp = VNMSparseMatrix.from_dense(dense, v=4, n=2, m=8, strict=False)
    assert check_vnm_pattern(sp.to_dense(), v=4, n=2, m=8)
    # Never stores more than N per M-group per row.
    assert sp.nnz == dense.shape[0] * dense.shape[1] // 8 * 2


@settings(max_examples=30, deadline=None)
@given(dense_matrices())
def test_csr_roundtrip_arbitrary_sparsity(dense):
    # Zero out a pseudo-random half of the entries.
    mask = (np.arange(dense.size).reshape(dense.shape) * 2654435761 % 97) > 48
    pruned = np.where(mask, dense, 0.0).astype(np.float32)
    csr = CSRMatrix.from_dense(pruned)
    assert np.array_equal(csr.to_dense(), pruned)


@settings(max_examples=30, deadline=None)
@given(dense_matrices())
def test_cvse_roundtrip(dense):
    pruned = apply_mask(dense, vector_wise_mask(dense, 0.5, l=4)).astype(np.float32)
    cvse = CVSEMatrix.from_dense(pruned, l=4)
    assert np.array_equal(cvse.to_dense(), pruned)


# ---------------------------------------------------------------------------
# Randomised V/N/M patterns over ragged shapes
# ---------------------------------------------------------------------------
#
# The fixed-pattern roundtrips above pin V=4, 2:8.  The dispatcher and the
# serving layer exercise arbitrary patterns, so the invariants must hold for
# *every* legal (V, N, M) — including odd vector sizes, N == M groups, and
# ragged (non-square, prime-multiple) shapes.


def vnm_problems(max_row_blocks=5, max_col_groups=4):
    """Strategy: ``(dense, v, n, m)`` with randomized pattern and shape.

    V ranges over odd and power-of-two vector sizes, M over >= 4 group
    widths, N over [1, min(4, m)]; the matrix dimensions are independent
    multiples of V and M so shapes are ragged (e.g. 3 row blocks x 1
    group).
    """
    return (
        st.tuples(
            st.sampled_from([1, 2, 3, 4, 5, 8]),  # v
            st.sampled_from([4, 5, 7, 8, 12, 16]),  # m
            st.integers(1, 4),  # n (clamped to m below)
            st.integers(1, max_row_blocks),
            st.integers(1, max_col_groups),
            st.integers(0, 2**31 - 1),
        )
        .map(lambda t: (t[0], t[1], min(t[2], min(4, t[1])), t[3], t[4], t[5]))
        .map(
            lambda t: (
                np.random.default_rng(t[5])
                .normal(size=(t[0] * t[3], t[1] * t[4]))
                .astype(np.float32),
                t[0],
                t[2],
                t[1],
            )
        )
    )


@settings(max_examples=40, deadline=None)
@given(vnm_problems())
def test_vnm_roundtrip_randomized_patterns(problem):
    dense, v, n, m = problem
    pruned = apply_mask(dense, vnm_mask(dense, v=v, n=n, m=m)).astype(np.float32)
    sp = VNMSparseMatrix.from_dense(pruned, v=v, n=n, m=m, strict=True)
    assert np.array_equal(sp.to_dense(), pruned)
    assert check_vnm_pattern(sp.to_dense(), v=v, n=n, m=m)


@settings(max_examples=40, deadline=None)
@given(vnm_problems())
def test_vnm_nonstrict_randomized_patterns_compliant(problem):
    dense, v, n, m = problem
    sp = VNMSparseMatrix.from_dense(dense, v=v, n=n, m=m, strict=False)
    assert check_vnm_pattern(sp.to_dense(), v=v, n=n, m=m)
    assert sp.nnz == dense.shape[0] * (dense.shape[1] // m) * n


@settings(max_examples=40, deadline=None)
@given(vnm_problems())
def test_condensed_view_consistent_with_dense(problem):
    """The condensed (selected-columns) view must gather exactly the dense
    matrix's entries at the selected column indices — for every pattern."""
    dense, v, n, m = problem
    sp = VNMSparseMatrix.from_dense(dense, v=v, n=n, m=m, strict=False)
    condensed = sp.to_condensed()
    full = sp.to_dense()
    sel = sp.selected_column_indices()  # (R/V, K/M*4)
    for block in range(sp.row_blocks):
        rows = slice(block * v, (block + 1) * v)
        assert np.array_equal(condensed[rows], full[rows][:, sel[block]])


@settings(max_examples=25, deadline=None)
@given(vnm_problems(max_row_blocks=3, max_col_groups=3), st.integers(1, 7))
def test_spmm_plan_memo_survives_operand_reconstruction(problem, c):
    """Plans memoize on the operand instance: rebuilding the same logical
    operand must produce a fresh, independent plan whose outputs agree with
    the original bit for bit (a stale shared cache would be a serving-layer
    correctness bug)."""
    dense, v, n, m = problem
    a1 = VNMSparseMatrix.from_dense(dense, v=v, n=n, m=m, strict=False)
    plan1 = SpmmPlan.for_matrix(a1)
    assert SpmmPlan.for_matrix(a1) is plan1  # memoized on the instance
    rng = np.random.default_rng(dense.shape[0] * 1000 + dense.shape[1])
    b = rng.normal(size=(a1.k, c)).astype(np.float32)
    out1 = plan1.execute(b)

    # Re-construct the operand from the same dense payload: new instance,
    # new memo, same numbers.
    a2 = VNMSparseMatrix.from_dense(dense, v=v, n=n, m=m, strict=False)
    plan2 = SpmmPlan.for_matrix(a2)
    assert plan2 is not plan1
    assert a2._memo is not a1._memo
    assert np.array_equal(plan2.execute(b), out1)
    # The derived views agree too (they are what the plans share logically).
    assert np.array_equal(a2.to_condensed(), a1.to_condensed())
    assert np.array_equal(a2.selected_column_indices(), a1.selected_column_indices())
    # And the first plan is unaffected by the second operand's existence.
    assert np.array_equal(plan1.execute(b), out1)


@settings(max_examples=30, deadline=None)
@given(dense_matrices())
def test_vnm_footprint_consistent(dense):
    sp = VNMSparseMatrix.from_dense(dense, v=4, n=2, m=8, strict=False)
    fp = sp.footprint("fp16")
    assert fp.values_bytes == sp.values.size * 2
    assert fp.metadata_bytes == pytest.approx(sp.values.size * 0.25)
    assert fp.index_bytes == sp.column_loc.size
    assert fp.total_bytes <= sp.dense_bytes("fp16") + fp.index_bytes

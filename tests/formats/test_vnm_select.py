"""V:N:M selection: the flat-index / six-comparison path is bit for bit the
stable-argsort formulation.

``vnm_select`` (pruning and compression) is compared with its retained
``vnm_select_reference``, and every product built on it — the pruning mask,
the compressed arrays, the condensed and dense views and the plan's fp16
dense operand — with an independent argsort / ``take_along_axis`` /
``put_along_axis`` formulation of each (the oracle below).  Inputs are
tie-heavy (integer-valued) and carry NaN, +-inf and -0.0.

Block masses are summed in float64 whatever the input dtype (one rule for
the pruner and the compressor); the oracle can also sum in float32, the
compressor's rule before that, to show where the two part and that the
prune -> compress -> plan chain produces the same bytes under both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.base import quantize_fp16
from repro.formats.vnm import SELECTED_COLUMNS as S
from repro.formats.vnm import VNMSparseMatrix, vnm_select, vnm_select_reference
from repro.kernels.spatha import SpmmPlan
from repro.pruning.masks import apply_mask
from repro.pruning.vnm import vnm_mask

V_SIZES = (1, 2, 16, 64, 128)


# ----------------------------------------------------------------------
# The oracle: selection, scatter and gather by argsort, take_along_axis and
# put_along_axis over (R/V, V, K/M, 4) blocks.
# ----------------------------------------------------------------------
def oracle_block_columns(w, v, m, norm, acc=np.float64):
    """In-block columns of the four largest masses, summed in ``acc``."""
    rows, cols = w.shape
    blocks = w.reshape(rows // v, v, cols // m, m).astype(acc)
    if norm == "l1":
        mass = np.abs(blocks).sum(axis=1)
    else:
        mass = np.sqrt((blocks**2).sum(axis=1))
    order = np.argsort(-mass, axis=2, kind="stable")[:, :, :S]
    return np.sort(order, axis=2).astype(np.int64)


def oracle_mask(weights, v, n, m, norm):
    w = np.ascontiguousarray(weights, dtype=np.float64)
    rows, cols = w.shape
    rb, groups = rows // v, cols // m
    blocks = w.reshape(rb, v, groups, m)
    gather_idx = np.broadcast_to(oracle_block_columns(w, v, m, norm)[:, None], (rb, v, groups, S))
    selected = np.take_along_axis(blocks, gather_idx, axis=3)
    pos_order = np.argsort(-np.abs(selected), axis=3, kind="stable")[:, :, :, :n]
    keep_sel = np.zeros((rb, v, groups, S), dtype=bool)
    np.put_along_axis(keep_sel, pos_order, True, axis=3)
    mask = np.zeros((rb, v, groups, m), dtype=bool)
    np.put_along_axis(mask, gather_idx, keep_sel, axis=3)
    return mask.reshape(rows, cols)


def oracle_compress(dense, v, n, m, acc=np.float64):
    arr = np.ascontiguousarray(dense, dtype=np.float32)
    rows, cols = arr.shape
    rb, groups = rows // v, cols // m
    blocks = arr.reshape(rb, v, groups, m)
    col_order = oracle_block_columns(arr, v, m, "l1", acc)
    selected = np.take_along_axis(
        blocks, np.broadcast_to(col_order[:, None], (rb, v, groups, S)), axis=3
    )
    pos_order = np.sort(np.argsort(-np.abs(selected), axis=3, kind="stable")[:, :, :, :n], axis=3)
    values = np.take_along_axis(selected, pos_order, axis=3)
    return (
        values.reshape(rows, groups * n),
        pos_order.reshape(rows, groups * n).astype(np.uint8),
        col_order.reshape(rb, groups * S).astype(np.int32),
    )


def oracle_condensed(a):
    rows = a.values.shape[0]
    rb, groups = rows // a.v, a.k // a.m
    vals = a.values.reshape(rb, a.v, groups, a.n)
    midx = a.m_indices.reshape(rb, a.v, groups, a.n).astype(np.int64)
    selected = np.zeros((rb, a.v, groups, S), dtype=np.float32)
    np.put_along_axis(selected, midx, vals, axis=3)
    return selected.reshape(rows, groups * S)


def oracle_dense(a):
    rows = a.values.shape[0]
    rb, groups = rows // a.v, a.k // a.m
    selected = oracle_condensed(a).reshape(rb, a.v, groups, S)
    cloc = a.column_loc.reshape(rb, groups, S).astype(np.int64)
    dense = np.zeros((rb, a.v, groups, a.m), dtype=np.float32)
    np.put_along_axis(dense, np.broadcast_to(cloc[:, None], selected.shape), selected, axis=3)
    return dense.reshape(rows, a.k)


def oracle_dense16(a):
    rows = a.values.shape[0]
    cond = quantize_fp16(oracle_condensed(a)).reshape(rows // a.v, a.v, -1)
    cols = a.column_loc.astype(np.int64) + np.repeat(np.arange(a.k // a.m) * a.m, S)[None]
    dense = np.zeros((rows // a.v, a.v, a.k), dtype=np.float32)
    np.put_along_axis(dense, np.broadcast_to(cols[:, None], cond.shape), cond, axis=2)
    return dense.reshape(rows, a.k)


# ----------------------------------------------------------------------
def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def tie_heavy_matrix(seed, rows, cols, specials):
    """Integer-valued float32 weights (many exact ties, many zeros) with
    ``specials`` cells of NaN, +inf, -inf or -0.0 each."""
    rng = np.random.default_rng(seed)
    w = rng.integers(-2, 3, size=(rows, cols)).astype(np.float32)
    for value in (np.nan, np.inf, -np.inf, -0.0):
        w.flat[rng.integers(0, w.size, size=specials)] = value
    return w


def assert_matches_oracle(w, v, n, m):
    for norm in ("l1", "l2"):
        new, ref = vnm_select(w, v, n, m, norm), vnm_select_reference(w, v, n, m, norm)
        assert all(same_bytes(a, b) for a, b in zip(new, ref)), norm
        assert same_bytes(vnm_mask(w, v=v, n=n, m=m, norm=norm), oracle_mask(w, v, n, m, norm)), norm

    pruned = np.where(vnm_mask(w, v=v, n=n, m=m), w, np.float32(0.0))
    for dense, strict in ((pruned, True), (w, False)):
        values, m_indices, column_loc = oracle_compress(dense, v, n, m)
        if strict and np.count_nonzero(np.abs(dense) > 0) != np.count_nonzero(np.abs(values) > 0):
            # The pruner kept a NaN column over a tied NaN column it zeroed;
            # the compressor ranks the kept one's NaN mass below that zero
            # column, so its selection would drop a stored entry.
            with pytest.raises(ValueError, match="violates"):
                VNMSparseMatrix.from_dense(dense, v=v, n=n, m=m, strict=True)
            continue
        a = VNMSparseMatrix.from_dense(dense, v=v, n=n, m=m, strict=strict)
        assert same_bytes(a.values, values), strict
        assert same_bytes(a.m_indices, m_indices), strict
        assert same_bytes(a.column_loc, column_loc), strict
        assert same_bytes(a.to_dense(), oracle_dense(a)), strict
        assert same_bytes(a.to_condensed(), oracle_condensed(a)), strict
        assert same_bytes(a.to_dense(), oracle_dense(a)), strict  # condensed view now memoized
        assert same_bytes(SpmmPlan(a).dense16, oracle_dense16(a)), strict


@settings(max_examples=60, deadline=None)
@given(
    v=st.sampled_from(V_SIZES),
    m=st.integers(4, 32),
    n=st.integers(1, 4),
    row_blocks=st.integers(1, 3),
    groups=st.integers(1, 4),
    specials=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_selection_and_its_products_match_the_argsort_oracle(v, m, n, row_blocks, groups, specials, seed):
    assert_matches_oracle(tie_heavy_matrix(seed, v * row_blocks, m * groups, specials), v, n, m)


@pytest.mark.parametrize("v", [1, 16, 128])
def test_figure13_patterns_match_the_argsort_oracle(fig13_pattern, v):
    _, n, m = fig13_pattern
    assert_matches_oracle(tie_heavy_matrix(m * v, 2 * v, 3 * m, specials=3), v, n, m)


@pytest.mark.parametrize("v, n, m", [(1, 2, 8), (64, 2, 4), (64, 2, 32)])
def test_normal_weights_match_the_argsort_oracle(rng, v, n, m):
    assert_matches_oracle(rng.normal(size=(2 * v, 8 * m)).astype(np.float32), v, n, m)


def test_nan_ranks_last_and_ties_go_to_the_lower_position():
    """One row, one group of M = 4: NaN loses to -0.0; 1.0 ties at 1 and 3."""
    w = np.array([[np.nan, 1.0, -0.0, -1.0]], dtype=np.float32)
    assert vnm_mask(w, v=1, n=2, m=4).tolist() == [[False, True, False, True]]
    assert vnm_mask(w, v=1, n=3, m=4).tolist() == [[False, True, True, True]]
    w = np.array([[2.0, 5.0, 5.0, 5.0]], dtype=np.float32)
    assert vnm_mask(w, v=1, n=1, m=4).tolist() == [[False, True, False, False]]


def test_unknown_norm_is_rejected_at_every_m():
    w = np.ones((4, 8), dtype=np.float32)
    for m in (4, 8):
        with pytest.raises(ValueError, match="norm"):
            vnm_mask(w, v=2, n=2, m=m, norm="linf")


def test_block_masses_are_summed_in_float64():
    """Column 4 holds one 1.0 and seven entries each adding half an ulp
    of 1.0 to its l1 (or squared l2) mass, so its float32 sum rounds to
    1.0, below column 3's single 1 + 2**-23; the exact float64 sums order
    them the other way.  Pruner and compressor both keep column 4."""
    for norm, half_ulp in (("l1", 2.0**-24), ("l2", 2.0**-12)):
        w = np.zeros((8, 8), dtype=np.float32)
        w[:3, :3] = np.eye(3, dtype=np.float32) * 4
        w[3, 3] = 1 + 2.0**-23
        w[:, 4] = half_ulp
        w[0, 4] = 1.0
        assert oracle_block_columns(w, 8, 8, norm, acc=np.float32).tolist() == [[[0, 1, 2, 3]]]
        assert oracle_block_columns(w, 8, 8, norm).tolist() == [[[0, 1, 2, 4]]]
        assert vnm_mask(w, v=8, n=4, m=8, norm=norm)[:, 3:5].tolist() == [[False, True]] * 8
        assert vnm_select(w, 8, 4, 8, norm).columns.tolist() == [[0, 1, 2, 4]]
        if norm == "l1":  # the compressor's norm
            compressed = VNMSparseMatrix.from_dense(w, v=8, n=4, m=8, strict=False)
            assert compressed.column_loc.tolist() == [[0, 1, 2, 4]]


@st.composite
def weights(draw):
    """float32 or float64 normal weights at a drawn scale, with ``-0.0``,
    subnormals, NaN and +-inf sprinkled in."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    v = draw(st.sampled_from([1, 4, 16, 64]))
    m = draw(st.sampled_from([4, 8, 16]))
    n = draw(st.sampled_from([1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (v * draw(st.integers(1, 2)), m * draw(st.integers(1, 3)))
    w = (rng.normal(size=shape) * draw(st.sampled_from([1e-6, 1.0, 6e4]))).astype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    for value in (-0.0, tiny, -7 * tiny, np.nan, np.inf, -np.inf):
        w.flat[rng.integers(0, w.size, size=draw(st.integers(0, 2)))] = value
    return w, v, n, m


@settings(max_examples=80, deadline=None)
@given(weights(), st.sampled_from(["l1", "l2"]))
def test_prune_compress_and_plan_copies_match_the_float64_recipe(case, norm):
    """Prune -> compress -> plan, in the weight's own dtype, gives the bytes
    of the recipe that pruned a float64 copy, checked the pattern, summed
    the compressor's masses in float32 and rounded the whole condensed
    operand.  Where that recipe dropped a stored entry (a column whose NaN
    mass ranks it last), strict compression now refuses instead."""
    w, v, n, m = case
    mask = vnm_mask(w, v=v, n=n, m=m, norm=norm)
    assert same_bytes(mask, oracle_mask(w, v, n, m, norm))
    pruned = apply_mask(w, mask)
    values, m_indices, column_loc = oracle_compress(pruned, v, n, m, acc=np.float32)
    stored32 = np.abs(pruned.astype(np.float32)) > 0
    if np.count_nonzero(stored32) != np.count_nonzero(np.abs(values) > 0):
        with pytest.raises(ValueError, match="violates"):
            VNMSparseMatrix.from_dense(pruned, v=v, n=n, m=m)
        return
    a = VNMSparseMatrix.from_dense(pruned, v=v, n=n, m=m)
    assert same_bytes(a.values, values)
    assert same_bytes(a.m_indices, m_indices)
    assert same_bytes(a.column_loc, column_loc)
    plan = SpmmPlan(a)
    assert same_bytes(plan.condensed16, quantize_fp16(oracle_condensed(a)))
    assert same_bytes(plan.dense16, oracle_dense16(a))

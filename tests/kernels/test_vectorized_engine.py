"""Equivalence tests for the vectorized execution engine (kernel layer).

Property-style tests: random shapes and seeds, odd V/N/M combinations, and
single-block edge cases, asserting the batched paths match the retained
loop references — bit-exactly where the schedule guarantees it (the plan's
``gather`` strategy), to fp16 accumulation tolerance otherwise.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.formats.base import quantize_fp16
from repro.formats.blocked_ell import BlockedEllMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.vnm import VNMSparseMatrix
from repro.kernels import cusparse, sputnik
from repro.kernels.spatha import SpmmPlan, spmm, spmm_loop_reference, spmm_reference

# (rows, cols, c, v, n, m) — odd M, small V, single row-block, single group,
# one-column RHS.
VNM_CASES = [
    (64, 96, 32, 16, 2, 8),
    (32, 64, 7, 8, 2, 4),
    (8, 40, 5, 2, 1, 10),
    (16, 16, 3, 16, 2, 16),  # single row block, single group
    (6, 12, 1, 3, 3, 4),  # odd V, N == 3, C == 1
    (4, 8, 9, 1, 2, 8),  # V == 1
]


def make_vnm(rng, rows, cols, v, n, m):
    dense = rng.normal(size=(rows, cols)).astype(np.float32)
    return VNMSparseMatrix.from_dense(dense, v=v, n=n, m=m, strict=False)


class TestSpmmPlanEquivalence:
    @pytest.mark.parametrize("case", VNM_CASES, ids=str)
    def test_gather_strategy_bit_matches_loop_reference(self, rng, case):
        rows, cols, c, v, n, m = case
        a = make_vnm(rng, rows, cols, v, n, m)
        b = rng.normal(size=(cols, c)).astype(np.float32)
        ref = spmm_loop_reference(a, b)
        out = SpmmPlan(a, strategy="gather").execute(b)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("case", VNM_CASES, ids=str)
    @pytest.mark.parametrize("strategy", ["dense", "auto"])
    def test_dense_and_auto_match_to_fp16_tolerance(self, rng, case, strategy):
        rows, cols, c, v, n, m = case
        a = make_vnm(rng, rows, cols, v, n, m)
        b = rng.normal(size=(cols, c)).astype(np.float32)
        ref = spmm_loop_reference(a, b)
        out = SpmmPlan(a, strategy=strategy).execute(b)
        assert np.allclose(out, ref, atol=1e-3, rtol=1e-5)

    @pytest.mark.parametrize("case", VNM_CASES, ids=str)
    def test_fast_path_matches_semantic_reference(self, rng, case):
        rows, cols, c, v, n, m = case
        a = make_vnm(rng, rows, cols, v, n, m)
        b = rng.normal(size=(cols, c)).astype(np.float32)
        assert np.allclose(spmm(a, b), spmm_reference(a, b), atol=5e-2, rtol=5e-3)

    @pytest.mark.parametrize("strategy", ["gather", "dense", "auto"])
    def test_batched_rhs_matches_per_slab_loop(self, rng, strategy):
        a = make_vnm(rng, 32, 48, 8, 2, 8)
        batch = rng.normal(size=(4, 48, 6)).astype(np.float32)
        out = SpmmPlan(a, strategy=strategy).execute(batch)
        assert out.shape == (4, 32, 6)
        stacked = np.stack([spmm_loop_reference(a, batch[i]) for i in range(4)])
        assert np.allclose(out, stacked, atol=1e-3, rtol=1e-5)

    def test_batched_rhs_with_bias(self, rng):
        a = make_vnm(rng, 16, 32, 4, 2, 8)
        batch = rng.normal(size=(3, 32, 5)).astype(np.float32)
        bias = rng.normal(size=16).astype(np.float32)
        with_bias = spmm(a, batch, bias=bias)
        without = spmm(a, batch)
        assert np.allclose(with_bias - without, bias[None, :, None], atol=1e-6)

    def test_bad_rhs_shapes_raise(self, rng):
        a = make_vnm(rng, 16, 32, 4, 2, 8)
        with pytest.raises(ValueError):
            spmm(a, np.ones(32))
        with pytest.raises(ValueError):
            spmm(a, np.ones((31, 4)))
        with pytest.raises(ValueError):
            spmm(a, np.ones((2, 31, 4)))

    def test_unknown_strategy_rejected(self, rng):
        a = make_vnm(rng, 16, 32, 4, 2, 8)
        with pytest.raises(ValueError):
            SpmmPlan(a, strategy="warp-specialized")

    def test_nonfinite_b_rows_outside_selection_stay_isolated(self):
        """A non-finite value in a B row no block selects must not leak NaN
        through the densified operand (0 * inf) — the engine must match the
        loop reference, which never touches that row."""
        a_dense = np.zeros((8, 8), dtype=np.float32)
        a_dense[:, 0] = 1.0  # only column 0 selected (plus zero columns)
        a = VNMSparseMatrix.from_dense(a_dense, v=8, n=2, m=8, strict=True)
        b = np.ones((8, 4), dtype=np.float32)
        b[5] = 1e6  # overflows fp16 -> inf, in an unselected row
        ref = spmm_loop_reference(a, b)
        assert np.isfinite(ref).all()
        for strategy in ("auto", "dense", "gather"):
            out = SpmmPlan(a, strategy=strategy).execute(b)
            assert np.array_equal(out, ref), strategy


    @pytest.mark.parametrize("c", [1, 8, 64])
    def test_nonfinite_slab_does_not_flip_its_batchmates(self, rng, c):
        """Slab-exactness with a non-finite batchmate: only the flagged slab
        leaves the dense schedule, so ``execute(stack)[i]`` stays the bits of
        ``execute(stack[i])`` for every slab (a whole-batch demotion flipped
        the finite slabs to the gather schedule at C = 1 and 8)."""
        a = make_vnm(rng, 256, 256, 16, 2, 8)
        plan = SpmmPlan(a)
        assert plan.resolve_strategy(c) == "dense"
        stack = rng.normal(size=(4, 256, c)).astype(np.float32)
        stack[2, 0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            out = plan.execute(stack)
            for i in range(4):
                assert np.array_equal(out[i], plan.execute(stack[i]), equal_nan=True), i
        assert np.isfinite(out[[0, 1, 3]]).all()


class TestSpmmPlanCaching:
    def test_plan_is_memoized_per_matrix(self, rng):
        a = make_vnm(rng, 16, 32, 4, 2, 8)
        assert SpmmPlan.for_matrix(a) is SpmmPlan.for_matrix(a)

    def test_derived_views_are_memoized(self, rng):
        a = make_vnm(rng, 16, 32, 4, 2, 8)
        assert a.to_condensed() is a.to_condensed()
        assert a.selected_column_indices() is a.selected_column_indices()
        assert a.packed_metadata() is a.packed_metadata()

    def test_memoized_views_are_read_only(self, rng):
        """The shared cached arrays must reject accidental mutation, which
        would otherwise silently corrupt every later kernel call."""
        a = make_vnm(rng, 16, 32, 4, 2, 8)
        for view in (
            a.to_condensed(),
            a.selected_column_indices(),
            a.packed_metadata(),
        ):
            with pytest.raises(ValueError):
                view[...] = 0

    def test_fresh_matrix_gets_fresh_cache(self, rng):
        dense = rng.normal(size=(16, 32)).astype(np.float32)
        a1 = VNMSparseMatrix.from_dense(dense, v=4, n=2, m=8, strict=False)
        a2 = VNMSparseMatrix.from_dense(dense, v=4, n=2, m=8, strict=False)
        assert SpmmPlan.for_matrix(a1) is not SpmmPlan.for_matrix(a2)
        assert a1.to_condensed() is not a2.to_condensed()

    def test_plan_preparation_matches_matrix_views(self, rng):
        a = make_vnm(rng, 16, 32, 4, 2, 8)
        plan = SpmmPlan.for_matrix(a)
        assert np.array_equal(plan.gather_indices, a.selected_column_indices())
        assert np.array_equal(plan.metadata, a.packed_metadata())
        assert plan.condensed_k == a.groups_per_row * 4

    @pytest.mark.parametrize("case", VNM_CASES, ids=str)
    def test_dense16_is_the_rounded_dense_operand(self, rng, case):
        rows, cols, _, v, n, m = case
        a = make_vnm(rng, rows, cols, v, n, m)
        dense16 = SpmmPlan(a).dense16
        assert np.array_equal(dense16.view(np.uint32), quantize_fp16(a.to_dense()).view(np.uint32))

    def test_dropped_matrix_and_its_plan_die_by_refcount(self, rng):
        """The plan is memoized on the matrix and keeps no reference back,
        so both go the moment the last outside reference does."""
        a = make_vnm(rng, 64, 128, 16, 2, 8)
        plan = SpmmPlan.for_matrix(a)
        plan.execute(rng.normal(size=(128, 4)).astype(np.float32))
        assert plan.dense16 is not None  # warmed: the lazy view is built
        refs = [weakref.ref(a), weakref.ref(plan), weakref.ref(plan.dense16)]
        gc.collect()
        gc.disable()
        try:
            del a, plan
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


class TestSputnikVectorized:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(16, 24, 8), (7, 13, 3), (1, 8, 1)])
    def test_matches_loop_reference(self, seed, shape):
        rng = np.random.default_rng(seed)
        rows, cols, c = shape
        dense = rng.normal(size=(rows, cols)) * (rng.random(size=(rows, cols)) < 0.3)
        a = CSRMatrix.from_dense(dense)
        b = rng.normal(size=(cols, c)).astype(np.float32)
        out = sputnik.spmm(a, b)
        ref = sputnik.spmm_loop_reference(a, b)
        assert np.allclose(out, ref, atol=1e-3, rtol=1e-5)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_segmented_fallback_matches_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(12, 20)) * (rng.random(size=(12, 20)) < 0.25)
        a = CSRMatrix.from_dense(dense)
        b = rng.normal(size=(20, 6)).astype(np.float32)
        b16 = np.asarray(b, dtype=np.float16).astype(np.float32)
        data16 = np.asarray(a.data, dtype=np.float16).astype(np.float32)
        out = sputnik._spmm_segmented(a, data16, b16)
        assert np.allclose(out, sputnik.spmm_loop_reference(a, b), atol=1e-3, rtol=1e-5)

    def test_empty_rows_and_empty_matrix(self, rng):
        dense = np.zeros((6, 8), dtype=np.float32)
        dense[2, 3] = 1.5  # rows 0, 1, 3, 4, 5 stay empty
        b = rng.normal(size=(8, 4)).astype(np.float32)
        a = CSRMatrix.from_dense(dense)
        assert np.allclose(sputnik.spmm(a, b), sputnik.spmm_loop_reference(a, b))
        data16 = np.asarray(a.data, dtype=np.float16).astype(np.float32)
        b16 = np.asarray(b, dtype=np.float16).astype(np.float32)
        assert np.allclose(
            sputnik._spmm_segmented(a, data16, b16), sputnik.spmm_loop_reference(a, b)
        )
        empty = CSRMatrix.from_dense(np.zeros((4, 8), dtype=np.float32))
        assert np.array_equal(sputnik.spmm(empty, b), np.zeros((4, 4), dtype=np.float32))


class TestCusparseVectorized:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("bsize", [2, 4, 16])
    def test_slot_batched_bit_matches_loop_reference(self, seed, bsize):
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(4 * bsize, 6 * bsize))
        # Knock out ~half of the blocks so rows have ragged block counts.
        mask = rng.random(size=(4, 6)) < 0.5
        dense = dense * np.kron(mask, np.ones((bsize, bsize)))
        a = BlockedEllMatrix.from_dense(dense, b=bsize)
        b = rng.normal(size=(6 * bsize, 5)).astype(np.float32)
        ref = cusparse.spmm_loop_reference(a, b)
        # The stacked formulation replays the loop's GEMMs and accumulation
        # order exactly (padding slots contribute exact zeros).
        assert np.array_equal(cusparse._spmm_slot_batched(a, b), ref)
        # The dispatching entry point agrees whichever formulation it picks.
        assert np.allclose(cusparse.spmm(a, b), ref, atol=1e-3, rtol=1e-5)

    def test_all_padding_rows(self, rng):
        dense = np.zeros((8, 8), dtype=np.float32)
        dense[0, 0] = 2.0
        a = BlockedEllMatrix.from_dense(dense, b=2)
        b = rng.normal(size=(8, 3)).astype(np.float32)
        assert np.array_equal(
            cusparse._spmm_slot_batched(a, b), cusparse.spmm_loop_reference(a, b)
        )

    def test_nonfinite_first_tile_does_not_leak_into_padded_rows(self):
        """Padding slots gather tile 0 as a placeholder; a non-finite value
        there must not produce NaN in rows whose slots are padding."""
        dense = np.zeros((8, 8), dtype=np.float32)
        dense[0, 0] = 1.0  # block row 0 keeps one block; rows 1..3 are all padding
        a = BlockedEllMatrix.from_dense(dense, b=2)
        b = np.ones((8, 3), dtype=np.float32)
        b[0] = 1e6  # overflows fp16 -> inf, inside tile 0
        ref = cusparse.spmm_loop_reference(a, b)
        out = cusparse._spmm_slot_batched(a, b)
        assert np.isfinite(out[2:]).all()
        # Row 1 holds NaN in both paths (the valid block's zero row times
        # the inf tile), hence equal_nan.
        assert np.array_equal(out, ref, equal_nan=True)

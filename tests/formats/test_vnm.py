"""Tests for the V:N:M format (paper Figure 3) — the core contribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.vnm import SELECTED_COLUMNS, VNMSparseMatrix, check_vnm_pattern, validate_vnm_shape
from repro.pruning.masks import apply_mask
from repro.pruning.vnm import vnm_mask


class TestShapeValidation:
    def test_valid_shape_passes(self):
        validate_vnm_shape(64, 128, v=16, n=2, m=8)

    def test_m_must_be_at_least_4(self):
        with pytest.raises(ValueError):
            validate_vnm_shape(64, 128, v=16, n=2, m=2)

    def test_n_at_most_4(self):
        with pytest.raises(ValueError):
            validate_vnm_shape(64, 128, v=16, n=5, m=8)

    def test_rows_divisible_by_v(self):
        with pytest.raises(ValueError):
            validate_vnm_shape(60, 128, v=16, n=2, m=8)

    def test_cols_divisible_by_m(self):
        with pytest.raises(ValueError):
            validate_vnm_shape(64, 130, v=16, n=2, m=8)

    def test_positive_values(self):
        with pytest.raises(ValueError):
            validate_vnm_shape(64, 128, v=0, n=2, m=8)


class TestPatternCheck:
    def test_compliant(self, dense_vnm):
        assert check_vnm_pattern(dense_vnm, v=8, n=2, m=8)

    def test_dense_violates(self, rng):
        dense = rng.normal(size=(16, 32)) + 5.0
        assert not check_vnm_pattern(dense, v=8, n=2, m=8)

    def test_too_many_columns_in_block_violates(self):
        m = np.zeros((8, 8), dtype=np.float32)
        m[0, 0] = m[1, 1] = m[2, 2] = m[3, 3] = m[4, 4] = 1.0  # 5 distinct columns used
        assert not check_vnm_pattern(m, v=8, n=2, m=8)

    def test_wrong_shape_returns_false(self):
        assert not check_vnm_pattern(np.zeros((7, 8)), v=8, n=2, m=8)


class TestCompression:
    def test_structure_shapes_match_figure3(self, vnm_matrix, dense_vnm):
        r, k = dense_vnm.shape
        m = vnm_matrix.m
        assert vnm_matrix.values.shape == (r, k // m * 2)
        assert vnm_matrix.m_indices.shape == (r, k // m * 2)
        assert vnm_matrix.column_loc.shape == (r // vnm_matrix.v, k // m * SELECTED_COLUMNS)

    def test_roundtrip_exact(self, vnm_matrix, dense_vnm):
        assert np.array_equal(vnm_matrix.to_dense(), dense_vnm)

    def test_strict_rejects_noncompliant(self, rng):
        dense = rng.normal(size=(16, 32)) + 5.0
        with pytest.raises(ValueError):
            VNMSparseMatrix.from_dense(dense, v=8, n=2, m=8, strict=True)

    def test_strict_rejects_an_entry_above_tol_it_would_drop(self):
        """Four columns of entries below ``tol`` outweigh the one entry above
        it, so selection would not store that entry."""
        a = np.zeros((4, 8), dtype=np.float32)
        a[0, 0] = 0.2
        a[1:, 1:5] = 0.09
        assert check_vnm_pattern(a, 4, 2, 8, tol=0.1)
        with pytest.raises(ValueError, match="violates"):
            VNMSparseMatrix.from_dense(a, v=4, n=2, m=8, tol=0.1)

    def test_strict_rejects_a_nonzero_beside_a_nan(self):
        """A NaN gives its column NaN mass, which ranks last, so selection
        would not store the nonzero in that column."""
        a = np.zeros((4, 8), dtype=np.float32)
        a[0, 0] = np.nan
        a[1, 0] = 1.0
        assert check_vnm_pattern(a, 4, 2, 8)
        with pytest.raises(ValueError, match="violates"):
            VNMSparseMatrix.from_dense(a, v=4, n=2, m=8)

    def test_non_strict_prunes_to_pattern(self, rng):
        dense = rng.normal(size=(16, 32)) + 5.0
        sp = VNMSparseMatrix.from_dense(dense, v=8, n=2, m=8, strict=False)
        assert check_vnm_pattern(sp.to_dense(), v=8, n=2, m=8)

    def test_compression_agrees_with_pruner(self, rng):
        """Compressing with strict=False must equal pruning then compressing."""
        dense = rng.normal(size=(32, 64))
        via_compressor = VNMSparseMatrix.from_dense(dense, v=16, n=2, m=16, strict=False).to_dense()
        pruned = apply_mask(dense, vnm_mask(dense, v=16, n=2, m=16))
        assert np.allclose(via_compressor, pruned.astype(np.float32), atol=1e-6)

    def test_various_configurations_roundtrip(self, rng):
        for v, n, m, rows, cols in [(4, 2, 4, 8, 16), (8, 1, 8, 16, 32), (16, 2, 16, 32, 64), (32, 2, 10, 64, 40)]:
            dense = rng.normal(size=(rows, cols))
            pruned = apply_mask(dense, vnm_mask(dense, v=v, n=n, m=m)).astype(np.float32)
            sp = VNMSparseMatrix.from_dense(pruned, v=v, n=n, m=m, strict=True)
            assert np.array_equal(sp.to_dense(), pruned), (v, n, m)

    def test_column_loc_range_validated(self, vnm_matrix):
        bad = vnm_matrix.column_loc.copy()
        bad[0, 0] = vnm_matrix.m  # out of range
        with pytest.raises(ValueError):
            VNMSparseMatrix(
                values=vnm_matrix.values,
                m_indices=vnm_matrix.m_indices,
                column_loc=bad,
                v=vnm_matrix.v,
                n=vnm_matrix.n,
                m=vnm_matrix.m,
                k=vnm_matrix.k,
            )


class TestDerivedViews:
    def test_logical_sparsity(self, vnm_matrix):
        assert vnm_matrix.logical_sparsity == pytest.approx(1 - 2 / 8)

    def test_condensed_shape_and_content(self, vnm_matrix, dense_vnm):
        cond = vnm_matrix.to_condensed()
        r, k = dense_vnm.shape
        assert cond.shape == (r, k // vnm_matrix.m * SELECTED_COLUMNS)
        # Every non-zero of the dense matrix must appear in the condensed view.
        assert np.count_nonzero(cond) == np.count_nonzero(dense_vnm)
        assert np.abs(cond).sum() == pytest.approx(np.abs(dense_vnm).sum(), rel=1e-6)

    def test_absolute_column_indices_consistent(self, vnm_matrix, dense_vnm):
        """column_loc picks the block's column, the m-index the position
        among the four: together they name each stored value's dense column."""
        sel = vnm_matrix.selected_column_indices()
        v, n = vnm_matrix.v, vnm_matrix.n
        vals = vnm_matrix.values
        for r in range(vals.shape[0]):
            for j in range(vals.shape[1]):
                col = sel[r // v, (j // n) * SELECTED_COLUMNS + vnm_matrix.m_indices[r, j]]
                assert dense_vnm[r, col] == vals[r, j]

    def test_selected_column_indices_within_groups(self, vnm_matrix):
        sel = vnm_matrix.selected_column_indices()
        m = vnm_matrix.m
        groups = vnm_matrix.groups_per_row
        assert sel.shape == (vnm_matrix.row_blocks, groups * SELECTED_COLUMNS)
        for g in range(groups):
            block = sel[:, g * SELECTED_COLUMNS : (g + 1) * SELECTED_COLUMNS]
            assert block.min() >= g * m
            assert block.max() < (g + 1) * m

    def test_footprint_accounts_all_structures(self, vnm_matrix):
        fp = vnm_matrix.footprint("fp16")
        assert fp.values_bytes == vnm_matrix.nnz * 2
        assert fp.metadata_bytes == vnm_matrix.nnz * 0.25
        assert fp.index_bytes == vnm_matrix.column_loc.size
        assert fp.total_bytes < vnm_matrix.dense_bytes("fp16")

    def test_higher_sparsity_compresses_more(self, rng):
        dense = rng.normal(size=(64, 128))
        low = VNMSparseMatrix.from_dense(dense, v=16, n=2, m=8, strict=False)
        high = VNMSparseMatrix.from_dense(dense, v=16, n=2, m=16, strict=False)
        assert high.footprint().total_bytes < low.footprint().total_bytes

    def test_storage_order_is_permutation(self, vnm_matrix):
        ordered = vnm_matrix.storage_order_values(ws_m=8, mma_k=32)
        assert ordered.size == vnm_matrix.values.size
        assert np.allclose(np.sort(ordered), np.sort(vnm_matrix.values.ravel()))

    def test_storage_order_invalid_args(self, vnm_matrix):
        with pytest.raises(ValueError):
            vnm_matrix.storage_order_values(ws_m=0)


class TestFigure13Patterns:
    """The format at every sparsity of the paper's sweep, M = 4 up to M = 100."""

    V = 16

    @pytest.fixture
    def pruned(self, rng, fig13_pattern):
        _, n, m = fig13_pattern
        dense = rng.normal(size=(2 * self.V, 3 * m))
        return apply_mask(dense, vnm_mask(dense, v=self.V, n=n, m=m)).astype(np.float32)

    def test_roundtrip_exact(self, pruned, fig13_pattern):
        _, n, m = fig13_pattern
        sp = VNMSparseMatrix.from_dense(pruned, v=self.V, n=n, m=m)
        assert np.array_equal(sp.to_dense(), pruned)
        assert sp.logical_sparsity == pytest.approx(1 - n / m)

    def test_footprint_matches_figure3_accounting(self, pruned, fig13_pattern):
        _, n, m = fig13_pattern
        r, k = pruned.shape
        fp = VNMSparseMatrix.from_dense(pruned, v=self.V, n=n, m=m).footprint("fp16")
        stored = r * k // m * n
        assert fp.values_bytes == stored * 2
        assert fp.metadata_bytes == stored * 2 / 8  # one 2-bit index per value
        assert fp.index_bytes == r // self.V * (k // m) * SELECTED_COLUMNS

    def test_metadata_names_every_nonzero(self, pruned, fig13_pattern):
        """Stored values, their 2-bit m-indices and column_loc scatter back
        onto exactly the non-zeros of the pruned matrix."""
        _, n, m = fig13_pattern
        sp = VNMSparseMatrix.from_dense(pruned, v=self.V, n=n, m=m)
        rows = np.repeat(np.arange(pruned.shape[0]), sp.values.shape[1])
        slots = (np.arange(sp.values.shape[1]) // n) * SELECTED_COLUMNS
        cols = sp.selected_column_indices()[rows // self.V, np.tile(slots, pruned.shape[0])
                                            + sp.m_indices.ravel()]
        assert np.array_equal(pruned[rows, cols], sp.values.ravel())
        hit = np.zeros(pruned.shape, dtype=bool)
        hit[rows, cols] = True
        assert not pruned[~hit].any()


@st.composite
def near_pattern_matrices(draw):
    """A finite weight pruned to ``v:n:m`` (l1 or l2), then with a few
    entries overwritten, so that some draws keep the pattern and some break
    it; ``-0.0`` and subnormals ride along."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    v = draw(st.sampled_from([1, 4, 16, 64]))
    m = draw(st.sampled_from([4, 8, 16]))
    n = draw(st.sampled_from([1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (v * draw(st.integers(1, 2)), m * draw(st.integers(1, 3)))
    w = (rng.normal(size=shape) * draw(st.sampled_from([1e-6, 1.0, 6e4]))).astype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    specials = (-0.0, tiny, -3 * tiny, 1.0)
    w.flat[rng.integers(0, w.size, size=4)] = rng.choice(specials, size=4)
    dense = apply_mask(w, vnm_mask(w, v=v, n=n, m=m, norm=draw(st.sampled_from(["l1", "l2"]))))
    flips = draw(st.integers(0, 3))
    dense.flat[rng.integers(0, w.size, size=flips)] = rng.choice(specials, size=flips)
    return dense, v, n, m


@settings(max_examples=80, deadline=None)
@given(near_pattern_matrices())
def test_strict_raises_exactly_when_the_pattern_check_fails(case):
    """At ``tol = 0`` on finite input, the one-count strict check accepts
    exactly the matrices :func:`check_vnm_pattern` accepts (judged on the
    float32 matrix the compressor stores from)."""
    dense, v, n, m = case
    if check_vnm_pattern(dense.astype(np.float32), v, n, m):
        a = VNMSparseMatrix.from_dense(dense, v=v, n=n, m=m)
        assert np.array_equal(a.to_dense(), dense.astype(np.float32))
    else:
        with pytest.raises(ValueError, match="violates"):
            VNMSparseMatrix.from_dense(dense, v=v, n=n, m=m)

"""Property-based tests for pruning invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.formats.nm import check_nm_pattern
from repro.formats.vnm import check_vnm_pattern
from repro.pruning.energy import energy_metric, ideal_energy
from repro.pruning.magnitude import magnitude_mask
from repro.pruning.masks import mask_sparsity
from repro.pruning.nm import nm_mask
from repro.pruning.vector_wise import vector_wise_mask
from repro.pruning.vnm import pad_to_vnm_shape, vnm_mask


def weight_matrices():
    return st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda dims: hnp.arrays(
            dtype=np.float64,
            shape=(dims[0] * 8, dims[1] * 16),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )


@settings(max_examples=25, deadline=None)
@given(weight_matrices(), st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9, 1.0]))
def test_magnitude_mask_hits_exact_sparsity(w, sparsity):
    mask = magnitude_mask(w, sparsity)
    expected_pruned = round(sparsity * w.size)
    assert (~mask).sum() == expected_pruned


@settings(max_examples=25, deadline=None)
@given(weight_matrices(), st.sampled_from([(2, 4), (2, 8), (1, 16), (2, 16)]))
def test_nm_mask_always_structurally_valid(w, pattern):
    n, m = pattern
    mask = nm_mask(w, n, m)
    assert check_nm_pattern(mask, n, m)
    assert mask_sparsity(mask) == 1 - n / m


@settings(max_examples=25, deadline=None)
@given(weight_matrices(), st.sampled_from([(4, 2, 8), (8, 2, 16), (8, 1, 8)]))
def test_vnm_mask_always_structurally_valid(w, config):
    v, n, m = config
    mask = vnm_mask(w, v=v, n=n, m=m)
    assert check_vnm_pattern(mask, v=v, n=n, m=m)
    assert mask_sparsity(mask) == 1 - n / m


@settings(max_examples=25, deadline=None)
@given(weight_matrices())
def test_vnm_energy_never_exceeds_ideal(w):
    if np.abs(w).sum() == 0:
        return  # energy undefined for an all-zero matrix
    mask = vnm_mask(w, v=8, n=2, m=8)
    assert energy_metric(w, mask) <= ideal_energy(w, 0.75) + 1e-9


@settings(max_examples=25, deadline=None)
@given(weight_matrices())
def test_vector_wise_mask_keeps_whole_vectors(w):
    mask = vector_wise_mask(w, 0.5, l=8)
    vectors = mask.reshape(w.shape[0] // 8, 8, w.shape[1])
    all_or_nothing = vectors.all(axis=1) | (~vectors).all(axis=1)
    assert np.all(all_or_nothing)


@settings(max_examples=25, deadline=None)
@given(weight_matrices(), st.sampled_from([0.25, 0.5, 0.75]))
def test_magnitude_energy_monotone_in_sparsity(w, sparsity):
    if np.abs(w).sum() == 0:
        return
    assert ideal_energy(w, sparsity) >= ideal_energy(w, min(0.99, sparsity + 0.2)) - 1e-9


@st.composite
def scaled_weights(draw):
    """float32 or float64 normal weights with ``v``, ``m`` and ``n`` drawn,
    at a drawn scale, with ``-0.0``, subnormals, NaN and +-inf sprinkled in."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    v = draw(st.sampled_from([1, 4, 16, 64]))
    m = draw(st.sampled_from([4, 8, 16]))
    n = draw(st.sampled_from([1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (v * draw(st.integers(1, 2)), m * draw(st.integers(1, 3)))
    w = (rng.normal(size=shape) * draw(st.sampled_from([1e-6, 1.0, 6e4]))).astype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    for value in (-0.0, tiny, -5 * tiny, np.nan, np.inf, -np.inf):
        w.flat[rng.integers(0, w.size, size=draw(st.integers(0, 2)))] = value
    return w, v, n, m


@settings(max_examples=80, deadline=None)
@given(scaled_weights(), st.sampled_from(["l1", "l2"]))
def test_vnm_mask_of_a_weight_is_the_mask_of_its_float64_copy(case, norm):
    """A float32 weight is pruned in float32 and gets its float64 copy's mask."""
    w, v, n, m = case
    mask = vnm_mask(w, v=v, n=n, m=m, norm=norm)
    assert np.array_equal(mask, vnm_mask(w.astype(np.float64), v=v, n=n, m=m, norm=norm))
    padded, shape = pad_to_vnm_shape(w[:, 1:], v, m)
    assert padded.dtype == w.dtype and shape == (w.shape[0], w.shape[1] - 1)

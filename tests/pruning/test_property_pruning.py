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
from repro.pruning.vnm import vnm_mask


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

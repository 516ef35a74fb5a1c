"""Tests for the energy metric (paper Section 5 / Figure 11)."""

import numpy as np
import pytest

from repro.pruning.energy import (
    energy_metric,
    energy_study,
    ideal_energy,
    vector_wise_energy,
    vnm_energy,
)
from repro.pruning.magnitude import magnitude_mask


@pytest.fixture
def weight(rng):
    return rng.normal(size=(64, 64))


class TestEnergyMetric:
    def test_full_mask_energy_one(self, weight):
        assert energy_metric(weight, np.ones_like(weight, dtype=bool)) == pytest.approx(1.0)

    def test_empty_mask_energy_zero(self, weight):
        assert energy_metric(weight, np.zeros_like(weight, dtype=bool)) == pytest.approx(0.0)

    def test_bounded_between_zero_and_one(self, weight):
        mask = magnitude_mask(weight, 0.6)
        assert 0.0 <= energy_metric(weight, mask) <= 1.0

    def test_shape_mismatch(self, weight):
        with pytest.raises(ValueError):
            energy_metric(weight, np.ones((2, 2), dtype=bool))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            energy_metric(np.zeros((4, 4)), np.ones((4, 4), dtype=bool))


class TestPolicies:
    def test_ideal_is_optimal_at_fixed_sparsity(self, weight):
        """No structured policy can retain more energy than unstructured magnitude."""
        s = 0.75
        ideal = ideal_energy(weight, s)
        assert vnm_energy(weight, v=16, n=2, m=8) <= ideal + 1e-9
        assert vnm_energy(weight, v=1, n=2, m=8) <= ideal + 1e-9
        assert vector_wise_energy(weight, s, l=8) <= ideal + 1e-9

    def test_ordering_at_every_figure13_sparsity(self, rng, fig13_pattern):
        """Every V:N:M mask is an N:M mask, and an N:M mask keeps no more
        weights than unstructured pruning at the sweep's sparsity, so the
        optimal masks order as ideal >= 1:N:M >= 16:N:M all the way to 2:100."""
        sparsity, n, m = fig13_pattern
        weight = rng.normal(size=(32, 4 * m))
        ideal = ideal_energy(weight, sparsity)
        nm = vnm_energy(weight, v=1, n=n, m=m)
        vnm = vnm_energy(weight, v=16, n=n, m=m)
        assert ideal + 1e-9 >= nm >= vnm - 1e-9
        assert vnm > 0.0

    def test_ideal_energy_decreases_with_sparsity(self, weight):
        energies = [ideal_energy(weight, s) for s in (0.5, 0.75, 0.9, 0.95)]
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_plain_nm_beats_larger_v(self, weight):
        """Smaller V is less constrained, so it retains at least as much energy."""
        e1 = vnm_energy(weight, v=1, n=2, m=8)
        e16 = vnm_energy(weight, v=16, n=2, m=8)
        e64 = vnm_energy(weight, v=64, n=2, m=8)
        assert e1 >= e16 - 1e-9
        assert e16 >= e64 - 1e-9

    def test_vnm_robust_to_vector_length(self):
        """Key paper claim: even V=128 preserves more energy than vw_8 / vw_4.

        Checked on a trained-like layer (column outliers), the setting the
        paper's Figure 11 uses.
        """
        from repro.pruning.second_order.proxy import synthesize_trained_layer

        w = synthesize_trained_layer(rows=128, cols=256, seed=8)
        e_vnm_128 = vnm_energy(w, v=128, n=2, m=8)
        assert e_vnm_128 > vector_wise_energy(w, 0.75, l=8)
        assert e_vnm_128 > vector_wise_energy(w, 0.75, l=4)
        # ... and the degradation from V=1 to V=128 stays modest (< 25% relative).
        e_vnm_1 = vnm_energy(w, v=1, n=2, m=8)
        assert (e_vnm_1 - e_vnm_128) / e_vnm_1 < 0.25

    def test_longer_vectors_retain_less_energy(self, weight):
        e4 = vector_wise_energy(weight, 0.75, l=4)
        e32 = vector_wise_energy(weight, 0.75, l=32)
        assert e32 <= e4 + 1e-9


class TestEnergyStudy:
    def test_schema_and_lengths(self, weight):
        study = energy_study(weight, sparsities=(0.5, 0.75), v_values=(1, 16), vw_lengths=(4, 8))
        assert set(study) == {"ideal", "1:N:M", "16:N:M", "vw_4", "vw_8"}
        assert all(len(v) == 2 for v in study.values())

    def test_ideal_dominates(self, rng):
        # 80 columns are divisible by every M the sparsity levels imply
        # (4, 8, 20), so no padding artifacts blur the comparison.
        weight = rng.normal(size=(64, 80))
        study = energy_study(weight, sparsities=(0.5, 0.75, 0.9), v_values=(1, 16, 32), vw_lengths=(4, 8))
        for label, series in study.items():
            assert all(e <= ideal + 1e-9 for e, ideal in zip(series, study["ideal"])), label

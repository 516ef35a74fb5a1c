"""Shared fixtures for the test suite.

Every test operates on small, deterministic inputs; the fixtures here
provide the common building blocks (RNG, small dense/pruned matrices,
compressed operands, the simulated GPU) so individual tests stay focused on
the behaviour they check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats.nm import NMSparseMatrix
from repro.formats.vnm import VNMSparseMatrix
from repro.hardware.spec import rtx3090
from repro.pruning.masks import apply_mask
from repro.pruning.nm import nm_mask
from repro.pruning.vnm import vnm_mask


#: The (sparsity, N, M) points of the paper's Figure 13 sweep, 50% to 98%.
FIGURE13_PATTERNS = (
    (0.50, 2, 4),
    (0.70, 2, 7),
    (0.75, 2, 8),
    (0.80, 2, 10),
    (0.90, 2, 20),
    (0.95, 2, 40),
    (0.98, 2, 100),
)


@pytest.fixture(params=FIGURE13_PATTERNS, ids=lambda p: f"{p[1]}:{p[2]}")
def fig13_pattern(request):
    """One ``(sparsity, n, m)`` point of Figure 13; a test taking it runs at all seven."""
    return request.param


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def gpu():
    """The simulated RTX 3090 used by the kernel models."""
    return rtx3090()


@pytest.fixture
def small_dense(rng) -> np.ndarray:
    """A small dense matrix (32 x 64) with transformer-like statistics."""
    return rng.normal(0.0, 0.02, size=(32, 64)).astype(np.float32)


@pytest.fixture
def dense_24(rng) -> np.ndarray:
    """A 16 x 32 matrix already pruned to the 2:4 pattern."""
    w = rng.normal(size=(16, 32))
    return apply_mask(w, nm_mask(w, n=2, m=4)).astype(np.float32)


@pytest.fixture
def nm_matrix(dense_24) -> NMSparseMatrix:
    """The 2:4 matrix compressed into the N:M format."""
    return NMSparseMatrix.from_dense(dense_24, n=2, m=4)


@pytest.fixture
def dense_vnm(rng) -> np.ndarray:
    """A 32 x 64 matrix pruned to the 8:2:8 (V=8, 2:8) pattern."""
    w = rng.normal(size=(32, 64))
    return apply_mask(w, vnm_mask(w, v=8, n=2, m=8)).astype(np.float32)


@pytest.fixture
def vnm_matrix(dense_vnm) -> VNMSparseMatrix:
    """The V:N:M-pruned matrix compressed into the V:N:M format."""
    return VNMSparseMatrix.from_dense(dense_vnm, v=8, n=2, m=8)


@pytest.fixture
def activations(rng) -> np.ndarray:
    """A dense RHS operand (64 x 24) for SpMM tests."""
    return rng.normal(size=(64, 24)).astype(np.float32)

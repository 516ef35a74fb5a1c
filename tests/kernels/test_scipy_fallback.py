"""SciPy-absent degradation tests.

The container toolchain ships SciPy, but the engine must not *require* it:
``sputnik.spmm`` falls back to the pure-NumPy segmented reduction and the
synthetic gradient generator falls back to a NumPy AR(1) filter, so a full
``benchmarks/run_bench.py --quick`` sweep completes without SciPy instead
of failing the whole run.  These tests simulate the absence by poisoning
``sys.modules`` (the documented way to make ``import scipy`` raise).
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.kernels import sputnik
from repro.pruning.second_order.fisher import _ar1_filter, synthetic_gradients


@pytest.fixture
def no_scipy(monkeypatch):
    """Make every ``import scipy[.x]`` raise ImportError."""
    for mod in ("scipy", "scipy.signal", "scipy.sparse"):
        monkeypatch.setitem(sys.modules, mod, None)


def test_sputnik_spmm_falls_back_to_segmented(no_scipy, rng):
    dense = rng.normal(size=(16, 24)) * (rng.random(size=(16, 24)) < 0.3)
    a = CSRMatrix.from_dense(dense)
    b = rng.normal(size=(24, 6)).astype(np.float32)
    out = sputnik.spmm(a, b)  # must not raise
    ref = sputnik.spmm_loop_reference(a, b)
    assert np.allclose(out, ref, atol=1e-3, rtol=1e-5)
    # The fallback is the segmented-reduction path, bit for bit.
    data16 = np.asarray(a.data, dtype=np.float16).astype(np.float32)
    b16 = np.asarray(b, dtype=np.float16).astype(np.float32)
    assert np.array_equal(out, sputnik._spmm_segmented(a, data16, b16))


def test_synthetic_gradients_without_scipy(no_scipy, rng):
    w = rng.normal(size=(8, 16))
    grads = synthetic_gradients(w, num_samples=4, seed=0)
    assert grads.shape == (4, w.size)
    assert np.isfinite(grads).all()


def test_ar1_fallback_matches_lfilter():
    """The NumPy AR(1) filter reproduces scipy.signal.lfilter (when SciPy
    is present to compare against)."""
    scipy_signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(0)
    for shape in [(3, 1), (4, 7), (3, 128), (5, 300)]:
        x = rng.standard_normal(shape)
        for a in (0.25, 0.5, 0.9):
            ref = scipy_signal.lfilter([np.sqrt(1.0 - a * a)], [1.0, -a], x, axis=1)
            assert np.allclose(_ar1_filter(x, a), ref, atol=1e-12)


def test_ar1_fallback_no_overflow_for_small_decay():
    """Small decay values must not overflow on the masked upper triangle
    (the exponent is clamped before the mask)."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 200))
    # Harmless underflow to subnormals is fine; overflow/invalid are not.
    with np.errstate(over="raise", invalid="raise"):
        out = _ar1_filter(x, 0.003)
    assert np.isfinite(out).all()


def test_synthetic_gradients_agree_with_and_without_scipy(monkeypatch, rng):
    """The gradient generator must produce (numerically) the same samples
    either way, so a SciPy-less box reproduces the same pruning decisions."""
    w = rng.normal(size=(6, 12))
    with_scipy = synthetic_gradients(w, num_samples=5, seed=3)
    for mod in ("scipy", "scipy.signal", "scipy.sparse"):
        monkeypatch.setitem(sys.modules, mod, None)
    without = synthetic_gradients(w, num_samples=5, seed=3)
    assert np.allclose(with_scipy, without, atol=1e-10)


def _load_run_bench():
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "run_bench.py"
    spec = importlib.util.spec_from_file_location("run_bench_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_bench_quick_path_survives_without_scipy(no_scipy):
    """Every bench family of the --quick sweep completes without SciPy
    (shrunk shapes keep this a sub-second smoke test)."""
    run_bench = _load_run_bench()
    rng = np.random.default_rng(0)
    entries = []
    run_bench.bench_spatha_spmm(entries, 64, 8, 2, 4, rng)
    run_bench.bench_baseline_kernels(entries, 32, rng)
    run_bench.bench_formats(entries, 32, rng)
    run_bench.bench_pruning(entries, 8, 32, rng)
    run_bench.bench_model_serving(
        entries, hidden=32, intermediate=64, num_layers=1, num_requests=4, lengths=[8], rng=rng
    )
    assert len(entries) >= 10
    for entry in entries:
        assert np.isfinite(entry["max_abs_diff"])
        assert entry["vectorized_s"] >= 0  # rounded; tiny shapes may print 0.0
        assert np.isfinite(entry["speedup"])

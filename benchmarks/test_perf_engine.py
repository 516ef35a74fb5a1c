"""Microbenchmarks of the vectorized execution engine.

Times the batched paths against their retained loop references on
moderately sized operands and asserts both the numerical equivalence and a
conservative speedup floor (the full-size numbers — including the 10x+
4096-cube SpMM — are produced by ``benchmarks/run_bench.py`` and recorded
in ``BENCH_engine.json``).

Wall-clock gates are timing-sensitive by nature, and shared CI runners
jitter enough to red-flag a correct PR.  Environment handling:

* locally (no ``CI`` variable): gates run with the strict floors;
* under ``CI=true`` (GitHub sets this automatically): the whole module
  **skips** unless ``PERF_GATES`` is set, so the blocking test jobs can
  never flake on scheduler noise;
* ``PERF_GATES=relaxed``: gates run with loosened floors/budgets — what
  the dedicated *non-blocking* perf job in ``.github/workflows/ci.yml``
  uses (regressions stay visible without gating merges);
* ``PERF_GATES=strict``: the local strict floors, anywhere.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.evaluation.reporting import format_table
from repro.formats.vnm import VNMSparseMatrix, vnm_select, vnm_select_reference
from repro.kernels.spatha import SpmmPlan, spmm_loop_reference
from repro.pruning.second_order.obs_vnm import (
    second_order_vnm_prune,
    second_order_vnm_prune_reference,
)
from repro.serving import (
    ContinuousBatcher,
    Request,
    SchedulingConfig,
    plan_slo_batch_reference,
)

IN_CI = os.environ.get("CI", "").lower() in {"1", "true", "yes"}
PERF_GATES = os.environ.get("PERF_GATES", "").lower()
STRICT = PERF_GATES == "strict" or (not IN_CI and PERF_GATES != "relaxed")

#: Conservative local floor vs the near-noise floor the relaxed CI job
#: uses (the vectorized paths are typically >10x; even 1.05x would mean a
#: catastrophic regression, so the relaxed gate still catches real breaks).
SPEEDUP_FLOOR = 1.5 if STRICT else 1.05

# The perf marker (registered in pytest.ini) lets noisy environments
# deselect these with ``-m "not perf"`` without touching tier-1.
pytestmark = [
    pytest.mark.perf,
    pytest.mark.skipif(
        IN_CI and PERF_GATES not in {"strict", "relaxed"},
        reason="wall-clock perf gates skip on CI runners unless PERF_GATES is set "
        "(the non-blocking perf workflow job runs them with PERF_GATES=relaxed)",
    ),
]


def best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), result


def test_perf_spmm_plan_vs_loop(run_once):
    rng = np.random.default_rng(0)
    r = k = 1024
    c = 256
    dense = rng.normal(size=(r, k)).astype(np.float32)
    a = VNMSparseMatrix.from_dense(dense, v=16, n=2, m=4, strict=False)
    b = rng.normal(size=(k, c)).astype(np.float32)

    plan = SpmmPlan.for_matrix(a)
    plan.execute(b)  # warm: operand preparation paid once, like serving

    ref_t, ref_out = best_of(lambda: spmm_loop_reference(a, b))
    vec_t, vec_out = run_once(lambda: best_of(lambda: plan.execute(b)))

    print()
    print(
        format_table(
            ["op", "shape", "loop (ms)", "vectorized (ms)", "speedup"],
            [
                [
                    "spatha.spmm",
                    f"{r}x{k}x{c} 16:2:4",
                    round(ref_t * 1e3, 2),
                    round(vec_t * 1e3, 2),
                    round(ref_t / vec_t, 1),
                ]
            ],
            title="Vectorized engine microbenchmark (see run_bench.py for full sizes)",
        )
    )

    assert np.allclose(vec_out, ref_out, atol=1e-3, rtol=1e-5)
    # The full-size speedup is >10x (see BENCH_engine.json); at this reduced
    # size we only assert a conservative floor to keep the suite robust.
    assert ref_t / vec_t > SPEEDUP_FLOOR


def test_perf_second_order_vnm_vs_loop(run_once):
    rng = np.random.default_rng(1)
    w = rng.normal(size=(32, 64))

    ref_t, ref = best_of(lambda: second_order_vnm_prune_reference(w, v=8, n=2, m=8), repeats=2)
    vec_t, vec = run_once(lambda: best_of(lambda: second_order_vnm_prune(w, v=8, n=2, m=8)))

    print()
    print(
        format_table(
            ["op", "shape", "loop (ms)", "vectorized (ms)", "speedup"],
            [
                [
                    "second_order_vnm_prune",
                    "32x64 8:2:8",
                    round(ref_t * 1e3, 1),
                    round(vec_t * 1e3, 1),
                    round(ref_t / vec_t, 1),
                ]
            ],
        )
    )

    assert np.array_equal(vec.mask, ref.mask)
    assert np.allclose(vec.pruned_weights, ref.pruned_weights, atol=1e-10)
    # Typically >10x; the floor is deliberately loose so scheduler noise on
    # the single-core CI box cannot flake the gate.
    assert ref_t / vec_t > SPEEDUP_FLOOR


#: ``vnm_select`` must not be slower than its argsort reference anywhere;
#: its margin at the smallest tier-1 shape is only ~1.3x.
NO_SLOWER_FLOOR = 1.0 if STRICT else 0.9


@pytest.mark.parametrize(
    "shape, pattern",
    [((64, 64), (1, 2, 8)), ((64, 64), (1, 2, 4)), ((256, 256), (64, 2, 8)), ((128, 128), (2, 1, 16))],
)
def test_perf_vnm_select_vs_reference(run_once, shape, pattern):
    """V:N:M selection against its argsort reference at tier-1 sizes
    (``run_bench.py`` records the ``spmm_sweep`` sizes): interleaved
    medians, bit-equal outputs."""
    w = np.random.default_rng(4).normal(size=shape)
    v, n, m = pattern

    def timed_pair():
        ref_times, vec_times = [], []
        for _ in range(40):
            t0 = time.perf_counter()
            ref = vnm_select_reference(w, v, n, m)
            t1 = time.perf_counter()
            vec = vnm_select(w, v, n, m)
            t2 = time.perf_counter()
            ref_times.append(t1 - t0)
            vec_times.append(t2 - t1)
        assert all(np.array_equal(a, b) for a, b in zip(ref, vec))
        return float(np.median(ref_times)), float(np.median(vec_times))

    ref_t, vec_t = run_once(timed_pair)
    print()
    print(
        format_table(
            ["op", "shape", "reference (us)", "vectorized (us)", "speedup"],
            [["vnm_select", f"{shape[0]}x{shape[1]} {v}:{n}:{m}", round(ref_t * 1e6, 1),
              round(vec_t * 1e6, 1), round(ref_t / vec_t, 2)]],
        )
    )
    assert ref_t / vec_t > NO_SLOWER_FLOOR


@pytest.mark.parametrize("policy,queued", [("priority", 512), ("fcfs", 8)])
def test_perf_batcher_plan_vs_reference(run_once, policy, queued):
    """``ContinuousBatcher.next_batch`` against ``plan_slo_batch_reference``
    on the same queued set: a two-class ladder queue refilled to ``queued``
    requests before every call, a third of them with deadlines."""
    rng = np.random.default_rng(3)
    batcher = ContinuousBatcher.ladder(scheduling=SchedulingConfig(policy=policy))
    payload = {n: np.zeros((n, 64), dtype=np.float32) for n in (8, 16, 32, 64, 128)}
    serial = 0

    def refill():
        nonlocal serial
        while batcher.pending < queued:
            batcher.submit(
                Request(
                    f"q-{serial:06d}",
                    payload[int(rng.choice((8, 16, 32, 64, 128)))],
                    arrival_us=float(rng.uniform(0.0, 100.0)),
                    deadline_us=float(rng.uniform(1e6, 2e6)) if serial % 3 == 0 else None,
                    priority_class=serial % 2,
                )
            )
            serial += 1

    def timed_pair():
        ref_times, vec_times = [], []
        for _ in range(40):
            refill()
            items = list(batcher._by_id.values())
            t0 = time.perf_counter()
            ref_key, ref_chunk = plan_slo_batch_reference(
                items,
                key_of=batcher.bucket_key,
                arrival_of=lambda r: r.arrival_us,
                id_of=lambda r: r.request_id,
                max_batch_size=batcher.max_batch_size,
                class_of=lambda r: r.priority_class,
                deadline_of=lambda r: r.deadline_us,
                policy=policy,
            )
            t1 = time.perf_counter()
            batch = batcher.next_batch(100.0)
            t2 = time.perf_counter()
            assert (batch.key, [r.request_id for r in batch.requests]) == (
                ref_key, [r.request_id for r in ref_chunk]
            )
            ref_times.append(t1 - t0)
            vec_times.append(t2 - t1)
        return float(np.median(ref_times)), float(np.median(vec_times))

    ref_t, vec_t = run_once(timed_pair)

    print()
    print(
        format_table(
            ["op", "queued", "reference (us)", "batcher (us)", "speedup"],
            [[f"next_batch {policy}", queued, round(ref_t * 1e6, 1),
              round(vec_t * 1e6, 1), round(ref_t / vec_t, 1)]],
        )
    )
    assert ref_t / vec_t > SPEEDUP_FLOOR


#: Wall-clock ceiling for the tier-1 serving subset.  The golden encoder
#: matrices are deliberately split (full grids marked ``slow``, smoke
#: subsets in tier-1); this gate fails if the tier-1 slice creeps past the
#: budget, e.g. because matrix cells lose their ``slow`` marker or grow
#: expensive fixtures.  Relaxed-mode CI triples the budget: the gate is
#: about runaway test growth, not about the runner's disk/CPU of the day.
SERVING_TIER1_BUDGET_S = 120.0 if STRICT else 360.0


def test_perf_serving_tier1_wallclock_budget(run_once):
    """Run the tier-1 ``tests/serving`` subset end to end and time it.

    Uses a subprocess so the measurement includes collection and fixture
    cost (what CI actually pays) and so pytest.ini's default ``-m "not
    slow"`` tier-1 selection applies; ``--durations`` is requested so a
    budget breach names the slow tests in the captured output.
    """
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    def run_subset():
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "tests/serving", "-q", "--durations=5",
             "-p", "no:cacheprovider"],
            cwd=repo_root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10 * 60,
        )
        return time.perf_counter() - t0, proc

    elapsed, proc = run_once(run_subset)
    assert proc.returncode == 0, f"tier-1 serving subset failed:\n{proc.stdout}\n{proc.stderr}"
    assert "deselected" in proc.stdout  # the slow golden matrix stayed out
    assert elapsed < SERVING_TIER1_BUDGET_S, (
        f"tier-1 tests/serving took {elapsed:.1f}s (budget {SERVING_TIER1_BUDGET_S:.0f}s); "
        f"slowest tests:\n{proc.stdout}"
    )

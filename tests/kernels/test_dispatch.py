"""Unit tests for the SpMM dispatcher: Spatha's plan with a cuBLAS fallback."""

import numpy as np
import pytest

from repro.formats.vnm import VNMSparseMatrix
from repro.kernels import common as kernels_common
from repro.kernels import cublas
from repro.kernels.common import BoundedCache, GemmProblem
from repro.kernels.dispatch import (
    Backend,
    CublasDenseBackend,
    KernelDispatcher,
    SpathaPlanBackend,
    SpmmOperand,
    default_backends,
    default_dispatcher,
)
from repro.kernels.spatha import SpmmPlan
from repro.pruning.masks import apply_mask
from repro.hardware.spec import rtx3090
from repro.pruning.vnm import vnm_mask


@pytest.fixture
def pruned(rng):
    dense = rng.normal(size=(32, 64))
    return apply_mask(dense, vnm_mask(dense, v=8, n=2, m=8)).astype(np.float32)


@pytest.fixture
def operand(pruned):
    return SpmmOperand.from_vnm(VNMSparseMatrix.from_dense(pruned, v=8, n=2, m=8, strict=True))


class TestSpmmOperand:
    def test_pattern_and_shape(self, operand, pruned):
        assert operand.pattern == (8, 2, 8)
        assert operand.shape == (32, 64)
        dense = SpmmOperand(dense=pruned)
        assert dense.pattern is None and dense.vnm is None
        assert dense.shape == (32, 64)

    def test_holds_exactly_one_matrix(self, operand, pruned):
        with pytest.raises(ValueError, match="exactly one"):
            SpmmOperand()
        with pytest.raises(ValueError, match="exactly one"):
            SpmmOperand(vnm=operand.vnm, dense=pruned)

    def test_dense_view_matches_the_vnm_matrix(self, operand, pruned):
        assert np.allclose(operand.dense(), pruned, atol=1e-6)

    def test_dense_view_memoized(self, operand):
        assert operand.dense() is operand.dense()

    def test_from_vnm(self, pruned):
        vnm = VNMSparseMatrix.from_dense(pruned, v=8, n=2, m=8, strict=True)
        op = SpmmOperand.from_vnm(vnm, name="w")
        assert op.vnm is vnm and op.name == "w"
        assert op.pattern == (8, 2, 8)

    def test_sparsity_from_pattern_and_counts(self, pruned):
        vnm_op = SpmmOperand.from_vnm(VNMSparseMatrix.from_dense(pruned, v=8, n=2, m=8))
        assert vnm_op.sparsity() == pytest.approx(0.75)
        dense_op = SpmmOperand(dense=pruned)
        assert dense_op.sparsity() == pytest.approx(
            1.0 - np.count_nonzero(pruned) / pruned.size
        )

    def test_vnm_must_be_a_vnm_matrix(self, pruned):
        with pytest.raises(TypeError):
            SpmmOperand(vnm=pruned)

    def test_all_zero_operand_has_model_safe_sparsity(self):
        op = SpmmOperand(dense=np.zeros((8, 16), dtype=np.float32))
        assert op.sparsity() < 1.0
        assert op.problem(4).sparsity < 1.0

    def test_dense_operand_keeps_its_matrix(self, pruned):
        op = SpmmOperand(dense=pruned)
        assert op.dense() is op.dense()
        assert np.array_equal(op.dense(), pruned)


class TestDispatchDecisions:
    def test_chosen_backend_is_cost_argmin(self, operand):
        dispatcher = KernelDispatcher()
        decision = dispatcher.dispatch(operand, 24)
        assert set(decision.costs) == {"spatha-plan", "cublas-dense"}
        assert decision.backend == min(decision.costs, key=decision.costs.get)
        assert decision.ranking[0][0] == decision.backend

    def test_costs_match_direct_estimators(self, operand):
        """The registry ranks with the same tuner/perf-model estimates a
        caller would compute by hand."""
        dispatcher = KernelDispatcher()
        decision = dispatcher.dispatch(operand, 24)
        assert decision.costs["spatha-plan"] == pytest.approx(
            SpathaPlanBackend().estimate(operand, 24, dispatcher.gpu).time_us
        )
        assert decision.costs["cublas-dense"] == pytest.approx(
            cublas.estimate_time(operand.problem(24), gpu=dispatcher.gpu).time_us
        )

    def test_decision_memoized_per_shape_bucket(self, operand):
        dispatcher = KernelDispatcher()
        d1 = dispatcher.dispatch(operand, 20)
        assert dispatcher.dispatch(operand, 24) is d1  # same bucket (32)
        d2 = dispatcher.dispatch(operand, 40)  # bucket 64
        assert d2 is not d1
        assert dispatcher.cache_size() == 2
        dispatcher.clear_cache()
        assert dispatcher.cache_size() == 0

    def test_shape_bucket_boundaries(self):
        assert KernelDispatcher.shape_bucket(1) == 1
        assert KernelDispatcher.shape_bucket(32) == 32
        assert KernelDispatcher.shape_bucket(33) == 64
        with pytest.raises(ValueError):
            KernelDispatcher.shape_bucket(0)

    def test_signature_separates_dense_and_vnm(self, operand, pruned):
        dispatcher = KernelDispatcher()
        dense = SpmmOperand(dense=pruned)
        assert dispatcher.signature(dense, 16) != dispatcher.signature(operand, 16)
        assert dispatcher.signature(operand, 16) == (
            (8, 2, 8), 32, 64, 16, round(operand.sparsity(), 4)
        )
        assert set(dispatcher.dispatch(dense, 16).costs) == {"cublas-dense"}

    def test_same_shape_different_content_not_aliased(self, rng):
        """Two same-shape operands with different sparsity must get their
        own decisions on a SHARED dispatcher — each matching the argmin of
        its own cost model (regression: the signature once omitted operand
        content, so the second operand inherited the first's decision)."""
        shape = (256, 256)
        sparse_dense = (rng.normal(size=shape) * (rng.random(size=shape) < 0.01)).astype(
            np.float32
        )
        dense_dense = (rng.normal(size=shape) * (rng.random(size=shape) < 0.95)).astype(
            np.float32
        )
        nearly_empty = SpmmOperand(dense=sparse_dense)
        nearly_full = SpmmOperand(dense=dense_dense)
        shared = KernelDispatcher()
        d1 = shared.dispatch(nearly_empty, 64)
        d2 = shared.dispatch(nearly_full, 64)
        assert d1 is not d2
        for operand, decision in ((nearly_empty, d1), (nearly_full, d2)):
            fresh_costs = {
                name: shared.backend(name).estimate(operand, 64, shared.gpu).time_us
                for name in decision.costs
            }
            assert decision.backend == min(fresh_costs, key=fresh_costs.get)
            assert decision.costs == pytest.approx(fresh_costs)

    def test_large_vnm_problem_prefers_spatha(self, rng):
        dense = rng.normal(size=(1024, 2048))
        pruned = apply_mask(dense, vnm_mask(dense, v=64, n=2, m=16)).astype(np.float32)
        op = SpmmOperand.from_vnm(VNMSparseMatrix.from_dense(pruned, v=64, n=2, m=16))
        decision = KernelDispatcher().dispatch(op, 4096)
        assert decision.backend == "spatha-plan"

    def test_cache_hit_miss_counters(self, operand):
        dispatcher = KernelDispatcher()
        empty = {"size": 0, "hits": 0, "misses": 0}
        assert dispatcher.cache_stats() == {
            **empty,
            "estimate_size": 0,
            "estimate_hits": 0,
            "estimate_misses": 0,
        }
        dispatcher.dispatch(operand, 20)  # miss (bucket 32)
        dispatcher.dispatch(operand, 24)  # hit (same bucket)
        dispatcher.dispatch(operand, 40)  # miss (bucket 64)
        stats = dispatcher.cache_stats()
        assert (stats["size"], stats["hits"], stats["misses"]) == (2, 1, 2)
        # Counters are cumulative traffic: clear_cache drops entries only,
        # and re-ranking a dropped signature counts as a fresh miss.
        dispatcher.clear_cache()
        stats = dispatcher.cache_stats()
        assert stats["size"] == 0 and stats["hits"] == 1 and stats["misses"] == 2
        dispatcher.dispatch(operand, 20)
        stats = dispatcher.cache_stats()
        assert (stats["size"], stats["hits"], stats["misses"]) == (1, 1, 3)

    def test_estimate_is_memoized_per_exact_c(self, operand):
        dispatcher = KernelDispatcher()
        first = dispatcher.estimate(operand, 24)
        again = dispatcher.estimate(operand, 24)
        assert again is first  # shared, read-only by contract
        other_c = dispatcher.estimate(operand, 20)  # same bucket, different C
        assert other_c is not first
        stats = dispatcher.cache_stats()
        assert stats["estimate_hits"] == 1 and stats["estimate_misses"] == 2
        # The memo clears with the decision cache; counters survive.
        dispatcher.clear_cache()
        assert dispatcher.cache_stats()["estimate_size"] == 0
        dispatcher.estimate(operand, 24)
        assert dispatcher.cache_stats()["estimate_misses"] == 3

    def test_warm_many_covers_all_operands_and_buckets(self, pruned, rng):
        other_dense = (rng.normal(size=(16, 64)) * (rng.random(size=(16, 64)) < 0.3)).astype(
            np.float32
        )
        operands = [
            SpmmOperand(dense=pruned),
            SpmmOperand(dense=other_dense),
        ]
        dispatcher = KernelDispatcher()
        assert dispatcher.warm_many(operands, cs=(8, 64)) == 2
        assert dispatcher.cache_size() == 4  # 2 operands x 2 buckets, distinct sigs
        hits_before = dispatcher.cache_stats()["hits"]
        for op in operands:
            for c in (8, 64):
                dispatcher.dispatch(op, c)
        assert dispatcher.cache_stats()["hits"] == hits_before + 4  # all pre-ranked

    def test_no_supported_backend_raises(self, pruned):
        dispatcher = KernelDispatcher(backends=[SpathaPlanBackend()])
        with pytest.raises(ValueError, match="no registered backend runs a dense operand"):
            dispatcher.dispatch(SpmmOperand(dense=pruned), 8)

    def test_unknown_backend_lookup_raises(self):
        with pytest.raises(KeyError):
            KernelDispatcher().backend("nonexistent")

    def test_single_backend_dispatcher_serves_alone(self, operand, rng):
        """``backends=[...]`` is how a caller pins one backend: a V:N:M
        operand on a cuBLAS-only dispatcher runs the dense GEMM, its bits."""
        dispatcher = KernelDispatcher(backends=[CublasDenseBackend()])
        b = rng.normal(size=(64, 8)).astype(np.float32)
        assert dispatcher.dispatch(operand, 8).backend == "cublas-dense"
        assert np.array_equal(dispatcher.execute(operand, b), cublas.gemm(operand.dense(), b))

    def test_custom_backend_can_win(self, operand):
        class FreeLunch(Backend):
            name = "free-lunch"

            def supports(self, operand):
                return True

            def estimate(self, operand, c, gpu):
                result = CublasDenseBackend().estimate(operand, c, gpu)
                result.cost.overhead_cycles = 0.0
                result.cost.compute_cycles = 1e-9
                result.cost.gmem_cycles = 0.0
                result.cost.smem_cycles = 0.0
                return result

            def execute(self, operand, b):
                return CublasDenseBackend().execute(operand, b)

        dispatcher = KernelDispatcher(backends=[*default_backends(), FreeLunch()])
        assert dispatcher.dispatch(operand, 24).backend == "free-lunch"


class TestDispatchedExecution:
    def test_bias_epilogue_matches_plan(self, operand, rng):
        b = rng.normal(size=(64, 12)).astype(np.float32)
        bias = rng.normal(size=32).astype(np.float32)
        dispatcher = KernelDispatcher()
        with_bias = dispatcher.execute(operand, b, bias=bias)
        without = dispatcher.execute(operand, b)
        assert np.allclose(with_bias - without, bias[:, None], atol=1e-6)
        with pytest.raises(ValueError):
            dispatcher.execute(operand, b, bias=np.ones(31, dtype=np.float32))

    def test_rhs_shape_validated(self, operand):
        dispatcher = KernelDispatcher()
        with pytest.raises(ValueError):
            dispatcher.execute(operand, np.ones(64, dtype=np.float32))
        with pytest.raises(ValueError):
            dispatcher.execute(operand, np.ones((63, 4), dtype=np.float32))

    @pytest.mark.parametrize(
        "kind, backend",
        [("vnm", "spatha-plan"), ("vnm", "cublas-dense"), ("dense", "cublas-dense")],
    )
    def test_batched_execution_is_slab_exact(self, operand, pruned, rng, kind, backend):
        """Each backend alone on each operand kind; the cuBLAS GEMM
        broadcasts one ``matmul`` over the slabs."""
        op = operand if kind == "vnm" else SpmmOperand(dense=pruned)
        dispatcher = KernelDispatcher()
        dispatcher.dispatch(op, 10).backend = backend  # steer the memoized decision
        batch = rng.normal(size=(3, 64, 10)).astype(np.float32)
        out = dispatcher.execute(op, batch)
        for i in range(3):
            assert np.array_equal(out[i], dispatcher.execute(op, batch[i]))

    def test_warm_builds_the_spatha_plan(self, pruned):
        vnm = VNMSparseMatrix.from_dense(pruned, v=8, n=2, m=8)
        op = SpmmOperand.from_vnm(vnm)
        assert ("spmm_plan", "auto") not in vnm._memo
        KernelDispatcher().warm(op)
        assert isinstance(vnm._memo[("spmm_plan", "auto")], SpmmPlan)

    def test_warm_prepopulates_dispatch_decisions(self, operand):
        dispatcher = KernelDispatcher()
        dispatcher.warm(operand, cs=(8, 64))
        assert dispatcher.cache_size() == 2  # buckets 8 and 64 pre-ranked

    def test_default_dispatcher_is_shared(self):
        assert default_dispatcher() is default_dispatcher()

    def test_nonfinite_rhs_demotes_dense_fallback(self):
        """A non-finite B row outside the sparse structure's selection must
        not leak NaN through the dense fallback (0 * inf) — the dispatcher
        applies the same demotion SpmmPlan's dense strategy does."""
        a_dense = np.zeros((8, 8), dtype=np.float32)
        a_dense[:, 0] = 1.0  # only column 0 selected
        vnm = VNMSparseMatrix.from_dense(a_dense, v=8, n=2, m=8, strict=True)
        op = SpmmOperand.from_vnm(vnm)  # dense fallback allowed
        b = np.ones((8, 4), dtype=np.float32)
        b[5] = 1e6  # overflows fp16 -> inf, in an unselected row
        dispatcher = KernelDispatcher()
        out = dispatcher.execute(op, b)
        assert np.isfinite(out).all()
        from repro.kernels.spatha import spmm as spatha_spmm

        assert np.array_equal(out, spatha_spmm(vnm, b))

    @pytest.mark.parametrize("c", [1, 8, 64])
    @pytest.mark.parametrize("decided", ["cublas-dense", "spatha-plan"])
    def test_nonfinite_demotion_is_per_slab(self, rng, decided, c):
        """Regression: a non-finite slab in a batched RHS must demote only
        ITSELF to the sparse schedule — demoting the whole batch would make
        a request's schedule (and bits) depend on its batchmates, breaking
        the serving guarantee that batched == sequential execution.  Holds
        whichever backend the decision names: the dense fallback screens in
        the dispatcher, the plan's dense strategy screens in the plan."""
        dense = rng.normal(size=(256, 256)).astype(np.float32)
        op = SpmmOperand.from_vnm(VNMSparseMatrix.from_dense(dense, v=16, n=2, m=8, strict=False))
        dispatcher = KernelDispatcher()
        dispatcher.dispatch(op, c).backend = decided  # steer the memoized decision

        batch = rng.normal(size=(4, 256, c)).astype(np.float32)
        batch[2, 0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            out = dispatcher.execute(op, batch)
            # Every slab matches its own sequential single-slab execution.
            for i in range(4):
                assert np.array_equal(
                    out[i], dispatcher.execute(op, batch[i]), equal_nan=True
                ), i
        # And the finite slabs kept the decided backend's own schedule.
        for i in (0, 1, 3):
            assert np.isfinite(out[i]).all()
            assert np.array_equal(out[i], dispatcher.backend(decided).execute(op, batch[i]))

    @pytest.mark.parametrize("rhs", ["transposed", "strided", "swapaxes_stack", "inf_slab_stack"])
    def test_plan_dense_schedule_and_dense_fallback_are_bit_identical(self, rng, rhs):
        """Both backends round the RHS through the one ``quantize_fp16`` and
        multiply by the one ``dense16``, so a failover between them changes
        no bit — on non-contiguous views too, and with a non-finite slab
        (each demotes only that slab, to the same gather schedule)."""
        dense = rng.normal(size=(128, 256)).astype(np.float32)
        vnm = VNMSparseMatrix.from_dense(dense, v=16, n=2, m=8, strict=False)
        op = SpmmOperand.from_vnm(vnm)
        assert SpmmPlan.for_matrix(vnm).resolve_strategy(16) == "dense"
        if rhs == "transposed":
            b = rng.normal(size=(16, 256)).astype(np.float32).T
        elif rhs == "strided":
            b = rng.normal(size=(512, 16)).astype(np.float32)[::2]
        else:
            b = rng.normal(size=(4, 16, 256)).astype(np.float32).swapaxes(1, 2)
        if rhs == "inf_slab_stack":
            b[2, 5, 3] = np.inf
        outs = {}
        for name in ("spatha-plan", "cublas-dense"):
            dispatcher = KernelDispatcher()
            dispatcher.dispatch(op, 16).backend = name  # steer the memoized decision
            with np.errstate(invalid="ignore"):
                outs[name] = dispatcher.execute(op, b)
        assert np.array_equal(
            outs["spatha-plan"].view(np.uint32), outs["cublas-dense"].view(np.uint32)
        )
        if rhs != "inf_slab_stack":
            slabs = b if b.ndim == 3 else b[None]
            direct = np.stack([cublas.gemm(vnm.to_dense(), slab) for slab in slabs])
            assert np.array_equal(outs["cublas-dense"].reshape(direct.shape), direct)

    def test_malformed_bias_raises_before_any_backend_runs(self, operand, rng):
        """Regression: the bias was checked after the kernel had run, so a
        malformed bias ran a backend, advanced an armed injector's call
        counter and recorded a breaker success before it raised."""
        from repro.serving.faults import FaultInjector, FaultPlan

        dispatcher = KernelDispatcher()
        injector = FaultInjector(FaultPlan()).arm(dispatcher)
        b = rng.normal(size=(64, 8)).astype(np.float32)
        health = dispatcher.health_stats()
        for bias in (np.zeros(operand.r + 1), np.zeros((operand.r, 2))):
            with pytest.raises(ValueError, match="bias must have shape"):
                dispatcher.execute(operand, b, bias=bias)
        assert injector.stats()["calls"] == {}
        assert dispatcher.health_stats() == health
        assert dispatcher.cache_stats()["misses"] == 0  # not even ranked
        dispatcher.execute(operand, b, bias=np.zeros((operand.r, 1)))
        assert sum(injector.stats()["calls"].values()) == 1

    @pytest.mark.parametrize("c", [1, 16])
    def test_dense_fallback_demotes_a_nonfinite_slab_to_spatha(self, rng, c):
        """When cuBLAS serves a V:N:M operand, a non-finite slab runs on
        the plan's gather schedule — each slab is its own call — and the
        slab's bits are Spatha's own.  The walk made one attempt, on
        ``cublas-dense``, so only its fault counter moved."""
        from repro.serving.faults import FaultInjector, FaultPlan

        dense = rng.normal(size=(64, 128)).astype(np.float32)
        vnm = VNMSparseMatrix.from_dense(dense, v=16, n=2, m=8, strict=False)
        op = SpmmOperand.from_vnm(vnm)
        dispatcher = KernelDispatcher()
        dispatcher.dispatch(op, c).backend = "cublas-dense"
        injector = FaultInjector(FaultPlan()).arm(dispatcher)
        batch = rng.normal(size=(3, 128, c)).astype(np.float32)
        batch[1, 7, 0] = np.inf
        with np.errstate(invalid="ignore"):
            out = dispatcher.execute(op, batch)
            assert injector.stats()["calls"] == {"cublas-dense": 1}
            from repro.kernels.spatha import spmm as spatha_spmm

            assert np.array_equal(out[1], spatha_spmm(vnm, batch[1]), equal_nan=True)
        assert np.isfinite(out[[0, 2]]).all()

    @pytest.mark.parametrize("overflow", [False, True], ids=["finite", "fp16-overflow"])
    @pytest.mark.parametrize("batched", [False, True], ids=["2d", "3d"])
    @pytest.mark.parametrize("backend", ["spatha-plan", "cublas-dense"])
    def test_dispatched_is_the_named_backend_called_directly(self, rng, backend, batched, overflow):
        """Regression: a ``cublas-dense`` attempt on a V:N:M operand handed
        its non-finite slabs to ``spatha-plan`` inside the dispatcher, so
        ``backend("cublas-dense").execute`` leaked ``0 * inf`` as NaN where
        the dispatched call was finite.  The attempt now runs exactly the
        named backend, whose own screen keeps the unselected row out."""
        vnm = VNMSparseMatrix.from_dense(
            rng.normal(size=(64, 64)).astype(np.float32), v=16, n=2, m=8, strict=False
        )
        op = SpmmOperand.from_vnm(vnm)
        unselected = sorted(set(range(64)) - set(vnm.selected_column_indices().ravel()))
        assert unselected  # 4 row blocks each keep 4 of every 8 columns
        b = rng.normal(size=(3, 64, 5) if batched else (64, 5)).astype(np.float32)
        if overflow:
            (b[1] if batched else b)[unselected[0], 2] = 1e6  # rounds to fp16 inf
        dispatcher = KernelDispatcher()
        dispatcher.dispatch(op, 5).backend = backend
        with np.errstate(invalid="ignore", over="ignore"):
            out = dispatcher.execute(op, b)
            direct = dispatcher.backend(backend).execute(op, b)
        assert np.array_equal(out, direct, equal_nan=True)
        assert np.isfinite(out).all()

    def test_dense_only_operand_keeps_dense_on_nonfinite(self):
        """With no sparse backend available the dense fallback still runs
        (NaN is then the honest dense-math answer, same as cublas.gemm)."""
        dense = np.zeros((4, 8), dtype=np.float32)
        dense[0, 0] = 1.0
        op = SpmmOperand(dense=dense)
        b = np.full((8, 2), np.inf, dtype=np.float32)
        out = KernelDispatcher().execute(op, b)
        from repro.kernels import cublas

        assert np.array_equal(out, cublas.gemm(dense, b), equal_nan=True)


class ScriptedFailureBackend(Backend):
    """A cheapest-ranked backend whose execute fails while ``failing`` is set.

    Numerics delegate to cuBLAS, so when it succeeds its output is the
    dense backend's exact bits; the near-zero cost model makes it the
    dispatch argmin, which is what lets the tests steer the chosen backend
    into failure without touching the real libraries.
    """

    name = "scripted"

    def __init__(self, failing: bool = True):
        self.failing = failing
        self.execute_calls = 0
        self._inner = CublasDenseBackend()

    def supports(self, operand):
        return True

    def estimate(self, operand, c, gpu):
        result = self._inner.estimate(operand, c, gpu)
        result.cost.overhead_cycles = 0.0
        result.cost.compute_cycles = 1e-9
        result.cost.gmem_cycles = 0.0
        result.cost.smem_cycles = 0.0
        return result

    def execute(self, operand, b):
        self.execute_calls += 1
        if self.failing:
            from repro.kernels.dispatch import BackendExecutionError

            raise BackendExecutionError("scripted failure", backend=self.name)
        return self._inner.execute(operand, b)


@pytest.mark.faults
class TestFailoverAndQuarantine:
    def _dispatcher(self, failing=True, failure_threshold=2, probe_interval=3):
        scripted = ScriptedFailureBackend(failing=failing)
        dispatcher = KernelDispatcher(
            backends=[*default_backends(), scripted],
            failure_threshold=failure_threshold,
            probe_interval=probe_interval,
        )
        return dispatcher, scripted

    def test_failover_output_is_bit_exact_fallback(self, operand, rng):
        """When the chosen backend fails, the next-ranked one serves the
        call and the result is bit-for-bit that backend's direct output."""
        dispatcher, scripted = self._dispatcher()
        b = rng.normal(size=(64, 12)).astype(np.float32)
        decision = dispatcher.dispatch(operand, 12)
        assert decision.backend == "scripted"
        fallback = next(n for n, _ in decision.ranking if n != "scripted")
        out = dispatcher.execute(operand, b)
        direct = dispatcher.backend(fallback).execute(operand, b)
        assert np.array_equal(out, direct)
        assert decision.failovers == {f"scripted->{fallback}": 1}
        assert dispatcher.health_stats()["failovers"] == 1

    def test_quarantine_after_threshold_and_probe_readmission(self, operand, rng):
        """K consecutive failures quarantine the backend; after the probe
        interval it gets one probe attempt, and a healed backend serves
        again (bit-exact against its own direct execution)."""
        dispatcher, scripted = self._dispatcher(failure_threshold=2, probe_interval=3)
        b = rng.normal(size=(64, 12)).astype(np.float32)
        dispatcher.execute(operand, b)  # failure 1 (failover)
        assert not dispatcher.breaker.is_quarantined("scripted")
        dispatcher.execute(operand, b)  # failure 2 -> quarantined
        assert dispatcher.breaker.is_quarantined("scripted")
        assert dispatcher.breaker.quarantined() == ("scripted",)
        # While quarantined, the backend is not attempted at all while
        # its countdown runs (probe_interval executes pass it over).
        calls_before = scripted.execute_calls
        for _ in range(3):
            dispatcher.execute(operand, b)
        assert scripted.execute_calls == calls_before
        # Heal the backend; the countdown has expired, so the next
        # execute admits it as a probe.
        scripted.failing = False
        out = dispatcher.execute(operand, b)
        assert not dispatcher.breaker.is_quarantined("scripted")
        assert dispatcher.health_stats()["readmissions"] == 1
        assert np.array_equal(out, ScriptedFailureBackend(failing=False).execute(operand, b))

    def test_failed_probe_requarantines(self, operand, rng):
        dispatcher, scripted = self._dispatcher(failure_threshold=1, probe_interval=2)
        b = rng.normal(size=(64, 12)).astype(np.float32)
        dispatcher.execute(operand, b)  # quarantined immediately (K=1)
        assert dispatcher.breaker.is_quarantined("scripted")
        dispatcher.execute(operand, b)  # countdown 2 -> 1
        dispatcher.execute(operand, b)  # countdown 1 -> 0
        calls_before = scripted.execute_calls
        assert calls_before == 1  # only the original failure
        dispatcher.execute(operand, b)  # probe attempt -> fails -> requarantined
        assert scripted.execute_calls == calls_before + 1
        assert dispatcher.breaker.is_quarantined("scripted")
        assert dispatcher.health_stats()["quarantines"] == 1  # one event, not two

    def test_quarantine_leaves_no_stale_decisions(self, operand, rng):
        """The decision cache must stay quarantine-independent: memoized
        decisions keep the cost argmin while the backend sits out (failover
        happens at execute time), so after re-admission the SAME cached
        decision routes traffic to it again — no stale entries to flush."""
        dispatcher, scripted = self._dispatcher(failure_threshold=1, probe_interval=1)
        b = rng.normal(size=(64, 12)).astype(np.float32)
        decision = dispatcher.dispatch(operand, 12)
        cache_size = dispatcher.cache_size()
        dispatcher.execute(operand, b)  # fail -> quarantine
        assert dispatcher.breaker.is_quarantined("scripted")
        # The memo still names the cost argmin and no new entries appeared.
        assert dispatcher.dispatch(operand, 12) is decision
        assert decision.backend == "scripted"
        assert dispatcher.cache_size() == cache_size
        dispatcher.execute(operand, b)  # passed over once (countdown 1 -> 0)
        scripted.failing = False
        dispatcher.execute(operand, b)  # probe succeeds -> readmitted
        assert not dispatcher.breaker.is_quarantined("scripted")
        # Same cached decision, and execution routes to the backend again.
        assert dispatcher.dispatch(operand, 12) is decision
        calls_before = scripted.execute_calls
        out = dispatcher.execute(operand, b)
        assert scripted.execute_calls == calls_before + 1
        assert np.array_equal(out, ScriptedFailureBackend(failing=False).execute(operand, b))

    def test_all_candidates_failing_raises(self, operand, rng):
        from repro.kernels.dispatch import BackendExecutionError
        from repro.serving.faults import FaultInjector, FaultPlan, FaultSpec

        dispatcher = KernelDispatcher()
        names = [backend.name for backend in dispatcher.backends]
        plan = FaultPlan([FaultSpec(backend=n, kind="persistent", at_call=0) for n in names])
        FaultInjector(plan).arm(dispatcher)
        with pytest.raises(BackendExecutionError) as excinfo:
            dispatcher.execute(operand, rng.normal(size=(64, 8)).astype(np.float32))
        assert "all candidate backends failed" in str(excinfo.value)

    def test_breaker_parameters_validated(self):
        with pytest.raises(ValueError):
            KernelDispatcher(failure_threshold=0)
        with pytest.raises(ValueError):
            KernelDispatcher(probe_interval=0)


@pytest.mark.faults
class TestCircuitBreaker:
    def test_quarantine_probe_and_readmission_lifecycle(self):
        """The breaker on its own, no kernels: threshold -> quarantine,
        passed-over countdown -> probe at the ranked position, failed probe
        -> a full interval again, success -> readmitted."""
        from repro.kernels.dispatch import CircuitBreaker, DispatchDecision

        decision = DispatchDecision(
            signature=(), backend="fast", costs={"fast": 1.0, "mid": 2.0, "slow": 3.0}
        )
        breaker = CircuitBreaker(failure_threshold=2, probe_interval=2)
        assert breaker.candidate_order(decision) == ["fast", "mid", "slow"]
        breaker.record_failure("fast")
        assert not breaker.is_quarantined("fast")  # streak 1 < threshold
        breaker.record_failure("fast")
        assert breaker.quarantined() == ("fast",)
        # Two executes pass it over (kept at the tail as a last resort)...
        assert breaker.candidate_order(decision) == ["mid", "slow", "fast"]
        assert breaker.candidate_order(decision) == ["mid", "slow", "fast"]
        # ...then it is probed at its ranked position; a failed probe costs a
        # full interval again without counting as a second quarantine.
        assert breaker.candidate_order(decision) == ["fast", "mid", "slow"]
        breaker.record_failure("fast")
        assert breaker.candidate_order(decision) == ["mid", "slow", "fast"]
        assert breaker.candidate_order(decision) == ["mid", "slow", "fast"]
        assert breaker.candidate_order(decision)[0] == "fast"
        breaker.record_success("fast")
        assert not breaker.is_quarantined("fast")
        breaker.record_success("mid", after_failure=True)
        assert breaker.stats() == {
            "failures": 3,
            "failovers": 1,
            "quarantines": 1,
            "readmissions": 1,
            "quarantined": [],
        }
        # A success resets the streak: one more failure does not quarantine.
        breaker.record_failure("fast")
        assert not breaker.is_quarantined("fast")

    def test_walk_fails_over_and_raises_when_every_candidate_fails(self):
        """The one candidate walk: an attempt that raises is a failure of the
        backend it names, the first that returns serves, and a walk with no
        survivor raises naming its owner and every failure."""
        from repro.kernels.dispatch import (
            BackendExecutionError,
            CircuitBreaker,
            DispatchDecision,
        )

        decision = DispatchDecision(
            signature=(), backend="fast", costs={"fast": 1.0, "mid": 2.0, "slow": 3.0}
        )
        breaker = CircuitBreaker(failure_threshold=2)
        tried = []

        def attempt(name):
            tried.append(name)
            if name != "slow":
                raise BackendExecutionError(f"{name} down", backend=name)
            return name.upper()

        assert breaker.walk(decision, attempt, "owner") == ("slow", "fast", "SLOW")
        assert tried == ["fast", "mid", "slow"]
        assert (breaker.failures, breaker.failovers) == (2, 1)

        def always_fails(name):
            raise BackendExecutionError("down", backend=name)

        with pytest.raises(BackendExecutionError, match="owner: all candidate backends failed"):
            breaker.walk(decision, always_fails, "owner")
        # Both streaks reached the threshold on the second walk.
        assert breaker.quarantined() == ("fast", "mid")

    def test_healthy_walk_reuses_the_decisions_ranked_order(self):
        """Nothing quarantined: no re-sort and no new list per execute, and
        re-pointing ``backend`` (the tests' steering) re-ranks once."""
        from repro.kernels.dispatch import CircuitBreaker, DispatchDecision

        decision = DispatchDecision(
            signature=(), backend="fast", costs={"slow": 3.0, "fast": 1.0, "mid": 2.0}
        )
        breaker = CircuitBreaker()
        order = breaker.candidate_order(decision)
        assert order == ["fast", "mid", "slow"]
        assert breaker.candidate_order(decision) is order is decision.order
        decision.backend = "slow"
        assert breaker.candidate_order(decision) == ["slow", "fast", "mid"]


class TestNarrowedTunerException:
    def test_plain_valueerror_from_tuner_propagates(self, operand, monkeypatch):
        """The dispatcher's proxy re-costing must catch ONLY the typed
        UnsupportedTilingError; a genuine model bug surfacing as a plain
        ValueError has to propagate instead of being silently swallowed."""
        from repro.kernels.dispatch import SpathaPlanBackend
        from repro.kernels.spatha.tuner import SpathaTuner

        def boom(self, problem):
            raise ValueError("boom: genuine model bug")

        monkeypatch.setattr(SpathaTuner, "best_result", boom)
        backend = SpathaPlanBackend()
        with pytest.raises(ValueError, match="genuine model bug"):
            backend.estimate(operand, 16, rtx3090())

    def test_unlaunchable_tiling_still_proxied(self, rng):
        """The expected failure (V=8 has no template instantiation) is
        typed as UnsupportedTilingError and still handled by costing the
        padded proxy launch — dispatch keeps working for non-hardware V."""
        from repro.kernels.spatha import UnsupportedTilingError

        assert issubclass(UnsupportedTilingError, ValueError)
        dense = rng.normal(size=(32, 64))
        pruned = apply_mask(dense, vnm_mask(dense, v=8, n=2, m=8)).astype(np.float32)
        op = SpmmOperand.from_vnm(VNMSparseMatrix.from_dense(pruned, v=8, n=2, m=8))
        decision = KernelDispatcher().dispatch(op, 16)
        assert "spatha-plan" in decision.costs
        assert decision.costs["spatha-plan"] > 0


class TestBoundedMemos:
    """Every kernel-layer memo is a BoundedCache: a stream of ever-new C
    values cannot grow the dispatcher or the tuner without limit, and an
    evicted entry recomputes to the identical modelled result."""

    def test_bounded_cache_evicts_and_counts(self, monkeypatch):
        monkeypatch.setattr(kernels_common, "MEMO_BOUND", 3)
        cache = BoundedCache()
        for key in "abc":
            cache.put(key, key.upper())
        assert cache.get("a") == "A"
        cache.put("d", "D")
        assert len(cache) == 3
        assert cache.get("a") is None  # the oldest entry went, hit or not
        assert [cache.get(k) for k in "bcd"] == ["B", "C", "D"]
        assert (cache.hits, cache.misses) == (4, 1)
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (4, 1)  # cumulative traffic
        assert cache.get("a") is None
        assert (cache.hits, cache.misses) == (4, 2)

    def test_dispatcher_and_tuner_stay_bounded(self, monkeypatch, rng):
        bound = 4
        monkeypatch.setattr(kernels_common, "MEMO_BOUND", bound)
        dense = rng.normal(size=(32, 64)).astype(np.float32)
        op = SpmmOperand.from_vnm(VNMSparseMatrix.from_dense(dense, v=16, n=2, m=8, strict=False))
        dispatcher = KernelDispatcher()
        tuner = dispatcher.backend("spatha-plan")._tuner_for(dispatcher.gpu)
        columns = range(1, 4 * bound + 1)  # 16 distinct C, 5 shape buckets

        def geomean_speedup():
            ratios = [
                dispatcher.estimate(op, c, backend="cublas-dense").time_us
                / dispatcher.estimate(op, c).time_us
                for c in columns
            ]
            return float(np.exp(np.mean(np.log(ratios))))

        first = {c: dispatcher.estimate(op, c, backend="spatha-plan").time_us for c in columns}
        before = geomean_speedup()
        stats = dispatcher.cache_stats()
        assert stats["size"] <= bound and stats["estimate_size"] <= bound
        assert tuner.cache_size() <= bound
        assert stats["estimate_misses"] > bound  # the stream really overflowed it
        # C=1 was evicted long ago; it recomputes to the identical result.
        misses = stats["estimate_misses"]
        assert dispatcher.estimate(op, 1, backend="spatha-plan").time_us == first[1]
        assert dispatcher.cache_stats()["estimate_misses"] == misses + 1
        assert tuner.tune(op.problem(1)).best_time_us == first[1]
        assert geomean_speedup() == before
        assert dispatcher.cache_stats()["estimate_size"] <= bound
        assert tuner.cache_size() <= bound

    def test_bank_conflict_memo_is_bounded_and_exact(self, monkeypatch):
        """The stage-3 bank simulation depends only on the tile config, so
        it is memoized per (layout, store width, BSc) instead of re-run per
        candidate per C; every tuned time is the same bits before and after
        eviction, and the same as the unmemoized simulation."""
        from repro.hardware.banks import conflict_degree_for_layout
        from repro.kernels.spatha import stages
        from repro.kernels.spatha.tuner import SpathaTuner

        monkeypatch.setattr(kernels_common, "MEMO_BOUND", 2)
        monkeypatch.setattr(stages, "_CONFLICTS", BoundedCache())
        problems = [GemmProblem.from_nm(1024, 1024, c, n=2, m=8, v=64) for c in (1, 64, 512)]

        def sweep():
            return [SpathaTuner().tune(p).results for p in problems]

        first = sweep()
        memo = stages._CONFLICTS
        assert len(memo) <= 2 and memo.misses > 2  # three tile widths overflowed it
        assert sweep() == first
        monkeypatch.setattr(
            stages,
            "_conflict_degree",
            lambda layout, bits, bsc: conflict_degree_for_layout(layout, access_bits=bits, bsc=bsc),
        )
        assert sweep() == first

"""Fault-tolerant serving: injection determinism, failover bit-exactness,
request outcomes, admission shedding, and the chaos simulator.

Every test here is deterministic by construction — fault plans are pure
data keyed by (backend, call index), so a scenario replays identically.
The CI chaos job re-runs this module across several ``FAULT_SEED`` values;
seed-parametric tests read the seed from the environment, while the
pinned-outcome tests use explicit :class:`FaultSpec` plans so their
expected counts never move.

The load-bearing property: fault tolerance never buys availability with
numerics.  A request reported ``ok`` — whether it failed over, shared a
micro-batch with a poisoned payload, or rode through a chaos scenario —
is bit-for-bit its sequential fault-free execution.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.integration import VNMSparsifier, sparsify_encoder
from repro.kernels.dispatch import BackendExecutionError, KernelDispatcher
from repro.models import TransformerEncoder, tiny_config
from repro.serving import (
    OUTCOME_FAILED,
    OUTCOME_SHED,
    OUTCOME_TIMED_OUT,
    DecodeRequest,
    DecoderServingEngine,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ModelServingEngine,
    Request,
    SchedulingConfig,
    ServingConfig,
    SimReport,
    SimulatedRequest,
    decode_reference,
    outcome_counts,
    poisson_arrivals,
    simulate,
)

pytestmark = pytest.mark.faults

#: The CI chaos job replays this module with several seeds; locally it's 0.
FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))
#: The chaos simulator's config: the continuous step loop over the padded ladder.
LADDER = ServingConfig(padding="ladder")

HIDDEN = 64


def make_encoder(sparse=True, seed=0):
    """A tiny one-layer encoder, every projection 16:2:8 (``sparse``) or
    every projection dense."""
    cfg = tiny_config(hidden_size=HIDDEN, num_layers=1, num_heads=4, intermediate_size=128)
    encoder = TransformerEncoder.init(cfg, seed=seed)
    if sparse:
        sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
    return encoder


#: Dispatched calls per forward of one length group: the six projections.
PROJECTIONS = 6


def make_engine(encoder=None, dispatcher=None, **knobs):
    """A ladder-padded encoder engine (a fresh sparse encoder by default)."""
    return ModelServingEngine(
        encoder if encoder is not None else make_encoder(),
        dispatcher=dispatcher,
        config=ServingConfig(padding="ladder", **knobs),
    )


@pytest.fixture
def encoder():
    return make_encoder()


@pytest.fixture
def operand(encoder):
    """One V:N:M projection, for the dispatcher-level failover tests."""
    return dict(encoder.named_linear_layers())["encoder.layer.0.attention.query"].operand


def make_requests(rng, token_counts, prefix="req", **kwargs):
    return [
        Request(
            f"{prefix}-{i:04d}",
            rng.normal(size=(t, HIDDEN)).astype(np.float32),
            **kwargs,
        )
        for i, t in enumerate(token_counts)
    ]


class TestFaultPlan:
    def test_seeded_plan_replays_identically(self):
        backends = ("cublas-dense", "spatha-plan")
        a = FaultPlan.seeded(backends, seed=FAULT_SEED, failure_rate=0.2, latency_rate=0.1)
        b = FaultPlan.seeded(backends, seed=FAULT_SEED, failure_rate=0.2, latency_rate=0.1)
        assert a.specs == b.specs
        for name in backends:
            for idx in range(64):
                assert a.decide(name, idx) == b.decide(name, idx)

    def test_per_backend_streams_are_independent(self):
        """The faults drawn for one backend don't depend on which other
        backends are listed — each gets its own crc32-subseeded stream."""
        solo = FaultPlan.seeded(("cublas-dense",), seed=FAULT_SEED, failure_rate=0.3)
        both = FaultPlan.seeded(
            ("cublas-dense", "spatha-plan"), seed=FAULT_SEED, failure_rate=0.3
        )
        mine = [s for s in both.specs if s.backend == "cublas-dense"]
        assert tuple(mine) == solo.specs

    def test_transient_window_and_persistent_tail(self):
        transient = FaultSpec(backend="x", kind="transient", at_call=2, count=3)
        persistent = FaultSpec(backend="x", kind="persistent", at_call=2)
        assert [transient.applies(i) for i in range(7)] == [
            False, False, True, True, True, False, False,
        ]
        assert [persistent.applies(i) for i in range(5)] == [
            False, False, True, True, True,
        ]

    def test_latency_spikes_accumulate_without_failing(self):
        plan = FaultPlan(
            [
                FaultSpec(backend="x", kind="latency", at_call=1, latency_us=100.0),
                FaultSpec(backend="x", kind="latency", at_call=1, latency_us=50.0),
            ]
        )
        decision = plan.decide("x", 1)
        assert not decision.fail
        assert decision.latency_us == 150.0
        assert plan.decide("x", 0) == plan.decide("y", 1)  # untouched calls

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(backend="x", kind="meteor-strike")
        with pytest.raises(ValueError):
            FaultSpec(backend="x", kind="latency", latency_us=0.0)
        with pytest.raises(ValueError):
            FaultPlan.seeded(("x",), seed=0, failure_rate=0.7, latency_rate=0.7)


class TestInjectorFailover:
    def test_ok_output_under_faults_is_bit_exact_fault_free(self, rng):
        """Transient faults on the chosen backend change who serves, never
        the bits: the faulted engine's outputs equal the fault-free ones."""
        requests = make_requests(rng, [5, 12, 30, 7])
        baseline = make_engine().serve(requests)

        dispatcher = KernelDispatcher()
        engine = make_engine(dispatcher=dispatcher)
        chosen = dispatcher.dispatch(engine.encoder.layers[0].attention.query.operand, 8).backend
        plan = FaultPlan([FaultSpec(backend=chosen, kind="transient", at_call=0, count=2)])
        FaultInjector(plan).arm(dispatcher)

        faulted = engine.serve(requests)
        assert set(faulted) == set(baseline)
        for rid in baseline:
            assert np.array_equal(faulted[rid], baseline[rid])
        assert all(o.ok for o in engine.outcomes.values())
        assert dispatcher.health_stats()["failovers"] >= 1
        assert engine.stats()["dispatch_health"]["failures"] >= 1

    def test_failover_matches_direct_fallback_backend(self, operand, rng):
        """The failover result is bit-for-bit the next-ranked backend
        invoked directly (arming never replaces a backend)."""
        dispatcher = KernelDispatcher()
        decision = dispatcher.dispatch(operand, 8)
        fallback = next(n for n, _ in decision.ranking if n != decision.backend)
        plan = FaultPlan([FaultSpec(backend=decision.backend, kind="persistent")])
        FaultInjector(plan).arm(dispatcher)

        b = rng.normal(size=(HIDDEN, 8)).astype(np.float32)
        out = dispatcher.execute(operand, b)
        direct = dispatcher.backend(fallback).execute(operand, b)
        assert np.array_equal(out, direct)
        assert decision.failovers == {f"{decision.backend}->{fallback}": 1}

    def test_persistent_failure_quarantines_then_probe_readmits(self, operand, rng):
        """The acceptance scenario: a persistently failing backend is
        quarantined after K consecutive failures, traffic keeps flowing
        bit-exactly via the fallback, and once the plan's fault window ends
        a probe re-admits the backend."""
        dispatcher = KernelDispatcher(failure_threshold=2, probe_interval=2)
        decision = dispatcher.dispatch(operand, 8)
        victim = decision.backend
        # "Persistent" for exactly 2 calls: enough to trip the breaker,
        # healed by the time the probe arrives.
        plan = FaultPlan([FaultSpec(backend=victim, kind="transient", at_call=0, count=2)])
        injector = FaultInjector(plan).arm(dispatcher)

        b = rng.normal(size=(HIDDEN, 8)).astype(np.float32)
        dispatcher.execute(operand, b)  # fail 1 -> failover
        dispatcher.execute(operand, b)  # fail 2 -> quarantined
        assert dispatcher.breaker.is_quarantined(victim)
        assert dispatcher.health_stats()["quarantines"] == 1
        calls_when_quarantined = injector.calls(victim)
        for _ in range(2):
            dispatcher.execute(operand, b)  # countdown ticks, victim untouched
        assert injector.calls(victim) == calls_when_quarantined
        out = dispatcher.execute(operand, b)  # probe -> healed -> readmitted
        assert not dispatcher.breaker.is_quarantined(victim)
        assert dispatcher.health_stats()["readmissions"] == 1
        assert np.array_equal(out, dispatcher.backend(victim).execute(operand, b))

    def test_arm_disarm_round_trip(self, operand, rng):
        dispatcher = KernelDispatcher()
        originals = list(dispatcher.backends)
        injector = FaultInjector(FaultPlan([FaultSpec(backend="cublas-dense", kind="persistent")]))
        assert dispatcher.injector is None
        injector.arm(dispatcher)
        assert dispatcher.injector is injector
        injector.disarm(dispatcher)
        assert dispatcher.injector is None
        assert dispatcher.backends == originals

    def test_a_second_injector_cannot_arm_a_dispatcher(self, operand, rng):
        """Regression: arming wrapped each backend unless it was wrapped
        already, so a second injector armed on the same dispatcher kept the
        first one's proxies and never fired.  The dispatcher has one
        injector slot: arming a held slot raises, and a disarm by an
        injector that does not hold it leaves the dispatcher armed."""
        dispatcher = KernelDispatcher()
        first = FaultInjector(FaultPlan()).arm(dispatcher)
        first.arm(dispatcher)  # re-arming by the holder is a no-op
        second = FaultInjector(
            FaultPlan([FaultSpec(name, "persistent") for name in ("cublas-dense", "spatha-plan")])
        )
        with pytest.raises(ValueError, match="another fault injector"):
            second.arm(dispatcher)
        with pytest.raises(ValueError, match="another fault injector"):
            second.disarm(dispatcher)
        assert dispatcher.injector is first
        dispatcher.execute(operand, rng.normal(size=(HIDDEN, 8)).astype(np.float32))
        assert sum(first.stats()["calls"].values()) == 1
        assert second.stats()["calls"] == {}
        first.disarm(dispatcher)
        second.arm(dispatcher)
        with pytest.raises(BackendExecutionError, match="all candidate backends failed"):
            dispatcher.execute(operand, rng.normal(size=(HIDDEN, 8)).astype(np.float32))
        assert second.stats()["injected_failures"] == 2


class TestTwoBackendChain:
    """The failover chain has two links: a V:N:M projection walks from its
    ranked-first backend to the other one, a dense projection has nowhere
    to go.  The failing call moves with ``FAULT_SEED``, so the CI chaos
    matrix places it on a different request per seed."""

    N = 6

    @staticmethod
    def _serve_one_by_one(engine, requests):
        results = {}
        for req in requests:
            results.update(engine.serve([req]))
        return results

    @pytest.mark.parametrize("offset", range(3))
    def test_vnm_projection_fails_when_both_candidates_fail_on_one_call(self, rng, offset):
        requests = make_requests(rng, [8] * self.N, prefix="chain")
        expected = self._serve_one_by_one(make_engine(), requests)
        dispatcher = KernelDispatcher()
        engine = make_engine(dispatcher=dispatcher)
        orders = [
            dispatcher.dispatch(lin.operand, 8).order
            for _, lin in engine.encoder.named_linear_layers()
        ]
        # The victim's first call (its query projection) walks from
        # ``first`` to ``second``; each backend's call index there counts
        # the projections it ranks first in every earlier forward.
        first, second = orders[0]
        assert {first, second} == {"spatha-plan", "cublas-dense"}
        per_forward = {name: sum(order[0] == name for order in orders) for name in orders[0]}
        victim = (FAULT_SEED + offset) % self.N
        calls = {name: victim * per_forward[name] for name in orders[0]}
        plan = FaultPlan(
            [FaultSpec(name, "transient", at_call=call) for name, call in calls.items()]
        )
        injector = FaultInjector(plan).arm(dispatcher)
        results = self._serve_one_by_one(engine, requests)
        for i, req in enumerate(requests):
            outcome = engine.outcomes[req.request_id]
            if i != victim:
                assert outcome.ok
                assert np.array_equal(results[req.request_id], expected[req.request_id])
                continue
            assert outcome.status == OUTCOME_FAILED
            assert "all candidate backends failed" in outcome.detail
            for name, call in calls.items():
                assert f"{name}: injected fault on {name} (call {call})" in outcome.detail
        for name in (first, second):
            assert injector.calls(name) == (self.N - 1) * per_forward[name] + 1
        health = dispatcher.health_stats()
        assert (health["failures"], health["failovers"]) == (2, 0)

    @pytest.mark.parametrize("offset", range(3))
    def test_dense_projection_fails_on_its_first_failure(self, rng, offset):
        requests = make_requests(rng, [8] * self.N, prefix="dense")
        expected = self._serve_one_by_one(make_engine(make_encoder(sparse=False)), requests)
        dispatcher = KernelDispatcher()
        engine = make_engine(make_encoder(sparse=False), dispatcher=dispatcher)
        for _, lin in engine.encoder.named_linear_layers():
            assert dispatcher.dispatch(lin.operand, 8).order == ["cublas-dense"]
        victim = (FAULT_SEED + offset) % self.N
        call = victim * PROJECTIONS + 2
        plan = FaultPlan(
            [FaultSpec("cublas-dense", "transient", at_call=call), FaultSpec("spatha-plan", "persistent")]
        )
        injector = FaultInjector(plan).arm(dispatcher)
        results = self._serve_one_by_one(engine, requests)
        for i, req in enumerate(requests):
            outcome = engine.outcomes[req.request_id]
            if i != victim:
                assert outcome.ok
                assert np.array_equal(results[req.request_id], expected[req.request_id])
                continue
            assert outcome.status == OUTCOME_FAILED
            assert outcome.detail.endswith(
                f"all candidate backends failed: cublas-dense: injected fault on cublas-dense (call {call})"
            )
        assert injector.calls("spatha-plan") == 0
        assert injector.calls("cublas-dense") == (self.N - 1) * PROJECTIONS + 3
        health = dispatcher.health_stats()
        assert (health["failures"], health["failovers"]) == (1, 0)


class TestEngineOutcomes:
    def test_expired_deadline_reports_timed_out(self, rng):
        engine = make_engine()
        live, doomed = make_requests(rng, [5, 5], prefix="dl")
        doomed = Request(
            doomed.request_id, doomed.activations, arrival_us=0.0, deadline_us=10.0
        )
        engine.submit(live)
        engine.submit(doomed)
        results = engine.step(50.0)  # the step clock is already past the deadline
        assert set(results) == {live.request_id}
        outcome = engine.outcomes[doomed.request_id]
        assert outcome.status == OUTCOME_TIMED_OUT
        assert outcome.completed_us == 10.0  # the deadline, not the step clock
        assert engine.outcomes[live.request_id].ok

    def test_overload_sheds_newest_and_records_outcomes(self, rng):
        engine = make_engine(max_batch_size=4, max_queue_depth=2)
        requests = make_requests(rng, [5, 5, 5], prefix="ovl")
        for req in requests:
            engine.submit(req)
        results = engine.serve([])
        kept, shed = requests[:2], requests[2]
        assert set(results) == {r.request_id for r in kept}
        assert engine.outcomes[shed.request_id].status == OUTCOME_SHED
        counts = outcome_counts(engine.outcomes.values())
        assert counts == {"ok": 2, "failed": 0, "timed_out": 0, "shed": 1}
        stats = engine.stats()["admission"]
        assert stats["shed"] == 1
        assert stats["shed_policy"] == "reject-newest"

    def test_poisoned_payload_is_isolated_from_batchmates(self, rng):
        """A payload corrupted *after* admission (submit-time validation
        can't see it) fails alone; its micro-batch peers complete with
        outputs bit-identical to a clean run."""
        requests = make_requests(rng, [5, 5, 5], prefix="poison")
        baseline = make_engine().serve(
            [Request(r.request_id, r.activations.copy()) for r in requests]
        )
        engine = make_engine()
        for req in requests:
            engine.submit(req)
        requests[1].activations[0, 0] = np.nan  # corrupt in place, post-admission
        results = engine.serve([])
        assert set(results) == {requests[0].request_id, requests[2].request_id}
        for rid in results:
            assert np.array_equal(results[rid], baseline[rid])
        outcome = engine.outcomes[requests[1].request_id]
        assert outcome.status == OUTCOME_FAILED
        assert "non-finite" in outcome.detail

    def test_all_backends_failing_reports_failed_not_crash(self, rng):
        dispatcher = KernelDispatcher()
        engine = make_engine(dispatcher=dispatcher)
        names = [b.name for b in dispatcher.backends]
        plan = FaultPlan([FaultSpec(backend=n, kind="persistent") for n in names])
        FaultInjector(plan).arm(dispatcher)
        requests = make_requests(rng, [5, 12], prefix="dead")
        results = engine.serve(requests)
        assert results == {}
        for req in requests:
            outcome = engine.outcomes[req.request_id]
            assert outcome.status == OUTCOME_FAILED
            assert "all candidate backends failed" in outcome.detail

    def test_error_mid_step_still_records_an_outcome(self, rng):
        """Regression: a non-backend error raised while a popped micro-batch
        ran left its requests with no outcome — gone from the queue and
        from the books.  They now record ``failed``, naming the exception
        class, before the error propagates."""
        engine = make_engine()
        (good,) = make_requests(rng, [4], prefix="good")
        bad = Request("bad", rng.normal(size=(4, HIDDEN + 1)).astype(np.float32))
        engine.submit(good)
        engine.batcher.submit(bad)  # bypasses the engine's width check
        with pytest.raises(ValueError, match="feature width"):
            engine.step(0.0)  # "bad" ranks first and raises
        engine.step(0.0)
        engine.step(0.0)
        assert engine.batcher.pending == 0
        assert set(engine.outcomes) == {"bad", good.request_id}
        assert engine.outcomes["bad"].status == OUTCOME_FAILED
        assert engine.outcomes["bad"].detail.startswith("ValueError: ")
        assert engine.outcomes[good.request_id].ok

    def test_submit_rejects_non_finite_payload_by_name(self, rng):
        engine = make_engine()
        bad = rng.normal(size=(5, HIDDEN)).astype(np.float32)
        bad[2, 7] = np.inf
        with pytest.raises(ValueError, match="nf-0666.*non-finite"):
            engine.submit(Request("nf-0666", bad))
        assert engine.serve([]) == {}  # nothing was admitted


class TestModelEngineUnderFaults:
    def _encoder(self, seed=0):
        cfg = tiny_config(
            hidden_size=HIDDEN, num_layers=1, num_heads=4, intermediate_size=128
        )
        encoder = TransformerEncoder.init(cfg, seed=seed)
        sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
        return encoder

    def test_misconfigured_batch_fails_with_an_outcome(self, rng):
        """A configuration error raised from ``_execute_batch`` — here
        requests of the wrong width queued straight on the batcher, past
        ``submit``'s validation — records every popped request ``failed``
        on the way out instead of letting them vanish."""
        engine = ModelServingEngine(self._encoder(), config=ServingConfig(padding="ladder"))
        for i, t in enumerate([5, 7]):
            engine.batcher.submit(
                Request(f"bad-{i}", rng.normal(size=(t, HIDDEN + 1)).astype(np.float32))
            )
        with pytest.raises(ValueError, match="feature width"):
            engine.serve([])
        assert engine.batcher.pending == 0
        assert {rid: o.status for rid, o in engine.outcomes.items()} == {
            "bad-0": OUTCOME_FAILED,
            "bad-1": OUTCOME_FAILED,
        }
        assert all("ValueError" in o.detail for o in engine.outcomes.values())

    def test_ok_requests_are_bit_exact_sequential_forward(self, rng):
        """Model-level acceptance: under injected faults, every request
        reported ``ok`` equals its sequential fault-free encoder.forward."""
        lengths = [5, 12, 30, 7, 12]
        payloads = [rng.normal(size=(t, HIDDEN)).astype(np.float32) for t in lengths]
        baseline_encoder = self._encoder()
        expected = [baseline_encoder.forward(x[None])[0] for x in payloads]

        engine = ModelServingEngine(self._encoder(), config=ServingConfig(padding="ladder"))
        plan = FaultPlan.seeded(
            [b.name for b in engine.dispatcher.backends],
            seed=FAULT_SEED,
            failure_rate=0.25,
        )
        FaultInjector(plan).arm(engine.dispatcher)
        requests = [
            Request(f"model-{i:04d}", x) for i, x in enumerate(payloads)
        ]
        results = engine.serve_continuous(requests)
        ok_count = 0
        for i, req in enumerate(requests):
            outcome = engine.outcomes[req.request_id]
            # No deadlines and no queue bound here: a request either
            # completes or (rarely) exhausts the whole ranking at call
            # indices where every backend's stream drew a fault.
            if outcome.ok:
                ok_count += 1
                assert np.array_equal(results[req.request_id], expected[i])
            else:
                assert outcome.status == OUTCOME_FAILED
                assert "all candidate backends failed" in outcome.detail
        assert ok_count >= 1


def ffn_only_encoder(seed=0):
    """One block with only its FFN sparsified: the four attention
    projections keep dense operands, whose one candidate is cuBLAS."""
    cfg = tiny_config(hidden_size=HIDDEN, num_layers=1, num_heads=4, intermediate_size=128)
    encoder = TransformerEncoder.init(cfg, seed=seed)
    sparsify_encoder(
        encoder, VNMSparsifier(n=2, m=8, v=16), weight_filter=lambda name: ".ffn." in name
    )
    return encoder


class TestDenseProjectionsUnderFaults:
    """Every projection dispatches, so a dense one faces the circuit
    breaker like a sparse one: with one candidate, a fault on it is the
    "every candidate failed" case, and the request it hits fails alone."""

    LENGTHS = [5, 12, 30, 7, 12, 9]

    @pytest.mark.parametrize("kind", ["encoder", "decoder"])
    def test_failing_cublas_fails_who_it_hits_and_returns_everything(self, rng, kind):
        payloads = [rng.normal(size=(t, HIDDEN)).astype(np.float32) for t in self.LENGTHS]
        oracle = ffn_only_encoder()
        if kind == "encoder":
            engine = ModelServingEngine(ffn_only_encoder(), config=ServingConfig(padding="ladder"))
            requests = [Request(f"dense-{i:04d}", x) for i, x in enumerate(payloads)]
            expected = [oracle.forward(x[None])[0] for x in payloads]
        else:
            engine = DecoderServingEngine(
                ffn_only_encoder(), config=ServingConfig(block_size=4, capacity_blocks=32)
            )
            requests = [DecodeRequest(f"dense-{i:04d}", x, 2) for i, x in enumerate(payloads)]
            expected = [decode_reference(oracle, x, 2) for x in payloads]
        plan = FaultPlan.seeded(["cublas-dense"], seed=FAULT_SEED, failure_rate=0.25)
        FaultInjector(plan).arm(engine.dispatcher)
        results = engine.serve_continuous(requests)

        counts = outcome_counts(engine.outcomes.values())
        assert counts["ok"] + counts["failed"] == len(requests)
        assert counts["failed"] >= 1 and engine.dispatcher.health_stats()["failures"] >= 1
        for request, rows in zip(requests, expected):
            outcome = engine.outcomes[request.request_id]
            if outcome.ok:
                assert np.array_equal(results[request.request_id], rows)
            else:
                assert "all candidate backends failed" in outcome.detail
        stats = engine.stats()
        assert stats["admission"]["occupied_slots"] == 0 and engine.batcher.pending == 0
        if kind == "decoder":
            assert stats["residents"] == 0 and engine.batcher.kv_reserved == 0
            cache = engine.cache_stats()
            prefix_blocks = {b for e in engine.kv._prefixes.values() for b in e.block_ids}
            assert cache["sequences"] == 0 and cache["blocks_in_use"] == len(prefix_blocks)

    def test_failing_spatha_still_fails_over_to_cublas(self, rng):
        """The sparse projections walk down to the dense fallback, which
        computes their bits exactly; the dense ones never see Spatha."""
        payloads = [rng.normal(size=(t, HIDDEN)).astype(np.float32) for t in self.LENGTHS]
        oracle = ffn_only_encoder()
        engine = ModelServingEngine(ffn_only_encoder(), config=ServingConfig(padding="ladder"))
        FaultInjector(FaultPlan([FaultSpec("spatha-plan", "persistent")])).arm(engine.dispatcher)
        requests = [Request(f"spatha-{i:04d}", x) for i, x in enumerate(payloads)]
        results = engine.serve_continuous(requests)
        assert all(outcome.ok for outcome in engine.outcomes.values())
        for request, x in zip(requests, payloads):
            assert np.array_equal(results[request.request_id], oracle.forward(x[None])[0])
        health = engine.dispatcher.health_stats()
        assert health["failovers"] >= 1 and health["quarantined"] == ["spatha-plan"]


def sparse_decoder_encoder(num_layers=1, seed=0):
    cfg = tiny_config(
        hidden_size=HIDDEN, num_layers=num_layers, num_heads=4, intermediate_size=128
    )
    encoder = TransformerEncoder.init(cfg, seed=seed)
    sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
    return encoder


class TestDecoderEngineUnderFaults:
    def _encoder(self, seed=0):
        return sparse_decoder_encoder(seed=seed)

    def test_survivors_bit_exact_and_kv_blocks_reclaimed(self, rng):
        """Decoder acceptance under chaos: a backend failure mid-decode fails
        only that request; survivors' full decoded sequences are bit-for-bit
        the fault-free :func:`decode_reference`, and every retired request —
        ok or failed — returns its KV blocks, rung slot, and budget
        reservation."""
        prompts = [rng.normal(size=(t, HIDDEN)).astype(np.float32) for t in (5, 9, 9, 17)]
        baseline_encoder = self._encoder()
        expected = [decode_reference(baseline_encoder, p, new_tokens=4) for p in prompts]

        engine = DecoderServingEngine(
            self._encoder(), config=ServingConfig(block_size=4, kv_budget_blocks=64)
        )
        # A decode touches the dispatcher once per layer per token — dozens
        # of chances per request to land on an all-backends-faulted call
        # index, so the rate sits lower than the single-forward model test.
        plan = FaultPlan.seeded(
            [b.name for b in engine.dispatcher.backends],
            seed=FAULT_SEED,
            failure_rate=0.1,
        )
        FaultInjector(plan).arm(engine.dispatcher)
        requests = [
            DecodeRequest(f"chaos-{i:04d}", p, new_tokens=4)
            for i, p in enumerate(prompts)
        ]
        results = engine.serve_continuous(requests)

        ok_count = 0
        for i, req in enumerate(requests):
            outcome = engine.outcomes[req.request_id]
            if outcome.ok:
                ok_count += 1
                assert np.array_equal(results[req.request_id], expected[i])
            else:
                assert outcome.status == OUTCOME_FAILED
                assert req.request_id not in results
        assert ok_count >= 1
        assert engine.stats()["dispatch_health"]["failures"] >= 1

        # Retirement — success or failure — reclaims everything it held.
        stats = engine.cache_stats()
        assert stats["sequences"] == 0
        assert engine.batcher.kv_reserved == 0
        assert engine.batcher.pending == 0
        assert engine.stats()["residents"] == 0

    def test_priority_under_chaos_replays_and_reclaims(self, rng):
        """The SLO chaos cell: seeded faults + strict priority on the
        decoder, one rung slot held by a long class-0 decode when two
        class-1 requests arrive.  The resident keeps its slot until it
        retires (nothing preempts), so both class-1 outcomes come after
        its own.  Two replays produce identical outcomes and completion
        records; every ``ok`` decode is bit-for-bit the fault-free
        recompute; and every slot, KV block and budget reservation comes
        back."""
        baseline_encoder = self._encoder()

        def run():
            local = np.random.default_rng(FAULT_SEED + 7)
            engine = DecoderServingEngine(
                self._encoder(),
                config=ServingConfig(
                    max_batch_size=1,
                    step_us=1.0,
                    scheduling_policy=SchedulingConfig(policy="priority"),
                ),
            )
            plan = FaultPlan.seeded(
                [b.name for b in engine.dispatcher.backends],
                seed=FAULT_SEED,
                failure_rate=0.05,
            )
            FaultInjector(plan).arm(engine.dispatcher)
            requests = [
                DecodeRequest(
                    rid,
                    local.normal(size=(tokens, HIDDEN)).astype(np.float32),
                    new_tokens=new_tokens, arrival_us=arrival, priority_class=cls,
                )
                for rid, tokens, new_tokens, arrival, cls in [
                    ("slow-low", 5, 8, 0.0, 0),
                    ("vip-a", 6, 2, 2.0, 1),
                    ("vip-b", 7, 3, 3.0, 1),
                ]
            ]
            return engine, requests, engine.serve_continuous(requests)

        first_engine, requests, first_results = run()
        second_engine, _, second_results = run()

        assert first_engine.outcomes == second_engine.outcomes
        assert first_engine.completions == second_engine.completions
        outcomes = first_engine.outcomes
        assert sorted(outcomes) == ["slow-low", "vip-a", "vip-b"]
        for vip in ("vip-a", "vip-b"):
            assert outcomes["slow-low"].completed_us < outcomes[vip].completed_us

        ok_count = 0
        for req in requests:
            if outcomes[req.request_id].ok:
                ok_count += 1
                expected = decode_reference(baseline_encoder, req.prompt, req.new_tokens)
                assert np.array_equal(first_results[req.request_id], expected)
                assert np.array_equal(second_results[req.request_id], expected)
        assert ok_count >= 1

        for engine in (first_engine, second_engine):
            assert engine.cache_stats()["sequences"] == 0
            assert engine.batcher.kv_reserved == 0
            assert engine.batcher.pending == 0
            assert engine.batcher.admission_stats()["occupied_slots"] == 0

    def test_fault_free_decode_replays_identically_under_disarm(self, rng):
        """Arm-then-disarm restores the unwrapped backends: a decode run
        after disarm is bit-for-bit a never-armed engine's."""
        prompt = rng.normal(size=(6, HIDDEN)).astype(np.float32)
        engine = DecoderServingEngine(self._encoder())
        injector = FaultInjector(
            FaultPlan.seeded(
                [b.name for b in engine.dispatcher.backends],
                seed=FAULT_SEED,
                failure_rate=0.25,
            )
        )
        injector.arm(engine.dispatcher)
        injector.disarm(engine.dispatcher)
        results = engine.serve([DecodeRequest("calm-0000", prompt, new_tokens=3)])
        expected = decode_reference(self._encoder(), prompt, new_tokens=3)
        assert np.array_equal(results["calm-0000"], expected)


class TestChaosSimulation:
    def _requests(self, n=40, seed=None, rate=2000.0, deadline_after_us=None):
        return poisson_arrivals(
            n,
            rate_rps=rate,
            tokens=[5, 12, 30, 7],
            seed=FAULT_SEED if seed is None else seed,
            deadline_after_us=deadline_after_us,
        )

    def test_two_replays_are_identical(self, encoder):
        plan = FaultPlan.seeded(
            ("cublas-dense", "spatha-plan"), seed=FAULT_SEED, failure_rate=0.15,
            latency_rate=0.1,
        )
        config = replace(LADDER, max_queue_depth=8, shed_policy="drop-expired")
        first = simulate(encoder, self._requests(deadline_after_us=4000.0), config, plan)
        second = simulate(encoder, self._requests(deadline_after_us=4000.0), config, plan)
        assert first.summary() == second.summary()
        assert first.outcomes == second.outcomes
        assert first.latencies_us == second.latencies_us

    def test_pinned_outcome_counts_for_explicit_plan(self, encoder):
        """The deterministic chaos scenario the ISSUE pins: an explicit
        fault plan plus overload produces EXACT outcome counts, stable
        across replays (this test is the replay — it must never flake)."""
        requests = [
            SimulatedRequest(
                f"pin-{i:02d}", tokens=12, arrival_us=0.0 if i < 8 else 5000.0
            )
            for i in range(12)
        ]
        # Call 0 of EVERY backend fails and the burst overflows the depth-4
        # queue (4 shed).  The first chunk's first projection exhausts the
        # whole ranking on call 0, so the engine bisects it, as a live
        # engine does: each half of 2 is served on the next calls of the
        # top backend, and the late chunk after them (8 ok over 4 charged
        # batches).
        backends = [b.name for b in KernelDispatcher().backends]
        plan = FaultPlan(
            [FaultSpec(backend=n, kind="transient", at_call=0, count=1) for n in backends]
        )
        reports = [
            simulate(encoder, requests, replace(LADDER, max_queue_depth=4), plan)
            for _ in range(2)
        ]
        assert reports[0].counts() == reports[1].counts()
        assert reports[0].counts() == {"ok": 8, "failed": 0, "timed_out": 0, "shed": 4}
        assert reports[0].num_batches == 4
        assert reports[0].availability == 8 / 12
        assert reports[0].summary() == reports[1].summary()

    def test_deadlines_are_judged_before_execution(self, encoder):
        """The live engine's deadline rule: a request that starts executing
        completes ``ok`` however late it finishes, and one whose deadline
        passes while it waits queued is ``timed_out``.  Both arrive at t=0
        with a 1 us deadline in different rungs; a chunk costs far more."""
        requests = [
            SimulatedRequest("a", tokens=12, deadline_us=1.0),
            SimulatedRequest("b", tokens=40, deadline_us=1.0),
        ]
        report = simulate(encoder, requests, LADDER, FaultPlan())
        assert report.outcomes == {"a": "ok", "b": "timed_out"}
        assert report.num_batches == 1
        assert report.latencies_us["a"] > 1.0

    def test_per_class_breakout_replays_identically_under_fault_seed(self, encoder):
        """Chaos + priority traffic (the ISSUE's SLO satellite): two replays
        of a seeded fault plan over a two-class trace produce identical
        per-class outcome breakdowns."""
        plan = FaultPlan.seeded(
            ("cublas-dense", "spatha-plan"), seed=FAULT_SEED, failure_rate=0.15,
            latency_rate=0.1,
        )

        def trace():
            low = self._requests(n=24, deadline_after_us=4000.0)
            high = poisson_arrivals(
                8, rate_rps=500.0, tokens=[5, 12], seed=FAULT_SEED + 1,
                deadline_after_us=4000.0, prefix="vip", priority_class=1,
            )
            return sorted(low + high, key=lambda r: (r.arrival_us, r.request_id))

        config = replace(LADDER, max_queue_depth=8, shed_policy="drop-expired")
        first = simulate(encoder, trace(), config, plan)
        second = simulate(encoder, trace(), config, plan)
        assert first.per_class() == second.per_class()
        assert set(first.per_class()) == {0, 1}
        per_class = first.per_class()
        assert per_class[0]["requests"] == 24
        assert per_class[1]["requests"] == 8
        total = first.counts()
        for state in ("ok", "failed", "timed_out", "shed"):
            assert per_class[0][state] + per_class[1][state] == total[state]
        assert "per_class" in first.summary()

    def test_pinned_per_class_counts_for_explicit_plan(self, encoder):
        """Two-class pinned cell: with every backend's call 0 failing and a
        depth-4 queue, the burst overflow sheds, the first chunk fails on
        call 0 and its bisected halves are served on the next calls, and the
        late wave completes — with EXACT per-class counts that must never
        move across replays."""
        requests = [
            SimulatedRequest(
                f"pin-{i:02d}",
                tokens=12,
                arrival_us=0.0 if i < 8 else 5000.0,
                priority_class=i % 2,
            )
            for i in range(12)
        ]
        backends = [b.name for b in KernelDispatcher().backends]
        plan = FaultPlan(
            [FaultSpec(backend=n, kind="transient", at_call=0, count=1) for n in backends]
        )
        reports = [
            simulate(encoder, requests, replace(LADDER, max_queue_depth=4), plan)
            for _ in range(2)
        ]
        assert reports[0].per_class() == reports[1].per_class()
        per_class = reports[0].per_class()
        # The burst alternates classes, so every phase splits evenly: the 4
        # shed overflow, the first chunk's 4 served after bisection, the 4
        # ok stragglers.
        for cls in (0, 1):
            assert per_class[cls]["requests"] == 6
            assert per_class[cls]["failed"] == 0
            assert per_class[cls]["shed"] == 2
            assert per_class[cls]["ok"] == 4
            assert per_class[cls]["timed_out"] == 0
            assert per_class[cls]["shed_rate"] == pytest.approx(2 / 6)
            assert per_class[cls]["violation_rate"] == 0.0

    def test_fault_free_plan_is_fully_available(self, encoder):
        report = simulate(encoder, self._requests(n=16), LADDER, FaultPlan())
        assert report.counts() == {"ok": 16, "failed": 0, "timed_out": 0, "shed": 0}
        assert report.availability == 1.0
        assert report.failovers == 0
        assert report.injected_failures == 0

    @staticmethod
    def _top_ranked(encoder):
        """The backends the traffic's lengths rank first, over every projection."""
        return {
            KernelDispatcher().dispatch(lin.operand, c).backend
            for _, lin in encoder.named_linear_layers()
            for c in (5, 7, 12, 30)
        }

    def test_quarantine_surfaces_in_report(self, encoder):
        # Persistently fail a backend that wins traffic so the breaker
        # actually sees consecutive failures.
        assert "spatha-plan" in self._top_ranked(encoder)
        plan = FaultPlan([FaultSpec(backend="spatha-plan", kind="persistent")])
        dispatcher = KernelDispatcher(failure_threshold=2, probe_interval=2)
        report = simulate(encoder, self._requests(n=16), LADDER, plan, dispatcher)
        assert report.quarantines >= 1
        assert report.failovers >= 1
        assert report.availability == 1.0  # fallback ranking absorbs it

    def test_backend_health_does_not_carry_across_runs(self, encoder):
        """A dispatcher shared across runs carries decisions and estimates,
        never backend health: after a run that left a winning backend
        quarantined (a probe interval longer than the run), a fault-free
        run replays exactly as on a fresh dispatcher."""
        plan = FaultPlan([FaultSpec(backend="spatha-plan", kind="persistent")])
        shared = KernelDispatcher(failure_threshold=2, probe_interval=100)
        assert simulate(encoder, self._requests(n=16), LADDER, plan, shared).quarantines >= 1
        after = simulate(encoder, self._requests(n=16), LADDER, dispatcher=shared)
        fresh = simulate(
            encoder, self._requests(n=16), LADDER,
            dispatcher=KernelDispatcher(failure_threshold=2, probe_interval=100),
        )
        assert after.outcomes == fresh.outcomes
        assert after.latencies_us == fresh.latencies_us
        backends = [e.meta["backend"] for e in after.trace.executions]
        assert backends == [e.meta["backend"] for e in fresh.trace.executions]
        assert set(backends) == self._top_ranked(encoder)

    def test_p999_on_known_distribution(self):
        """p999 satellite: pin the extreme tail on a synthetic distribution
        where the answer is known analytically (linear interpolation over
        1..1000 puts p99.9 at 999.001)."""
        latencies = {f"r{i:04d}": float(i) for i in range(1, 1001)}
        report = SimReport(
            num_requests=1000,
            num_batches=1000,
            makespan_us=1_000_000.0,
            latencies_us=latencies,
        )
        assert report.p999_latency_us == pytest.approx(999.001)
        assert report.p99_latency_us == pytest.approx(990.01)
        assert "p999_latency_us" in report.summary()



class _CallClock:
    """Predicts every backend's next call index along a dispatch sequence.

    ``FaultSpec`` indices are per backend, so making *every* candidate fail
    one chosen dispatched call means knowing how many calls each backend
    has seen when that call arrives: a fault-free projection costs its
    chosen backend one call, a call failed on every candidate costs each
    candidate one.
    """

    def __init__(self, dispatcher):
        self.dispatcher = dispatcher
        self.counts = {}

    @staticmethod
    def projections(*layers):
        """The layers' projections, in the order a step dispatches them."""
        return [
            lin
            for layer in layers
            for lin in (*layer.attention.weight_gemm_layers(), layer.ffn.intermediate, layer.ffn.output)
        ]

    def run(self, projections, times=1):
        """``times`` fault-free passes over ``projections``."""
        for lin in projections * times:
            chosen = self.dispatcher.dispatch(lin.operand, 1).backend
            self.counts[chosen] = self.counts.get(chosen, 0) + 1

    def fail_everywhere(self, lin):
        """Transient specs failing ``lin``'s next dispatched call on every candidate."""
        specs = []
        for name, _ in self.dispatcher.dispatch(lin.operand, 1).ranking:
            specs.append(FaultSpec(name, "transient", at_call=self.counts.get(name, 0)))
            self.counts[name] = self.counts.get(name, 0) + 1
        return specs


class TestStackedDecodeUnderFaults:
    """A decode step runs all residents as one slab stack, so a backend
    failure or KV exhaustion arrives for the stack, not for a request.  The
    engine rolls the step back and re-runs it resident by resident; these
    cells pin that the error still fails exactly who it hit, that nobody is
    recorded twice, and that nothing leaks."""

    def _encoder(self):
        return sparse_decoder_encoder(num_layers=2)

    def _requests(self, rng, new_tokens, prompt_tokens=6):
        # Equal prompt lengths share a rung: one micro-batch admits them all,
        # so the next step stacks every one of them.
        return [
            DecodeRequest(
                f"stack-{i:04d}",
                rng.normal(size=(prompt_tokens, HIDDEN)).astype(np.float32),
                new_tokens=n,
            )
            for i, n in enumerate(new_tokens)
        ]

    def _expected(self, requests):
        reference = self._encoder()
        return {
            r.request_id: decode_reference(reference, r.prompt, r.new_tokens) for r in requests
        }

    @staticmethod
    def _spy_outcomes(engine):
        """Every ``_record_outcome`` call's request id, in order."""
        recorded = []
        record = engine._record_outcome

        def spy(request_id, *args, **kwargs):
            recorded.append(request_id)
            record(request_id, *args, **kwargs)

        engine._record_outcome = spy
        return recorded

    @staticmethod
    def _assert_settled(engine, requests, recorded):
        """Exactly one outcome per submitted id; nothing held by anyone."""
        assert sorted(recorded) == sorted(r.request_id for r in requests)
        assert sorted(engine.outcomes) == sorted(recorded)
        cache = engine.cache_stats()
        prefix_blocks = {b for e in engine.kv._prefixes.values() for b in e.block_ids}
        assert cache["sequences"] == 0
        assert cache["blocks_in_use"] == len(prefix_blocks)
        assert cache["blocks_free"] + cache["blocks_in_use"] == cache["capacity_blocks"]
        assert engine.batcher.kv_reserved == 0
        assert engine.stats()["admission"]["occupied_slots"] == 0
        assert engine.stats()["residents"] == 0

    @pytest.mark.parametrize("retry_fails", [False, True], ids=["retries-ok", "one-retry-fails"])
    def test_fault_mid_stack_rolls_back_and_fails_only_who_it_hits(self, rng, retry_fails):
        """Every candidate fails the *same* dispatched call — layer 1's query
        projection of the first three-resident stack — so the error escapes
        the dispatcher with layer 0's K/V already appended for all three.
        The step rolls back and falls back; each lone retry that succeeds
        decodes the reference bits.  With ``retry_fails`` the middle
        resident's own retry is failed the same way: it alone fails."""
        requests = self._requests(rng, new_tokens=(3, 4, 5))
        expected = self._expected(requests)
        encoder = self._encoder()
        engine = DecoderServingEngine(
            encoder, config=ServingConfig(block_size=4, capacity_blocks=64)
        )
        clock = _CallClock(engine.dispatcher)
        whole_stack = clock.projections(*encoder.layers)
        clock.run(whole_stack, times=len(requests))  # three layer-major prefills
        clock.run(clock.projections(encoder.layers[0]))  # the stacked step's layer 0
        specs = clock.fail_everywhere(encoder.layers[1].attention.query)
        if retry_fails:
            clock.run(whole_stack)  # resident 0's lone retry
            specs += clock.fail_everywhere(encoder.layers[0].attention.query)
        injector = FaultInjector(FaultPlan(specs)).arm(engine.dispatcher)
        recorded = self._spy_outcomes(engine)

        results = engine.serve(requests)

        failed = {requests[1].request_id} if retry_fails else set()
        for request in requests:
            outcome = engine.outcomes[request.request_id]
            if request.request_id in failed:
                assert outcome.status == OUTCOME_FAILED and "injected fault" in outcome.detail
                assert request.request_id not in results
            else:
                assert outcome.ok
                assert np.array_equal(results[request.request_id], expected[request.request_id])
        stats = engine.stats()
        assert stats["stacking"]["fallback_steps"] == 1
        assert injector.injected_failures == len(specs)
        assert stats["dispatch_health"]["failures"] == len(specs)
        # The rolled-back step is counted once: one decode step per delivered row.
        assert stats["decode_steps"] == sum(len(rows) for rows in results.values())
        self._assert_settled(engine, requests, recorded)

    def test_persistent_fault_armed_mid_run_fails_residents_one_by_one(self, rng):
        """Every backend goes down for good between two steps.  The next
        stack raises, the fallback gives each resident its own attempt and
        its own ``failed`` outcome; whoever finished before the outage keeps
        the reference bits, and the queued late-comer fails at prefill."""
        requests = self._requests(rng, new_tokens=(1, 4, 4, 4))
        late = DecodeRequest(
            "stack-late", rng.normal(size=(9, HIDDEN)).astype(np.float32), new_tokens=2
        )
        expected = self._expected(requests)
        engine = DecoderServingEngine(
            self._encoder(), config=ServingConfig(block_size=4, capacity_blocks=64)
        )
        recorded = self._spy_outcomes(engine)
        for request in requests:
            engine.submit(request)
        engine.step(0.0)  # admission + prefill
        done = engine.step(1.0)  # one healthy four-resident stack
        assert list(done) == [requests[0].request_id]
        assert engine.stats()["stacking"] == {
            "stacked_steps": 1, "stacked_slabs": 4, "prefill_slabs": 24, "fallback_steps": 0,
        }

        names = [b.name for b in engine.dispatcher.backends]
        FaultInjector(FaultPlan([FaultSpec(n, "persistent") for n in names])).arm(engine.dispatcher)
        engine.submit(late)
        assert engine.step(2.0) == {}
        while engine.batcher.pending or engine.stats()["residents"]:
            assert engine.step(3.0) == {}

        assert np.array_equal(done[requests[0].request_id], expected[requests[0].request_id])
        for request in (*requests[1:], late):
            outcome = engine.outcomes[request.request_id]
            assert outcome.status == OUTCOME_FAILED and "injected fault" in outcome.detail
        stats = engine.stats()
        assert stats["outcomes"] == {"ok": 1, "failed": 4, "timed_out": 0, "shed": 0}
        assert stats["stacking"]["fallback_steps"] == 1  # one stack raised, three lone failures
        assert stats["stacking"]["stacked_steps"] == 1
        self._assert_settled(engine, (*requests, late), recorded)

    def test_exhaustion_during_stacked_extends_fails_who_needed_the_block(self, rng):
        """Three 4-token prompts fill one 4-slot block each and the pool has
        five: on the first stacked step all three cross a block boundary,
        the third ``extend()`` finds the pool dry and raises for the stack.
        After the rollback the first two re-extend into the blocks they kept
        (no second allocation) and decode the reference bits; the third
        fails alone.  (A budget of the whole cache would have held the
        third back; this one over-commits the pool on purpose.)"""
        requests = self._requests(rng, new_tokens=(3, 3, 3), prompt_tokens=4)
        expected = self._expected(requests)
        engine = DecoderServingEngine(
            self._encoder(),
            config=ServingConfig(block_size=4, capacity_blocks=5, kv_budget_blocks=6),
        )
        recorded = self._spy_outcomes(engine)
        results = engine.serve(requests)

        for request in requests[:2]:
            assert engine.outcomes[request.request_id].ok
            assert np.array_equal(results[request.request_id], expected[request.request_id])
        starved = engine.outcomes[requests[2].request_id]
        assert starved.status == OUTCOME_FAILED and "KV cache exhausted" in starved.detail
        assert requests[2].request_id not in results
        stats = engine.stats()
        assert stats["stacking"]["fallback_steps"] == 1
        assert stats["cache"]["peak_blocks_in_use"] == 5
        assert stats["decode_steps"] == 6
        self._assert_settled(engine, requests, recorded)

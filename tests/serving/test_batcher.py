"""Serving-layer tests: batcher determinism, bucket boundaries, and the
single-request == batched-request equivalence guarantee.

The central property — batched execution of N compatible requests is
bit-identical to N sequential single-request calls — is asserted with
``np.array_equal`` (no tolerance): the engine runs every request at its
true length and every operator of the encoder is slab-exact over the
batch dimension, so equality must be exact.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.hardware.trace import ExecutionTrace
from repro.integration import VNMSparsifier, sparsify_encoder
from repro.kernels.dispatch import KernelDispatcher
from repro.models import TransformerEncoder, tiny_config
from repro.serving import (
    ContinuousBatcher,
    FaultPlan,
    FaultSpec,
    ModelServingEngine,
    Request,
    ServingConfig,
    SimulatedRequest,
    simulate,
    uniform_arrivals,
)
from repro.serving.batcher import BucketKey


K_FEATURES = 64
#: The held (async) window over the padded ladder.
HELD = ServingConfig(scheduling="async", padding="ladder")
#: The live engines' ladder (lengths share a rung, each runs at its own shape).
LADDER = ServingConfig(padding="ladder")


def make_encoder(seed=0):
    """A tiny one-layer encoder, every projection 16:2:8."""
    cfg = tiny_config(hidden_size=K_FEATURES, num_layers=1, num_heads=4, intermediate_size=128)
    encoder = TransformerEncoder.init(cfg, seed=seed)
    sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
    return encoder


@pytest.fixture
def encoder():
    return make_encoder()


def make_requests(rng, token_counts, prefix="req"):
    return [
        Request(f"{prefix}-{i:04d}", rng.normal(size=(t, K_FEATURES)).astype(np.float32))
        for i, t in enumerate(token_counts)
    ]


def fresh_engine(encoder, config=LADDER):
    return ModelServingEngine(encoder, config=config)


def held_engine(encoder, window_us, **knobs):
    """A default-ladder engine whose buckets are held ``window_us``
    (``scheduling="async"``)."""
    config = ServingConfig(scheduling="async", padding="ladder", window_us=window_us, **knobs)
    return fresh_engine(encoder, config)


class TestBucketing:
    def test_token_bucket_rounds_up(self):
        batcher = ContinuousBatcher(token_buckets=(8, 32, 128))
        assert batcher.token_bucket(1) == 8
        assert batcher.token_bucket(8) == 8
        assert batcher.token_bucket(9) == 32
        assert batcher.token_bucket(32) == 32
        assert batcher.token_bucket(33) == 128

    def test_tokens_beyond_last_bucket_get_exact_bucket(self):
        batcher = ContinuousBatcher(token_buckets=(8, 32))
        assert batcher.token_bucket(33) == 33
        assert batcher.token_bucket(1000) == 1000

    def test_boundary_edge_cases_split_buckets(self, rng):
        """Requests at a boundary and one past it must land in different
        buckets (they cannot stack without changing the padded shape)."""
        batcher = ContinuousBatcher(token_buckets=(8, 32, 128))
        reqs = make_requests(rng, [32, 33])
        for r in reqs:
            batcher.submit(r)
        batches = batcher.drain()
        assert len(batches) == 2
        assert [b.key.token_bucket for b in batches] == [32, 128]

    def test_same_bucket_requests_stack(self, rng):
        batcher = ContinuousBatcher(token_buckets=(8, 32, 128))
        reqs = make_requests(rng, [9, 17, 32])
        for r in reqs:
            batcher.submit(r)
        batches = batcher.drain()
        assert len(batches) == 1
        assert batches[0].batch_size == 3
        assert batches[0].key == BucketKey(features=K_FEATURES, token_bucket=32)
        assert batcher.pending == 0

    def test_drain_order_is_arrival_invariant(self, rng):
        reqs = make_requests(rng, [5, 17, 17, 40, 70])
        orders = [reqs, list(reversed(reqs)), [reqs[2], reqs[0], reqs[4], reqs[1], reqs[3]]]
        drains = []
        for order in orders:
            batcher = ContinuousBatcher(token_buckets=(8, 32, 128))
            for r in order:
                batcher.submit(r)
            drains.append(
                [(b.key, [r.request_id for r in b.requests]) for b in batcher.drain()]
            )
        assert drains[0] == drains[1] == drains[2]

    def test_max_batch_size_chunks(self, rng):
        batcher = ContinuousBatcher(token_buckets=(16,), max_batch_size=2)
        for r in make_requests(rng, [4, 4, 4, 4, 4]):
            batcher.submit(r)
        sizes = [b.batch_size for b in batcher.drain()]
        assert sizes == [2, 2, 1]

    def test_duplicate_request_id_rejected(self, rng):
        batcher = ContinuousBatcher()
        (req,) = make_requests(rng, [4])
        batcher.submit(req)
        with pytest.raises(ValueError):
            batcher.submit(req)
        batcher.drain()
        batcher.submit(req)  # a fresh window may reuse the id

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            ContinuousBatcher(token_buckets=())
        with pytest.raises(ValueError):
            ContinuousBatcher(token_buckets=(8, 8))
        with pytest.raises(ValueError):
            ContinuousBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            ContinuousBatcher().token_bucket(0)
        with pytest.raises(ValueError):
            ContinuousBatcher(window_us=-1.0)
        with pytest.raises(ValueError):
            Request("r", np.zeros((0, 4), dtype=np.float32))
        with pytest.raises(TypeError):
            ContinuousBatcher().submit("not a request")

    def test_non_finite_payload_rejected_at_submit_by_name(self, rng):
        """A NaN/Inf payload is refused at admission — naming the offending
        request — instead of poisoning its batchmates at execute time."""
        batcher = ContinuousBatcher()
        bad = rng.normal(size=(4, K_FEATURES)).astype(np.float32)
        bad[1, 3] = np.nan
        with pytest.raises(ValueError, match="bad-0042.*non-finite"):
            batcher.submit(Request("bad-0042", bad))
        assert batcher.pending == 0

    def test_submit_many_rejects_non_finite_atomically(self, rng):
        """One bad payload fails the whole submit_many before ANY member is
        queued, so a retry never trips the duplicate-id guard."""
        batcher = ContinuousBatcher()
        good_a, good_b = make_requests(rng, [4, 9], prefix="atomic")
        bad = Request("atomic-bad", np.full((4, K_FEATURES), np.inf, dtype=np.float32))
        with pytest.raises(ValueError, match="atomic-bad.*non-finite"):
            batcher.submit_many([good_a, bad, good_b])
        assert batcher.pending == 0
        batcher.submit_many([good_a, good_b])  # clean retry succeeds
        assert batcher.pending == 2

    def test_expire_due_removes_and_returns_expired(self, rng):
        batcher = ContinuousBatcher()
        live, doomed = make_requests(rng, [4, 4], prefix="exp")
        doomed = Request(doomed.request_id, doomed.activations, deadline_us=10.0)
        batcher.submit(live)
        batcher.submit(doomed)
        assert batcher.expire_due(5.0) == []  # deadline not yet passed
        expired = batcher.expire_due(11.0)
        assert [r.request_id for r in expired] == [doomed.request_id]
        assert batcher.pending == 1
        batcher.submit(Request(doomed.request_id, doomed.activations))  # id freed


class TestServingEngineEquivalence:
    def test_batched_equals_sequential_bitwise(self, rng, encoder):
        """The acceptance property: N compatible requests executed in one
        batched window == N sequential single-request calls, bit for bit."""
        reqs = make_requests(rng, [5, 17, 17, 17, 30, 32])
        batched = fresh_engine(encoder).serve(reqs)
        sequential = {}
        solo = fresh_engine(encoder)
        for r in reqs:
            sequential.update(solo.serve([r]))
        assert set(batched) == set(sequential)
        for rid in batched:
            assert np.array_equal(batched[rid], sequential[rid]), rid

    def test_outputs_match_direct_forward(self, rng, encoder):
        """Per-request outputs equal the encoder's own forward of that
        request alone, at its true length."""
        reqs = make_requests(rng, [5, 17])
        results = fresh_engine(encoder).serve(reqs)
        for req in reqs:
            direct = encoder.forward(req.activations[None])[0]
            assert np.array_equal(results[req.request_id], direct)

    def test_arrival_order_does_not_change_outputs(self, rng, encoder):
        reqs = make_requests(rng, [17, 5, 17, 30, 17, 64, 3])
        orderings = [reqs, list(reversed(reqs)), sorted(reqs, key=lambda r: r.tokens)]
        outputs = [fresh_engine(encoder).serve(order) for order in orderings]
        for result in outputs[1:]:
            assert set(result) == set(outputs[0])
            for rid in result:
                assert np.array_equal(result[rid], outputs[0][rid]), rid

    def test_single_vs_many_windows_equivalent(self, rng, encoder):
        """Splitting the same requests across several flush windows must not
        change any output."""
        reqs = make_requests(rng, [5, 17, 17, 30, 33, 64])
        one_window = fresh_engine(encoder).serve(reqs)
        engine = fresh_engine(encoder)
        two_windows = dict(engine.serve(reqs[:3]))
        two_windows.update(engine.serve(reqs[3:]))
        for rid in one_window:
            assert np.array_equal(one_window[rid], two_windows[rid]), rid

    def test_trace_records_batched_kernels(self, rng, encoder):
        engine = fresh_engine(encoder)
        engine.serve(make_requests(rng, [17, 17, 17, 60]))
        assert isinstance(engine.trace, ExecutionTrace)
        assert engine.total_requests == 4
        assert engine.total_batches == 2  # rung 32 (x3) + rung 64
        projections = len(list(encoder.named_linear_layers()))
        assert len(engine.trace.executions) == 2 * projections
        sizes = sorted(e.meta["batch_size"] for e in engine.trace.executions)
        assert sizes == [1] * projections + [3] * projections
        assert engine.trace.total_time_us > 0
        stats = engine.stats()
        assert stats["requests"] == 4 and stats["batches"] == 2

    def test_feature_mismatch_rejected(self, rng, encoder):
        engine = fresh_engine(encoder)
        with pytest.raises(ValueError):
            engine.submit(Request("bad", rng.normal(size=(4, K_FEATURES + 1)).astype(np.float32)))

    def test_serve_is_atomic_on_invalid_request(self, rng, encoder):
        """A rejected request must not strand earlier requests of the same
        serve() call in the queue (they would leak into a later window)."""
        engine = fresh_engine(encoder)
        good = make_requests(rng, [4])[0]
        bad = Request("bad", rng.normal(size=(4, K_FEATURES + 1)).astype(np.float32))
        with pytest.raises(ValueError):
            engine.serve([good, bad])
        assert engine.batcher.pending == 0
        # The same requests can be resubmitted cleanly afterwards.
        results = engine.serve([good])
        assert set(results) == {good.request_id}
        # Duplicate ids inside one window are also rejected atomically.
        with pytest.raises(ValueError):
            engine.serve([good, good])
        assert engine.batcher.pending == 0

    def test_warm_prebuilds_plan(self, encoder):
        layers = [lin.operand.vnm for _, lin in encoder.named_sparse_layers()]
        assert layers and all(("spmm_plan", "auto") not in m._memo for m in layers)
        fresh_engine(encoder)
        assert all(("spmm_plan", "auto") in m._memo for m in layers)


class TestHoldRule:
    """Dynamic batching as a hold on the step loop: a bucket waits for
    company until its oldest request has waited ``window_us`` or its
    arrivals fill the rung's free slots.

    The serving property under test is that the hold is a pure
    *scheduling* change — per-request outputs are invariant to arrival
    order AND to the window size, bit for bit — and that its timing holds
    (a bucket opens exactly one window after its oldest arrival unless it
    fills first).
    """

    def _timed(self, reqs, arrivals):
        return [
            Request(r.request_id, r.activations, arrival_us=a)
            for r, a in zip(reqs, arrivals)
        ]

    def test_outputs_invariant_to_arrival_order_and_window(self, rng, encoder):
        """Every (window size, arrival order) combination produces the
        one-window outputs, bit for bit.

        Lengths cover the bucket boundaries: 32 (exact bucket), 33
        (bucket + 1, the first length of the next rung) and 200 (alone on
        the 256 rung)."""
        lengths = [5, 17, 17, 32, 33, 200]
        reqs = make_requests(rng, lengths)
        baseline = fresh_engine(encoder).serve(reqs)

        arrival_patterns = [
            [0.0, 10.0, 20.0, 30.0, 40.0, 50.0],
            [50.0, 40.0, 30.0, 20.0, 10.0, 0.0],  # ids arrive in reverse
            [0.0, 0.0, 500.0, 500.0, 1000.0, 1000.0],  # bursts
        ]
        for window_us in (25.0, 300.0, 5000.0):
            for arrivals in arrival_patterns:
                engine = held_engine(encoder, window_us)
                results = engine.serve_continuous(self._timed(reqs, arrivals))
                assert set(results) == set(baseline)
                for rid in baseline:
                    assert np.array_equal(results[rid], baseline[rid]), (
                        window_us,
                        arrivals,
                        rid,
                    )

    def test_hold_releases_only_waited_buckets(self, rng, encoder):
        engine = held_engine(encoder, 100.0)
        batcher = engine.batcher
        early, late = self._timed(make_requests(rng, [5, 20]), [0.0, 90.0])
        engine.submit(early)
        engine.submit(late)
        assert engine.step(50.0) == {}
        assert batcher.next_event_us() == pytest.approx(100.0)

        # At t=100 only the bucket-8 hold (opened at t=0) is over.
        assert set(engine.step(100.0)) == {early.request_id}
        assert batcher.pending == 1
        assert engine.step(100.0) == {}
        assert batcher.next_event_us() == pytest.approx(190.0)

        assert set(engine.step(batcher.next_event_us())) == {late.request_id}
        assert batcher.pending == 0
        assert batcher.next_event_us() is None

    def test_bucket_deadline_tracks_oldest_member(self, rng, encoder):
        """A late same-bucket joiner must not extend the bucket's hold."""
        engine = held_engine(encoder, 100.0)
        first, second = self._timed(make_requests(rng, [17, 20]), [10.0, 95.0])
        engine.submit(first)
        engine.submit(second)
        # Both share bucket 32; the hold began at t=10 and ends at 110.
        assert engine.step(109.0) == {}
        results = engine.step(110.0)
        assert set(results) == {first.request_id, second.request_id}

    def test_full_rung_is_not_held(self, rng, encoder):
        """Arrivals that fill the rung's free slots release the bucket at
        once, long before the hold would end; the rest of the queue waits
        on its own head's window."""
        engine = held_engine(encoder, 1000.0, max_batch_size=2)
        batcher = engine.batcher
        reqs = self._timed(make_requests(rng, [4, 4, 4]), [0.0, 10.0, 20.0])
        for req in reqs:
            engine.submit(req)
        assert batcher.next_event_us() == 10.0  # the second arrival fills it
        assert engine.step(9.0) == {}
        assert set(engine.step(10.0)) == {reqs[0].request_id, reqs[1].request_id}
        assert engine.step(500.0) == {}
        assert batcher.next_event_us() == 1020.0  # the third's own window
        assert set(engine.step(1020.0)) == {reqs[2].request_id}

    def test_ids_free_after_held_bucket_runs(self, rng, encoder):
        engine = held_engine(encoder, 10.0)
        (req,) = make_requests(rng, [4])
        engine.submit(req)
        engine.step(1000.0)
        engine.submit(req)  # a later window may reuse the served id
        with pytest.raises(ValueError):
            engine.submit(req)  # but not while it is pending

    def _serve_held(self, rng, encoder, tokens, arrivals, deadlines=None):
        engine = held_engine(encoder, 100.0)
        deadlines = deadlines or [None] * len(tokens)
        engine.serve_continuous(
            Request(rid, rng.normal(size=(t, K_FEATURES)).astype(np.float32), arrival_us=a, deadline_us=d)
            for rid, t, a, d in zip("abcd", tokens, arrivals, deadlines)
        )
        return engine

    def test_closes_windows_at_their_deadlines(self, rng, encoder):
        """Bucket 64 (d) closes at 0+100.  Bucket 8 opens at a's 99, b (150)
        joins before the 199 deadline, c (250) opens a fresh window that
        closes at 350: every window closes at its own deadline, not at
        whichever arrival happens to come next."""
        engine = self._serve_held(
            rng, encoder, tokens=[4, 4, 4, 40], arrivals=[99.0, 150.0, 250.0, 0.0]
        )
        closed = {rid: outcome.completed_us for rid, outcome in engine.outcomes.items()}
        assert closed == {"d": 100.0, "a": 199.0, "b": 199.0, "c": 350.0}
        assert engine.total_batches == 3

    def test_window_closes_on_time_before_a_late_arrival(self, rng, encoder):
        """Regression: a window used to close only at the next arrival, so a
        request whose window closed at 100 us with a 150 us deadline was
        recorded ``timed_out`` when the next request arrived at 1000 us."""
        engine = self._serve_held(
            rng, encoder, tokens=[4, 4], arrivals=[0.0, 1000.0], deadlines=[150.0, None]
        )
        assert engine.outcomes["a"].status == "ok"
        assert engine.outcomes["a"].completed_us == 100.0
        assert engine.outcomes["b"].completed_us == 1100.0

    def test_arrival_at_the_close_instant_joins_the_chunk(self, rng, encoder):
        """Arrivals are inclusive: a request landing exactly when its
        bucket's hold ends is admitted before that step and rides along."""
        engine = held_engine(encoder, 100.0)
        reqs = self._timed(make_requests(rng, [4, 4]), [0.0, 100.0])
        engine.serve_continuous(reqs)
        assert engine.total_batches == 1
        assert {o.completed_us for o in engine.outcomes.values()} == {100.0}

    def test_simulated_async_policy_order_invariant(self, encoder):
        reqs = uniform_arrivals(24, rate_rps=20000, tokens=[9, 17, 33])
        shuffled = list(reversed(reqs))
        config = replace(HELD, window_us=400.0)
        a = simulate(encoder, reqs, config)
        b = simulate(encoder, shuffled, config)
        assert a.summary() == b.summary()
        assert a.config.scheduling == "async"
        assert a.num_requests == 24
        # Queueing delay is bounded by the window under the async policy
        # (completion latency additionally includes GPU queueing, so compare
        # against the per-request baseline's service component).
        assert all(v >= 0 for v in a.latencies_us.values())

    def test_sweep_accepts_async_policy(self, encoder):
        reqs = uniform_arrivals(12, rate_rps=50000, tokens=[17])
        reports = [simulate(encoder, reqs, replace(HELD, window_us=w)) for w in [0.0, 200.0]]
        assert [r.config.scheduling for r in reports] == ["async", "async"]


class TestIntakeValidation:
    """Mismatched shapes fail loudly at intake or at the step, never deep
    in a kernel."""

    def test_bypassing_submit_still_fails_with_clear_error(self, rng, encoder):
        """A request queued straight on the batcher (skipping submit's
        check) used to die inside the kernel with a broadcast error; now
        the step rejects the micro-batch with a readable message."""
        engine = fresh_engine(encoder)
        bad = Request("bad", rng.normal(size=(4, K_FEATURES + 1)).astype(np.float32))
        engine.batcher.submit(bad)
        with pytest.raises(ValueError, match="hidden size"):
            engine.serve([])


class TestServingSimulation:
    def test_report_accounting(self, encoder):
        reqs = uniform_arrivals(40, rate_rps=100000, tokens=[17, 33])
        report = simulate(encoder, reqs, replace(HELD, window_us=500.0))
        assert report.num_requests == 40
        assert report.num_batches <= 40
        assert len(report.latencies_us) == 40
        assert report.makespan_us > 0
        assert report.throughput_rps > 0
        assert report.kernel_time_us == pytest.approx(report.trace.total_time_us)
        summary = report.summary()
        assert summary["requests"] == 40

    def test_batching_amortises_kernel_time(self, encoder):
        """More window -> fewer, bigger batches -> less total modelled
        kernel time (the sublinear-in-C amortisation batching exists for)."""
        reqs = uniform_arrivals(64, rate_rps=200000, tokens=[17])
        per_request = simulate(encoder, reqs, replace(HELD, window_us=0.0, max_batch_size=1))
        batched = simulate(encoder, reqs, replace(HELD, window_us=2000.0))
        assert per_request.num_batches == 64
        assert batched.num_batches < 16
        assert batched.kernel_time_us < per_request.kernel_time_us
        assert batched.mean_batch_size > 4

    def test_saturated_throughput_improves_with_window(self, encoder):
        """Under a backlog (all requests queued at t=0) batching must beat
        per-request dispatch on requests/s."""
        reqs = [SimulatedRequest(f"r{i:04d}", tokens=17, arrival_us=0.0) for i in range(128)]
        per_request = simulate(encoder, reqs, replace(HELD, window_us=0.0, max_batch_size=1))
        batched = simulate(encoder, reqs, replace(HELD, window_us=50.0))
        assert batched.throughput_rps > per_request.throughput_rps

    def test_sweep_returns_one_report_per_window(self, encoder):
        reqs = uniform_arrivals(20, rate_rps=50000, tokens=[9, 17])
        windows = [0.0, 200.0, 1000.0]
        reports = [simulate(encoder, reqs, replace(HELD, window_us=w)) for w in windows]
        assert [r.config.window_us for r in reports] == windows

    def test_trace_meta_records_backend_and_batch(self, encoder):
        reqs = uniform_arrivals(8, rate_rps=100000, tokens=[17])
        report = simulate(encoder, reqs, replace(HELD, window_us=1000.0))
        layers = [name for name, _ in encoder.named_linear_layers()]
        assert [e.meta["layer"] for e in report.trace.executions] == layers * report.num_batches
        for e in report.trace.executions:
            assert e.category == "gemm"
            assert e.meta["backend"] in {"spatha-plan", "cublas-dense"}
            assert e.meta["batch_size"] >= 1

    def test_mean_batch_size_counts_micro_batches_not_trace_events(self, encoder):
        """One micro-batch of four on rung 16, run as two length groups
        (three 9s, one 12): twelve launches, one batch of four."""
        reqs = [SimulatedRequest(f"m{i}", tokens=t) for i, t in enumerate([9, 9, 12, 9])]
        report = simulate(encoder, reqs, replace(HELD, window_us=0.0))
        projections = len(list(encoder.named_linear_layers()))
        assert report.num_batches == report.served_batches == 1
        assert len(report.trace.executions) == 2 * projections
        assert [e.meta["batch_size"] for e in report.trace.executions] == (
            [3] * projections + [1] * projections
        )
        assert report.mean_batch_size == 4.0
        assert report.summary()["mean_batch_size"] == 4.0

    def test_simulating_a_served_encoder_leaves_its_engine_serving(self, rng, encoder):
        """The simulator never re-routes the encoder's layers, so the live
        engine that owns them serves its next batch through its own
        dispatcher."""
        live = fresh_engine(encoder)
        first = make_requests(rng, [5, 9], prefix="before")
        live.serve(first)
        simulate(encoder, uniform_arrivals(6, rate_rps=50000, tokens=[9, 17]), HELD)
        assert all(lin.dispatcher is live.dispatcher for _, lin in encoder.named_linear_layers())
        after = make_requests(rng, [5, 9], prefix="after")
        results = live.serve(after)
        assert set(results) == {r.request_id for r in after}
        for req in after:
            assert np.array_equal(results[req.request_id], encoder.forward(req.activations[None])[0])

    @pytest.mark.parametrize("max_batch_size", [1, 4])
    @pytest.mark.parametrize("padding", ["exact", "ladder"])
    def test_a_stream_that_never_idles_spans_its_traced_kernel_time(
        self, encoder, padding, max_batch_size
    ):
        """Everything arrives at t=0 and nothing fails: the serial stream
        is busy from the first launch to the last, so the makespan is the
        traced kernel time, launch by launch."""
        reqs = [SimulatedRequest(f"n{i}", tokens=t) for i, t in enumerate([3, 9, 9, 17, 33, 12])]
        config = ServingConfig(padding=padding, max_batch_size=max_batch_size)
        report = simulate(encoder, reqs, config)
        assert report.counts()["ok"] == len(reqs)
        assert report.makespan_us == pytest.approx(report.trace.total_time_us, rel=1e-12)
        assert max(report.latencies_us.values()) == pytest.approx(report.makespan_us, rel=1e-12)

    @pytest.mark.parametrize("padding", ["exact", "ladder"])
    def test_each_simulated_launch_is_an_estimate_at_the_groups_columns(self, encoder, padding):
        """A launch costs the dispatcher's estimate for its projection at
        ``batch_size × tokens`` columns on the backend that served it."""
        dispatcher = KernelDispatcher()
        reqs = [SimulatedRequest(f"c{i}", tokens=t) for i, t in enumerate([5, 5, 9, 14, 14, 14])]
        report = simulate(encoder, reqs, ServingConfig(padding=padding), dispatcher=dispatcher)
        operands = {name: lin.operand for name, lin in encoder.named_linear_layers()}
        assert report.trace.executions
        for e in report.trace.executions:
            columns = e.meta["batch_size"] * e.meta["tokens"]
            expected = dispatcher.estimate(operands[e.meta["layer"]], columns, backend=e.meta["backend"])
            assert e.time_us == expected.time_us

    def test_simulate_needs_an_encoder(self, encoder):
        """There is no single-operator simulation: one projection's operand
        is refused up front."""
        _, projection = next(encoder.named_linear_layers())
        with pytest.raises(TypeError, match="TransformerEncoder"):
            simulate(projection.operand, [SimulatedRequest("r", tokens=4)], HELD)

    def test_injected_latency_lengthens_the_makespan_exactly(self, encoder):
        """A latency fault on one call delays the serial stream by exactly
        its spike: it fails nothing and adds no launch."""
        reqs = [SimulatedRequest(f"l{i}", tokens=12) for i in range(3)]
        clean = simulate(encoder, reqs, HELD)
        backend = clean.trace.executions[0].meta["backend"]
        plan = FaultPlan([FaultSpec(backend, "latency", at_call=0, latency_us=40.0)])
        slow = simulate(encoder, reqs, HELD, plan)
        assert slow.injected_latency_us == 40.0 and slow.injected_failures == 0
        assert slow.makespan_us == pytest.approx(clean.makespan_us + 40.0)
        assert slow.outcomes == clean.outcomes
        assert slow.kernel_time_us == pytest.approx(clean.kernel_time_us)

    def test_a_failed_call_is_charged_but_only_served_batches_are_traced(self, encoder):
        """Every candidate of the first call fails: the micro-batch's
        attempts are charged to the stream, then its two halves are served
        and traced; the failed micro-batch leaves no launch behind."""
        reqs = [SimulatedRequest(f"f{i}", tokens=12) for i in range(4)]
        plan = FaultPlan(
            [FaultSpec(n, "transient", at_call=0) for n in ("spatha-plan", "cublas-dense")]
        )
        report = simulate(encoder, reqs, HELD, plan)
        projections = len(list(encoder.named_linear_layers()))
        assert report.counts()["ok"] == 4
        assert report.num_batches == 3 and report.served_batches == 2
        assert len(report.trace.executions) == 2 * projections
        assert report.mean_batch_size == 2.0
        assert report.makespan_us > report.kernel_time_us

    def test_validation(self, encoder):
        with pytest.raises(ValueError):
            simulate(encoder, [], replace(HELD, window_us=10.0))
        with pytest.raises(ValueError):
            SimulatedRequest("r", tokens=0)
        with pytest.raises(ValueError):
            uniform_arrivals(0, rate_rps=1.0, tokens=[4])
        with pytest.raises(ValueError):
            uniform_arrivals(4, rate_rps=0.0, tokens=[4])
        with pytest.raises(ValueError):
            uniform_arrivals(4, rate_rps=1.0, tokens=[])

"""Continuous batching: scheduling tests and the arrival-invariance property.

The serving property under test: the continuous step loop — admission
between steps, one micro-batch per step — changes *when* requests execute and
*who* shares their micro-batch, never their numbers.  Serving N requests
continuously is bit-for-bit N sequential ``encoder.forward`` calls for
every arrival interleaving, step cadence, and exact/ladder mode; and the
per-request :class:`~repro.serving.continuous.CompletionRecord` metadata is
deterministic for a fixed schedule.
"""

import numpy as np
import pytest

from repro.integration import VNMSparsifier, sparsify_encoder
from repro.models import TransformerEncoder, tiny_config
from repro.serving.continuous import _arrival_rank
from repro.serving import (
    ContinuousBatcher,
    ModelServingEngine,
    Request,
    SchedulingConfig,
    ServingConfig,
    simulate,
    uniform_arrivals,
)

HIDDEN = 64


def make_encoder(num_layers=1, seed=0):
    cfg = tiny_config(
        hidden_size=HIDDEN, num_layers=num_layers, num_heads=4, intermediate_size=128
    )
    encoder = TransformerEncoder.init(cfg, seed=seed)
    sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
    return encoder


def make_requests(rng, lengths, arrivals=None, prefix="req"):
    arrivals = arrivals if arrivals is not None else [0.0] * len(lengths)
    return [
        Request(
            f"{prefix}-{i:04d}",
            rng.normal(size=(t, HIDDEN)).astype(np.float32),
            arrival_us=a,
        )
        for i, (t, a) in enumerate(zip(lengths, arrivals))
    ]


def continuous_engine(padding="ladder", num_layers=1, **knobs):
    return ModelServingEngine(
        make_encoder(num_layers),
        config=ServingConfig(padding=padding, name=f"cont-{padding}", **knobs),
    )


class TestContinuousBatcher:
    def test_next_batch_empty_or_not_yet_arrived(self, rng):
        batcher = ContinuousBatcher.ladder()
        assert batcher.next_batch(0.0) is None
        (req,) = make_requests(rng, [5], arrivals=[100.0])
        batcher.submit(req)
        assert batcher.next_batch(50.0) is None  # queued but not arrived
        assert batcher.next_event_us() == 100.0
        batch = batcher.next_batch(100.0)
        assert [r.request_id for r in batch.requests] == [req.request_id]
        assert batcher.next_event_us() is None

    def test_fcfs_across_rungs(self, rng):
        """The rung whose oldest member has waited longest runs first."""
        batcher = ContinuousBatcher.ladder()
        young_small, old_big = make_requests(rng, [5, 12], arrivals=[5.0, 2.0])
        batcher.submit(young_small)  # rung 8, arrived at 5
        batcher.submit(old_big)  # rung 16, arrived at 2
        first = batcher.next_batch(10.0)
        assert first.key.token_bucket == 16
        second = batcher.next_batch(10.0)
        assert second.key.token_bucket == 8

    def test_overflow_members_stay_queued_not_blocked(self, rng):
        """A rung with more members than max_batch_size chunks oldest-first;
        the overflow stays queued and merges with later arrivals."""
        batcher = ContinuousBatcher.ladder(max_batch_size=2)
        early = make_requests(rng, [3, 5, 7], arrivals=[0.0, 1.0, 2.0])
        for r in early:
            batcher.submit(r)
        first = batcher.next_batch(10.0)
        assert [r.request_id for r in first.requests] == ["req-0000", "req-0001"]
        (late,) = make_requests(rng, [8], arrivals=[11.0], prefix="late")
        batcher.submit(late)
        second = batcher.next_batch(11.0)
        assert [r.request_id for r in second.requests] == ["req-0002", "late-0000"]
        assert batcher.pending == 0

    def test_taken_ids_become_reusable(self, rng):
        batcher = ContinuousBatcher.ladder()
        (req,) = make_requests(rng, [5])
        batcher.submit(req)
        with pytest.raises(ValueError):
            batcher.submit(req)  # still pending
        batcher.next_batch(0.0)
        batcher.submit(req)  # completed: the id may return


class TestSubmitValidatesExactlyOnce:
    """Regression: ``ContinuousBatcher.submit_many`` used to run the full
    non-finite payload scan twice per request (once itself, once in the
    parent).  Validation now happens exactly once, in the submit methods,
    and the error surface is unchanged."""

    def test_payload_scanned_exactly_once(self, rng, monkeypatch):
        import repro.serving.continuous as batcher_mod

        scans = []
        real = batcher_mod._reject_non_finite

        def counting(request):
            scans.append(request.request_id)
            real(request)

        monkeypatch.setattr(batcher_mod, "_reject_non_finite", counting)
        batcher = ContinuousBatcher.ladder()
        reqs = make_requests(rng, [4, 6, 9], prefix="scan")
        batcher.submit(reqs[0])
        assert scans == ["scan-0000"]
        batcher.submit_many(reqs[1:])
        assert scans == ["scan-0000", "scan-0001", "scan-0002"]

    def test_malformed_submissions_raise_the_same_messages(self, rng):
        batcher = ContinuousBatcher.ladder()
        with pytest.raises(TypeError, match="submit expects a Request"):
            batcher.submit("nope")
        with pytest.raises(TypeError, match="submit_many expects Request instances"):
            batcher.submit_many(["nope"])
        bad = Request("cont-bad", np.full((4, HIDDEN), np.nan, dtype=np.float32))
        with pytest.raises(ValueError, match="cont-bad.*non-finite"):
            batcher.submit(bad)
        with pytest.raises(ValueError, match="cont-bad.*non-finite"):
            batcher.submit_many([bad])
        assert batcher.pending == 0

        (ok,) = make_requests(rng, [4], prefix="dup")
        batcher.submit(ok)
        with pytest.raises(ValueError, match="duplicate request_id .* in this window"):
            batcher.submit(Request(ok.request_id, ok.activations))
        with pytest.raises(ValueError, match="duplicate request_ids in this window"):
            batcher.submit_many([Request(ok.request_id, ok.activations)])
        twin_a, twin_b = make_requests(rng, [4, 4], prefix="twin")
        clone = Request(twin_a.request_id, twin_b.activations)
        with pytest.raises(
            ValueError, match="duplicate request_ids within the submitted batch"
        ):
            batcher.submit_many([twin_a, clone])
        assert batcher.pending == 1  # only the one accepted submit queued


class TestIncrementalSchedulerState:
    """Satellite coverage for the bucket queues: arrival inclusivity and
    ``next_event_us`` across partial drains, evictions and bucket churn
    (the chunk-sequence property against the reference planner lives in
    ``test_slo.py``, over every policy)."""

    def test_arrived_is_inclusive_at_equality(self, rng):
        batcher = ContinuousBatcher.ladder()
        early, exact = make_requests(rng, [5, 7], arrivals=[50.0, 100.0], prefix="inc")
        batcher.submit(early)
        batcher.submit(exact)
        # Same rung: only the arrived prefix of the bucket is scheduled ...
        assert [r.request_id for r in batcher.next_batch(99.0).requests] == ["inc-0000"]
        assert batcher.next_event_us() == 100.0
        assert batcher.next_batch(99.99) is None
        # ... and arrival_us == now_us is eligible.
        assert [r.request_id for r in batcher.next_batch(100.0).requests] == ["inc-0001"]
        both = ContinuousBatcher.ladder()
        both.submit(early)
        both.submit(exact)
        taken = [r.request_id for r in both.next_batch(100.0).requests]
        assert taken == ["inc-0000", "inc-0001"] and both.pending == 0

    def test_next_event_after_partial_drain(self, rng):
        batcher = ContinuousBatcher.ladder(max_batch_size=2)
        reqs = make_requests(rng, [4, 4, 4, 4], arrivals=[10.0, 20.0, 30.0, 99.0],
                             prefix="ev")
        for r in reqs:
            batcher.submit(r)
        assert batcher.next_event_us() == 10.0
        batch = batcher.next_batch(35.0)  # cap 2: takes 10.0 and 20.0
        assert [r.request_id for r in batch.requests] == ["ev-0000", "ev-0001"]
        assert batcher.next_event_us() == 30.0  # head advanced past the drain
        batcher.next_batch(35.0)
        assert batcher.next_event_us() == 99.0  # only the future request left

    def test_next_event_after_shed_and_expiry(self, rng):
        payload = rng.normal(size=(4, HIDDEN)).astype(np.float32)
        # drop-expired: the expired head is evicted to admit the newcomer,
        # and its bucket must not keep reporting it.
        batcher = ContinuousBatcher.ladder(max_queue_depth=1,
                                           shed_policy="drop-expired")
        batcher.submit(Request("ne-dead", payload, arrival_us=5.0, deadline_us=10.0))
        assert batcher.next_event_us() == 5.0
        assert batcher.submit(Request("ne-live", payload, arrival_us=20.0)) is not None
        assert batcher.total_expired == 1
        assert batcher.next_event_us() == 20.0
        # reject-newest: the shed request never enters a bucket at all.
        rejecting = ContinuousBatcher.ladder(max_queue_depth=1)
        rejecting.submit(Request("sh-0", payload, arrival_us=5.0))
        assert rejecting.submit(Request("sh-1", payload, arrival_us=1.0)) is None
        assert rejecting.total_shed == 1
        assert rejecting.next_event_us() == 5.0
        # explicit expiry likewise advances the event horizon.
        expiring = ContinuousBatcher.ladder()
        expiring.submit(Request("ex-0", payload, arrival_us=5.0, deadline_us=10.0))
        expiring.submit(Request("ex-1", payload, arrival_us=40.0))
        assert expiring.next_event_us() == 5.0
        assert [r.request_id for r in expiring.expire_due(60.0)] == ["ex-0"]
        assert expiring.next_event_us() == 40.0

    def test_bucket_map_tracks_bucket_churn(self, rng):
        """Bucket creation/destruction churn: lengths spanning many rungs,
        drained one chunk at a time so buckets are born and die constantly.
        At every point the bucket map holds exactly the queued requests,
        each under its own key in ``(arrival, id)`` order with no empty
        bucket left behind, ``next_event_us`` is the oldest queued arrival,
        and every chunk is its bucket's oldest arrived members."""
        batcher = ContinuousBatcher.ladder(max_batch_size=2)
        n = 60
        lengths = (np.arange(n) % 70) + 1  # rungs 8/16/32/64 + exact tails
        arrivals = np.sort(rng.uniform(0.0, 500.0, size=n))
        reqs = [
            Request(
                f"churn-{i:04d}",
                rng.normal(size=(int(t), HIDDEN)).astype(np.float32),
                arrival_us=float(a),
            )
            for i, (t, a) in enumerate(zip(lengths, arrivals))
        ]
        queued = {}

        def check_invariants():
            seen = []
            for key, bucket in batcher._buckets.items():
                assert bucket and bucket == sorted(bucket, key=_arrival_rank)
                assert all(batcher.bucket_key(r) == key for r in bucket)
                seen.extend(r.request_id for r in bucket)
            assert sorted(seen) == sorted(queued) and batcher.pending == len(queued)
            expected = min((r.arrival_us for r in queued.values()), default=None)
            assert batcher.next_event_us() == expected

        i, now = 0, 0.0
        while i < len(reqs) or batcher.pending:
            while i < len(reqs) and reqs[i].arrival_us <= now:
                batcher.submit(reqs[i])
                queued[reqs[i].request_id] = reqs[i]
                i += 1
                check_invariants()  # after every bucket creation
            batch = batcher.next_batch(now)
            if batch is None and i < len(reqs):
                now = reqs[i].arrival_us
            elif batch is not None:
                mates = sorted(
                    (r for r in queued.values() if batcher.bucket_key(r) == batch.key),
                    key=_arrival_rank,
                )
                assert batch.requests == [r for r in mates if r.arrival_us <= now][:2]
                for r in batch.requests:
                    del queued[r.request_id]
            check_invariants()  # after every chunk (bucket drains)
            now += 13.0
        assert batcher._buckets == {} and batcher.next_event_us() is None


class TestContinuousServingBitExactness:
    """The tentpole guarantee: continuous serving of N requests is bit-for-bit
    N sequential encoder forwards, for every interleaving and cadence."""

    LENGTHS = [1, 5, 7, 8, 9, 12, 17, 17]

    ARRIVAL_PATTERNS = [
        [0.0] * 8,  # burst
        [i * 40.0 for i in range(8)],  # steady trickle
        [280.0, 240.0, 200.0, 160.0, 120.0, 80.0, 40.0, 0.0],  # ids in reverse
        [0.0, 0.0, 500.0, 500.0, 500.0, 900.0, 900.0, 2000.0],  # clumps
    ]

    @pytest.mark.parametrize("padding", ["ladder", "exact"])
    def test_interleavings_and_cadences_preserve_bits(self, rng, padding):
        requests = make_requests(rng, self.LENGTHS)
        baseline = ModelServingEngine(
            make_encoder(), config=ServingConfig(padding=padding)
        ).serve(requests)
        for arrivals in self.ARRIVAL_PATTERNS:
            for step_us in (0.0, 75.0, 1500.0):
                engine = continuous_engine(padding, step_us=step_us)
                timed = [
                    Request(r.request_id, r.activations, arrival_us=a)
                    for r, a in zip(requests, arrivals)
                ]
                results = engine.serve_continuous(timed)
                assert set(results) == set(baseline)
                for rid in baseline:
                    assert np.array_equal(results[rid], baseline[rid]), (
                        padding,
                        arrivals,
                        step_us,
                        rid,
                    )

    def test_continuous_equals_sequential_forward(self, rng):
        """Direct form of the guarantee: each served output equals the
        standalone encoder.forward of that request, bit for bit."""
        engine = continuous_engine("ladder", num_layers=2, step_us=25.0)
        requests = make_requests(
            rng, [3, 7, 9, 16, 17, 33], arrivals=[0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
        )
        results = engine.serve_continuous(requests)
        for request in requests:
            sequential = engine.encoder.forward(request.activations[None])[0]
            assert np.array_equal(results[request.request_id], sequential), request.request_id


def run_slo_golden_cell(rng, padding, policy, arrivals, step_us, classes=None):
    """One priority golden cell: SLO-scheduled continuous serving must stay
    bit-for-bit N sequential forwards — the scheduling policy only reorders
    *when* requests run, never their numbers."""
    lengths = [1, 5, 7, 8, 9, 12, 17, 17]
    requests = make_requests(rng, lengths)
    baseline = ModelServingEngine(
        make_encoder(), config=ServingConfig(padding=padding)
    ).serve(requests)
    classes = classes if classes is not None else [i % 3 for i in range(len(lengths))]
    scheduling = SchedulingConfig(policy=policy, class_weights=(1, 2, 4))
    engine = continuous_engine(padding, step_us=step_us, scheduling_policy=scheduling)
    timed = [
        Request(r.request_id, r.activations, arrival_us=a, priority_class=c)
        for r, a, c in zip(requests, arrivals, classes)
    ]
    results = engine.serve_continuous(timed)
    assert set(results) == set(baseline)
    for rid in baseline:
        assert np.array_equal(results[rid], baseline[rid]), (
            padding, policy, arrivals, step_us, rid,
        )
    assert engine.batcher.admission_stats()["policy"] == policy


class TestSLOSchedulingBitExactness:
    """The golden-matrix cells the SLO tentpole adds: priority and
    weighted-fair scheduling reorder execution but preserve every bit.
    Scheduling is numerics-free — these cells pin that it stays so."""

    ARRIVAL_PATTERNS = TestContinuousServingBitExactness.ARRIVAL_PATTERNS

    @pytest.mark.parametrize(
        "padding,policy,pattern_idx,step_us",
        [
            ("ladder", "priority", 0, 0.0),
            ("ladder", "weighted-fair", 1, 75.0),
            ("exact", "priority", 2, 75.0),
            ("exact", "weighted-fair", 3, 0.0),
        ],
        ids=[
            "ladder-priority-burst",
            "ladder-wf-trickle",
            "exact-priority-reversed",
            "exact-wf-clumps",
        ],
    )
    def test_smoke_cells(self, rng, padding, policy, pattern_idx, step_us):
        run_slo_golden_cell(
            rng, padding, policy, self.ARRIVAL_PATTERNS[pattern_idx], step_us
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("padding", ["ladder", "exact"])
    @pytest.mark.parametrize("policy", ["priority", "weighted-fair"])
    @pytest.mark.parametrize("pattern_idx", [0, 1, 2, 3])
    @pytest.mark.parametrize("step_us", [0.0, 75.0, 1500.0])
    def test_full_grid(self, rng, padding, policy, pattern_idx, step_us):
        run_slo_golden_cell(
            rng, padding, policy, self.ARRIVAL_PATTERNS[pattern_idx], step_us
        )

    def test_priority_reorders_execution_but_not_bits(self, rng):
        """The policy visibly changes the schedule (the high class completes
        in the earliest step despite arriving last) while outputs stay
        bit-exact — scheduling moved work, never numerics."""
        engine = continuous_engine(
            "ladder", step_us=10.0, max_batch_size=1,
            scheduling_policy=SchedulingConfig(policy="priority"),
        )
        low_a, low_b = make_requests(rng, [5, 6], arrivals=[0.0, 0.0], prefix="low")
        (vip,) = make_requests(rng, [7], arrivals=[0.0], prefix="vip")
        # Same instant, submitted last, lowest id-rank loses under FCFS —
        # only the class can put it first.
        vip = Request(vip.request_id, vip.activations, arrival_us=0.0, priority_class=2)
        results = engine.serve_continuous([low_a, low_b, vip])
        recs = engine.completions
        assert recs["vip-0000"].step <= min(
            recs["low-0000"].step, recs["low-0001"].step
        )
        for req in (low_a, low_b, vip):
            sequential = engine.encoder.forward(req.activations[None])[0]
            assert np.array_equal(results[req.request_id], sequential)


class TestCompletionMetadata:
    def test_records_are_deterministic_for_a_fixed_schedule(self, rng):
        lengths = [3, 5, 7, 9, 12, 17]
        arrivals = [0.0, 20.0, 40.0, 40.0, 60.0, 200.0]
        runs = []
        for _ in range(2):
            req_rng = np.random.default_rng(7)
            engine = continuous_engine("ladder", step_us=50.0)
            requests = make_requests(req_rng, lengths, arrivals)
            engine.serve_continuous(requests)
            runs.append(dict(engine.completions))
        assert runs[0] == runs[1]
        records = runs[0]
        assert set(records) == {f"req-{i:04d}" for i in range(len(lengths))}
        for rid, rec in records.items():
            assert rec.request_id == rid
            assert rec.completed_us >= rec.arrival_us
            assert rec.wait_us == rec.completed_us - rec.arrival_us
            assert rec.rung >= 1
            # batch_size agrees with the number of records sharing the step.
            assert rec.batch_size == sum(1 for r in records.values() if r.step == rec.step)

    def test_late_request_joins_open_rung_mid_flight(self, rng):
        """The defining continuous behaviour: a request arriving after its
        rung-mates were queued (but before their step ran) executes in the
        same micro-batch."""
        engine = continuous_engine("ladder")
        early = make_requests(rng, [3, 5], arrivals=[0.0, 10.0])
        (late,) = make_requests(rng, [7], arrivals=[500.0], prefix="late")
        for r in early:
            engine.submit(r)
        # No step has run yet; the late joiner lands in the same rung-8 bucket.
        engine.submit(late)
        results = engine.step(500.0)
        assert set(results) == {r.request_id for r in early} | {late.request_id}
        steps = {engine.completions[rid].step for rid in results}
        assert steps == {0}
        assert engine.completions[late.request_id].batch_size == 3

    def test_completed_requests_leave_without_blocking_the_rung(self, rng):
        """Chunked rung-mates complete across steps: the first chunk leaves,
        the remainder merges with a later arrival instead of waiting for a
        window."""
        engine = continuous_engine("ladder", step_us=40.0, max_batch_size=2)
        first_wave = make_requests(rng, [3, 5, 7], arrivals=[0.0, 0.0, 0.0])
        (joiner,) = make_requests(rng, [8], arrivals=[30.0], prefix="join")
        results = engine.serve_continuous(first_wave + [joiner])
        assert len(results) == 4
        recs = engine.completions
        assert recs["req-0000"].step == recs["req-0001"].step == 0
        assert recs["req-0002"].step == recs["join-0000"].step == 1
        assert recs["join-0000"].batch_size == 2
        assert engine.stats()["continuous"] == {"steps": 2, "completions": 4}


class TestContinuousApi:
    def test_idle_step_returns_empty(self):
        engine = continuous_engine("ladder")
        assert engine.step(0.0) == {}
        assert engine.steps_executed == 0

    def test_streaming_intake_validates_on_admission(self, rng):
        engine = continuous_engine("ladder")
        bad = Request("bad", rng.normal(size=(4, HIDDEN + 1)).astype(np.float32))
        with pytest.raises(ValueError, match="hidden size"):
            engine.serve_continuous([bad])

    def test_prequeued_future_requests_are_served_not_stranded(self, rng):
        """Regression: a request submitted directly onto the engine with a
        future arrival must be drained by serve_continuous (via the
        batcher's next_event_us), not silently left pending."""
        engine = continuous_engine("ladder")
        (future,) = make_requests(rng, [5], arrivals=[100.0], prefix="future")
        engine.submit(future)
        (now_req,) = make_requests(rng, [7], arrivals=[0.0], prefix="now")
        results = engine.serve_continuous([now_req])
        assert set(results) == {"now-0000", "future-0000"}
        assert engine.batcher.pending == 0
        sequential = engine.encoder.forward(future.activations[None])[0]
        assert np.array_equal(results["future-0000"], sequential)


def ladder(scheduling, window_us):
    """Simulator config: ``scheduling`` over the padded ladder."""
    return ServingConfig(scheduling=scheduling, padding="ladder", window_us=window_us)


class TestContinuousSimulation:
    @pytest.fixture
    def encoder(self):
        return make_encoder()

    def test_p99_latency_beats_async_at_equal_offered_load(self, encoder):
        """The acceptance property of the continuous policy: same arrival
        schedule, every request served by both policies, and the continuous
        p99 completion latency is no worse than the held (async) loop's."""
        requests = uniform_arrivals(64, rate_rps=5000, tokens=[3, 9, 17, 33])
        async_report = simulate(encoder, requests, ladder("async", 2000.0))
        cont_report = simulate(encoder, requests, ladder("continuous", 2000.0))
        assert cont_report.num_requests == async_report.num_requests == 64
        assert len(cont_report.latencies_us) == 64
        assert cont_report.p99_latency_us <= async_report.p99_latency_us
        assert cont_report.mean_latency_us <= async_report.mean_latency_us
        assert cont_report.config.scheduling == "continuous"

    def test_arrival_order_invariant_summary(self, encoder):
        requests = uniform_arrivals(24, rate_rps=20000, tokens=[9, 17, 33])
        a = simulate(encoder, requests, ladder("continuous", 400.0))
        b = simulate(encoder, list(reversed(requests)), ladder("continuous", 400.0))
        assert a.summary() == b.summary()

    def test_backlog_still_batches(self, encoder):
        """All requests queued at t=0: the continuous scheduler must form
        multi-request batches (it admits everything arrived), not degrade
        to per-request dispatch."""
        requests = [
            uniform_arrivals(32, rate_rps=1e9, tokens=[17])[i] for i in range(32)
        ]
        report = simulate(encoder, requests, ladder("continuous", 100.0))
        assert report.num_batches < 32
        assert report.mean_batch_size > 1.0

    def test_window_value_is_irrelevant_including_zero(self, encoder):
        """Regression: the continuous policy has no windows to disable —
        window_us=0 must run the same executor-driven schedule as any
        other value, not fall back to per-request dispatch."""
        requests = [
            uniform_arrivals(32, rate_rps=1e9, tokens=[17])[i] for i in range(32)
        ]
        zero = simulate(encoder, requests, ladder("continuous", 0.0))
        some = simulate(encoder, requests, ladder("continuous", 100.0))
        assert zero.num_batches == some.num_batches < 32
        assert zero.latencies_us == some.latencies_us

    def test_sweep_accepts_continuous_policy(self, encoder):
        requests = uniform_arrivals(12, rate_rps=50000, tokens=[17])
        reports = [simulate(encoder, requests, ladder("continuous", w)) for w in [100.0, 2000.0]]
        assert [r.config.scheduling for r in reports] == ["continuous", "continuous"]
        # Nothing waits on the window, so the sweep rows coincide (the
        # recorded window_us is the only difference).
        a, b = reports[0].summary(), reports[1].summary()
        a.pop("window_us"), b.pop("window_us")
        assert a == b

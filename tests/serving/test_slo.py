"""SLO-aware scheduling: the reference planner, the batcher's chunk-sequence
property, traffic models, and the per-class overload acceptance criterion.

The property at the centre: the live :class:`ContinuousBatcher` emits
exactly the chunk sequence of the loop-form specification
:func:`plan_slo_batch_reference`, under both policies — across random
arrivals, priority classes, deadlines, shed policies, KV budgets and held
rung slots.  Scheduling stays numerics-free, so these tests are
pure bookkeeping; the bit-exactness cells live in ``test_continuous.py``
and ``test_decoder.py``.

The overload acceptance criterion is pinned here end to end: under a
seeded bursty two-tenant overload, strict-priority scheduling puts the
high class's p99 strictly below FCFS's, with shed/violations concentrated
in the low class.  Every test is seeded — no statistical flake.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.integration import VNMSparsifier, sparsify_encoder
from repro.models import TransformerEncoder, tiny_config
from repro.serving import (
    BucketKey,
    ContinuousBatcher,
    Request,
    SchedulingConfig,
    ServingConfig,
    SimulatedRequest,
    bursty_arrivals,
    compress_arrivals,
    create_engine,
    merge_arrivals,
    pareto_lengths,
    plan_slo_batch_reference,
    simulate,
)
from repro.serving.simulate import ModelledEngine

HIDDEN = 64


@pytest.fixture
def encoder():
    """A tiny one-layer encoder, every projection 16:2:8."""
    cfg = tiny_config(hidden_size=HIDDEN, num_layers=1, num_heads=4, intermediate_size=128)
    encoder = TransformerEncoder.init(cfg, seed=0)
    sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
    return encoder


def payload(rng, tokens):
    return rng.normal(size=(tokens, HIDDEN)).astype(np.float32)


class TestSchedulingConfig:
    def test_defaults_are_inactive_fcfs(self):
        config = SchedulingConfig()
        assert config.policy == "fcfs"
        assert config.num_classes == 1
        assert config.weight_of(3) == 1
        assert config.queue_bound_of(0) is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "lifo"},
            {"class_weights": (0,)},
            {"class_weights": (1, -2)},
            {"policy": "weighted-fair"},
            # The retired weighted fair-share policy, with the weights it took.
            {"policy": "weighted-fair", "class_weights": (1, 3)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SchedulingConfig(**kwargs)

    def test_has_no_preemption_knob(self):
        # Scheduling reserves a request's whole KV footprint, so exhaustion
        # defers work and a resident is never evicted for a higher class.
        with pytest.raises(TypeError):
            SchedulingConfig(**{"preemption": True})

    def test_queue_bounds_are_weight_derived(self):
        # The split: ceil(max_queue_depth * w_c / sum(w)).
        derived = SchedulingConfig(class_weights=(1, 3))
        assert derived.num_classes == 2
        assert derived.queue_bound_of(0, max_queue_depth=8) == 2
        assert derived.queue_bound_of(1, max_queue_depth=8) == 6
        assert derived.queue_bound_of(7, max_queue_depth=8) == 2  # weight 1 beyond the tuple
        assert derived.queue_bound_of(0, max_queue_depth=None) is None
        # Without weights no class has a bound of its own.
        assert SchedulingConfig().queue_bound_of(0, max_queue_depth=8) is None


class TestReferencePlanner:
    """Unit behaviour of :func:`plan_slo_batch_reference`, the one
    executable specification of chunk selection."""

    def test_fcfs_deterministic_ties(self):
        """Arrival ties break by id, bucket ties by key — no hidden state."""
        items = [
            ("b", BucketKey(features=4, token_bucket=8), 0.0),
            ("a", BucketKey(features=4, token_bucket=8), 0.0),
            ("c", BucketKey(features=4, token_bucket=16), 0.0),
        ]
        kwargs = dict(
            key_of=lambda it: it[1],
            arrival_of=lambda it: it[2],
            id_of=lambda it: it[0],
            max_batch_size=8,
        )
        key, chunk = plan_slo_batch_reference(items, **kwargs)
        # Same arrival everywhere: the bucket whose oldest id sorts first
        # wins, and members come back oldest-then-id ordered.
        assert key.token_bucket == 8
        assert [it[0] for it in chunk] == ["a", "b"]
        assert plan_slo_batch_reference([], **kwargs) is None

    def test_priority_takes_highest_class_with_capacity(self):
        key = BucketKey(features=4, token_bucket=8)
        full = BucketKey(features=4, token_bucket=16)
        items = [
            ("low-old", key, 0.0, 0, None),
            ("high-late", key, 9.0, 2, None),
            ("higher-but-blocked", full, 1.0, 3, None),
        ]
        key_got, chunk = plan_slo_batch_reference(
            items,
            key_of=lambda it: it[1],
            arrival_of=lambda it: it[2],
            id_of=lambda it: it[0],
            max_batch_size=4,
            class_of=lambda it: it[3],
            deadline_of=lambda it: it[4],
            policy="priority",
            capacity_of=lambda k: 0 if k == full else 4,
        )
        # Class 3 has no schedulable rung; class 2 wins; the chunk is
        # class-pure (the older class-0 request does not ride along).
        assert key_got == key
        assert [it[0] for it in chunk] == ["high-late"]

    def test_edf_orders_within_the_class(self):
        key = BucketKey(features=4, token_bucket=8)
        items = [
            ("no-deadline", key, 0.0, 1, None),
            ("loose", key, 5.0, 1, 900.0),
            ("tight", key, 9.0, 1, 100.0),
        ]
        _, chunk = plan_slo_batch_reference(
            items,
            key_of=lambda it: it[1],
            arrival_of=lambda it: it[2],
            id_of=lambda it: it[0],
            max_batch_size=2,
            class_of=lambda it: it[3],
            deadline_of=lambda it: it[4],
            policy="priority",
        )
        # Tightest deadline first; deadline-free requests sort last.
        assert [it[0] for it in chunk] == ["tight", "loose"]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            plan_slo_batch_reference(
                [], key_of=None, arrival_of=None, id_of=None,
                max_batch_size=1, policy="lifo",
            )


#: Shed configurations of the chunk-sequence property:
#: ``(scheduling kwargs, batcher kwargs)``.
SHED_CONFIGS = {
    "unbounded": ({}, {}),
    "reject-newest": ({}, {"max_queue_depth": 6, "shed_policy": "reject-newest"}),
    "drop-expired": ({}, {"max_queue_depth": 6, "shed_policy": "drop-expired"}),
    "class-bounds": (
        {"class_weights": (3, 1, 1, 1)},
        {"max_queue_depth": 8, "shed_policy": "reject-newest"},
    ),
    # Footprints of 1-3 blocks against 6: chunks are cut by the KV budget.
    "kv-budget": ({}, {"kv_budget_blocks": 6, "kv_cost": lambda r: 1 + r.tokens // 8}),
    # Both at once: admission evicts expired requests from a budgeted queue.
    "kv-budget-drop-expired": (
        {},
        {
            "max_queue_depth": 6,
            "shed_policy": "drop-expired",
            "kv_budget_blocks": 6,
            "kv_cost": lambda r: 1 + r.tokens // 8,
        },
    ),
}


class TestBatcherChunkSequenceProperty:
    """The live batcher emits exactly the reference planner's chunk
    sequence — the bucket queues, per-class bookkeeping and slot holders
    never drift from the flat-list specification."""

    @pytest.mark.parametrize("window_us", [0.0, 150.0])
    @pytest.mark.parametrize("shed", list(SHED_CONFIGS))
    @pytest.mark.parametrize("policy", ["fcfs", "priority"])
    def test_chunk_sequence_matches_reference_planner(self, rng, policy, shed, window_us):
        """Random arrivals, classes, deadlines and step cadences, with rung
        slots randomly held (by outside holders and by scheduled requests)
        and released, with and without a hold.  The mirror replays the same
        events on a flat pending list and passes the held slots as the
        reference's ``capacity_of`` and, under a KV budget, the blocks left
        unreserved as its ``kv_room`` (a scheduled request holds its
        footprint until it leaves its slot).  An idle step always leaves
        ``next_event_us`` past the clock."""
        scheduling_kwargs, shed_kwargs = SHED_CONFIGS[shed]
        scheduling = SchedulingConfig(policy=policy, **scheduling_kwargs)
        for _ in range(3):
            batcher = ContinuousBatcher.ladder(
                max_batch_size=3, scheduling=scheduling, window_us=window_us, **shed_kwargs
            )
            n = 24
            lengths = rng.integers(1, 20, size=n)
            arrivals = np.sort(rng.uniform(0.0, 1000.0, size=n))
            reqs = [
                Request(
                    f"slo-{i:04d}",
                    payload(rng, int(t)),
                    arrival_us=float(a),
                    deadline_us=(float(a + rng.uniform(5.0, 400.0))
                                 if rng.random() < 0.5 else None),
                    priority_class=int(rng.integers(0, 4)),
                )
                for i, (t, a) in enumerate(zip(lengths, arrivals))
            ]
            mirror = {}
            #: per rung: holder id -> the held request (None: outside holder)
            held = {}
            cadence = float(rng.uniform(20.0, 120.0))
            now, i, steps = 0.0, 0, 0
            while (i < len(reqs) or batcher.pending) and steps < 10_000:
                steps += 1
                before = len(batcher.expired_log)
                while i < len(reqs) and reqs[i].arrival_us <= now:
                    request = reqs[i]
                    i += 1
                    if batcher.submit(request) is not None:
                        mirror[request.request_id] = request
                for evicted in batcher.expired_log[before:]:
                    mirror.pop(evicted.request_id, None)
                # Slot churn: releases (a released holder returns its KV
                # reservation) and outside acquisitions.
                for key in list(held):
                    for rid in list(held[key]):
                        if rng.random() < 0.25:
                            batcher.release_slot(key, rid)
                            del held[key][rid]
                            batcher.release_kv(rid)
                    if not held[key]:
                        del held[key]
                if i < len(reqs) and rng.random() < 0.3:
                    outside = Request(
                        f"hold-{steps:05d}",
                        reqs[int(rng.integers(n))].activations,
                        priority_class=int(rng.integers(0, 4)),
                    )
                    key = batcher.bucket_key(outside)
                    batcher.acquire_slot(key, outside)
                    held.setdefault(key, {})[outside.request_id] = None
                for expired in batcher.expire_due(now):
                    mirror.pop(expired.request_id)
                reference = plan_slo_batch_reference(
                    [r for r in mirror.values() if r.arrival_us <= now],
                    key_of=batcher.bucket_key,
                    arrival_of=lambda r: r.arrival_us,
                    id_of=lambda r: r.request_id,
                    max_batch_size=batcher.max_batch_size,
                    class_of=lambda r: r.priority_class,
                    deadline_of=lambda r: r.deadline_us,
                    policy=scheduling.policy,
                    capacity_of=lambda k: batcher.max_batch_size - len(held.get(k, ())),
                    window_us=window_us,
                    now_us=now,
                    need_of=batcher._kv_cost_of,
                    kv_room=(
                        None
                        if batcher.kv_budget_blocks is None
                        else batcher.kv_budget_blocks - batcher.kv_reserved
                    ),
                )
                batch = batcher.next_batch(now)
                if reference is None:
                    assert batch is None
                    event = batcher.next_event_us()
                    assert event is None or event > now
                else:
                    ref_key, ref_chunk = reference
                    assert batch is not None
                    assert batch.key == ref_key
                    assert [r.request_id for r in batch.requests] == [
                        r.request_id for r in ref_chunk
                    ]
                    for r in batch.requests:
                        mirror.pop(r.request_id)
                        if rng.random() < 0.5:  # becomes a multi-step resident
                            batcher.acquire_slot(batch.key, r)
                            held.setdefault(batch.key, {})[r.request_id] = r
                        else:
                            batcher.release_kv(r.request_id)
                assert batcher.admission_stats()["occupied_slots"] == sum(
                    len(holders) for holders in held.values()
                )
                if batch is None and i < len(reqs):
                    now = max(now + cadence, reqs[i].arrival_us)
                else:
                    now += cadence
            assert steps < 10_000, "scheduler failed to drain the schedule"
            assert not mirror and batcher.pending == 0

    @pytest.mark.parametrize(
        "policy, window_us, kv_budget",
        [
            pytest.param(policy, window, budget, id=f"{policy}-{window}" + ("-kv-budget" if budget else ""))
            for policy in ("fcfs", "priority")
            for window in (0.0, 150.0)
            for budget in (None, 4)
        ],
    )
    def test_idle_step_moves_next_event_past_now(self, rng, policy, window_us, kv_budget):
        """An idle step never leaves the clock stuck: once ``next_batch``
        finds nothing at ``now``, ``next_event_us()`` is strictly later
        (``None`` only while every queued rung is fully held or KV-cut until
        a release) and a batch is schedulable at exactly that instant, but
        at no earlier arrival or hold opening.

        Regression (KV budget, ``"priority"``): a class's EDF head was
        ranked over the whole bucket, arrived or not, so a tight deadline
        arriving later hid a fitting head that had arrived earlier, and the
        event overshot an instant at which a batch was already planned."""
        for _ in range(3):
            batcher = ContinuousBatcher.ladder(
                max_batch_size=3,
                window_us=window_us,
                scheduling=SchedulingConfig(policy=policy),
                kv_budget_blocks=kv_budget,
                kv_cost=lambda r: 1 + r.tokens % 4,
            )
            reqs = []
            for i in range(24):
                arrival = float(rng.uniform(0.0, 1000.0))
                deadline = arrival + float(rng.uniform(0.0, 2000.0)) if rng.random() < 0.5 else None
                reqs.append(
                    Request(
                        f"ev-{i:04d}",
                        payload(rng, int(rng.integers(1, 20))),
                        arrival_us=arrival,
                        deadline_us=deadline,
                        priority_class=int(rng.integers(0, 3)),
                    )
                )
            batcher.submit_many(reqs)  # pre-queued, arrivals in the future
            held = []
            reserved = []
            now, steps = 0.0, 0
            while batcher.pending and steps < 1_000:
                steps += 1
                if rng.random() < 0.2:
                    outside = Request(f"hold-{steps:04d}", reqs[int(rng.integers(24))].activations)
                    key = batcher.bucket_key(outside)
                    if batcher.occupied_slots(key) < batcher.max_batch_size:
                        batcher.acquire_slot(key, outside)
                        held.append((key, outside.request_id))
                if held and rng.random() < 0.2:
                    batcher.release_slot(*held.pop(0))
                if reserved and rng.random() < 0.3:
                    batcher.release_kv(reserved.pop(0))
                batch = batcher.next_batch(now)
                if batch is not None:
                    reserved.extend(r.request_id for r in batch.requests)
                    now += float(rng.uniform(0.0, 60.0))
                    continue
                event = batcher.next_event_us()
                if event is None:  # every queued rung is fully held or KV-cut
                    if reserved:
                        batcher.release_kv(reserved.pop(0))
                    else:
                        batcher.release_slot(*held.pop(0))
                    continue
                assert event > now
                queued = [r for r in reqs if batcher.is_queued(r.request_id)]
                candidates = {r.arrival_us for r in queued} | {
                    r.arrival_us + window_us for r in queued
                }
                for instant in sorted(t for t in candidates if now < t < event):
                    assert batcher._plan(instant) is None, (instant, event)
                batch = batcher.next_batch(event)
                assert batch is not None
                reserved.extend(r.request_id for r in batch.requests)
                now = event
            assert batcher.pending == 0

    def test_a_later_tighter_deadline_does_not_postpone_a_fitting_head(self, rng):
        """Regression: under ``"priority"`` with a KV budget the event ranked
        each class's EDF head over the whole bucket, so ``b`` (arriving at
        2.0 with a deadline) hid ``a``, schedulable alone from 1.0."""
        batcher = ContinuousBatcher.ladder(
            scheduling=SchedulingConfig(policy="priority"),
            kv_budget_blocks=10,
            kv_cost=lambda r: 1,
        )
        batcher.submit(Request("a", payload(rng, 4), arrival_us=1.0))
        batcher.submit(Request("b", payload(rng, 4), arrival_us=2.0, deadline_us=5.0))
        assert batcher.next_event_us() == 1.0
        assert [r.request_id for r in batcher.next_batch(1.0).requests] == ["a"]

    def test_kv_cut_is_strict_within_a_bucket(self, rng):
        """FCFS: a head whose footprint does not fit holds its whole bucket,
        even when a later member would fit, and only a release opens it."""
        batcher = ContinuousBatcher.ladder(kv_budget_blocks=4, kv_cost=lambda r: r.tokens // 2)
        # One rung; footprints of 3, 2 and 1 blocks.
        batcher.submit(Request("big", payload(rng, 6), arrival_us=0.0))
        batcher.submit(Request("wide", payload(rng, 4), arrival_us=1.0))
        batcher.submit(Request("narrow", payload(rng, 2), arrival_us=2.0))
        assert [r.request_id for r in batcher.next_batch(0.0).requests] == ["big"]
        # One block left: "narrow" would fit, but "wide" heads the bucket.
        assert batcher.next_batch(5.0) is None
        assert batcher.next_event_us() is None
        batcher.release_kv("big")
        assert [r.request_id for r in batcher.next_batch(5.0).requests] == ["wide", "narrow"]

    def test_kv_cut_drops_a_class_under_priority(self, rng):
        """Priority: a class none of whose chunks fits the KV room drops out
        of the arbitration, and the next class runs."""
        batcher = ContinuousBatcher.ladder(
            scheduling=SchedulingConfig(policy="priority"),
            kv_budget_blocks=4,
            kv_cost=lambda r: r.tokens // 2,
        )
        batcher.submit(Request("hold", payload(rng, 4)))  # 2 blocks, scheduled below
        assert [r.request_id for r in batcher.next_batch(0.0).requests] == ["hold"]
        batcher.submit(Request("high", payload(rng, 6), priority_class=1))  # 3 blocks
        batcher.submit(Request("low", payload(rng, 2)))  # 1 block
        assert [r.request_id for r in batcher.next_batch(0.0).requests] == ["low"]
        assert batcher.next_batch(0.0) is None
        batcher.release_kv("hold")
        assert [r.request_id for r in batcher.next_batch(0.0).requests] == ["high"]

    def test_scheduled_chunks_keep_their_kv_reservation(self, rng):
        """Leaving the queue to execute reserves the KV footprint, and only
        ``release_kv`` returns it (a queued request holds none)."""
        batcher = ContinuousBatcher.ladder(
            scheduling=SchedulingConfig(policy="priority"),
            kv_budget_blocks=10,
            kv_cost=lambda r: 2,
        )
        batcher.submit(Request("kv-0", payload(rng, 5), priority_class=1))
        assert batcher.kv_reserved == 0
        batch = batcher.next_batch(0.0)
        assert [r.request_id for r in batch.requests] == ["kv-0"]
        assert batcher.kv_reserved == 2  # held by the executing request
        assert batcher.release_kv("kv-0") == 2
        assert batcher.kv_reserved == 0


class TestPerClassAdmission:
    def test_class_bound_sheds_only_that_class(self, rng):
        scheduling = SchedulingConfig(policy="priority", class_weights=(1, 3))
        batcher = ContinuousBatcher.ladder(scheduling=scheduling, max_queue_depth=4)
        assert batcher.submit(Request("low-0", payload(rng, 5))) is not None
        assert batcher.submit(Request("low-1", payload(rng, 5))) is None  # bound 1
        assert batcher.submit(
            Request("high-0", payload(rng, 5), priority_class=1)
        ) is not None
        assert batcher.submit(
            Request("high-1", payload(rng, 5), priority_class=1)
        ) is not None
        per_class = batcher.per_class_stats()
        assert per_class[0] == {"shed": 1, "expired": 0, "pending": 1}
        assert per_class[1] == {"shed": 0, "expired": 0, "pending": 2}
        assert batcher.total_shed == 1

    def test_weight_derived_bounds_split_the_global_depth(self, rng):
        scheduling = SchedulingConfig(class_weights=(1, 3))
        batcher = ContinuousBatcher.ladder(
            scheduling=scheduling, max_queue_depth=4
        )
        assert batcher.class_queue_bound(0) == 1
        assert batcher.class_queue_bound(1) == 3
        assert batcher.submit(Request("c0-a", payload(rng, 5))) is not None
        # Class 0's derived share is exhausted even though the global queue
        # has room.
        assert batcher.submit(Request("c0-b", payload(rng, 5))) is None
        assert batcher.submit(
            Request("c1-a", payload(rng, 5), priority_class=1)
        ) is not None

    def test_admission_stats_carry_policy_and_per_class(self, rng):
        batcher = ContinuousBatcher.ladder(
            scheduling=SchedulingConfig(policy="priority", class_weights=(1, 2))
        )
        batcher.submit(Request("r0", payload(rng, 5), priority_class=1))
        stats = batcher.admission_stats()
        assert stats["policy"] == "priority"
        assert stats["per_class"] == {
            0: {"shed": 0, "expired": 0, "pending": 0},
            1: {"shed": 0, "expired": 0, "pending": 1},
        }


class TestTrafficModels:
    def test_generators_replay_identically_from_seed(self):
        kwargs = dict(num_requests=40, tokens=[4, 9], deadline_after_us=500.0)
        assert bursty_arrivals(
            base_rate_rps=1e3, burst_rate_rps=1e4, seed=7, **kwargs
        ) == bursty_arrivals(base_rate_rps=1e3, burst_rate_rps=1e4, seed=7, **kwargs)
        assert pareto_lengths(64, seed=7) == pareto_lengths(64, seed=7)
        # A different seed actually changes the draw.
        assert bursty_arrivals(
            base_rate_rps=1e3, burst_rate_rps=1e4, seed=8, **kwargs
        ) != bursty_arrivals(base_rate_rps=1e3, burst_rate_rps=1e4, seed=7, **kwargs)

    def test_streams_are_stamped_and_ordered(self):
        stream = bursty_arrivals(
            30, base_rate_rps=2e3, burst_rate_rps=2e4, tokens=[3, 8],
            seed=1, deadline_after_us=250.0, prefix="t", priority_class=2,
        )
        assert len(stream) == 30
        assert len({r.request_id for r in stream}) == 30
        arrivals = [r.arrival_us for r in stream]
        assert arrivals == sorted(arrivals)
        for i, req in enumerate(stream):
            assert req.priority_class == 2
            assert req.tokens == [3, 8][i % 2]
            assert req.deadline_us == pytest.approx(req.arrival_us + 250.0)

    def test_pareto_lengths_respect_bounds(self):
        lengths = pareto_lengths(256, alpha=1.2, min_tokens=4, max_tokens=64, seed=5)
        assert len(lengths) == 256
        assert min(lengths) >= 4 and max(lengths) <= 64

    def test_merge_sorts_and_rejects_duplicate_ids(self):
        a = bursty_arrivals(5, base_rate_rps=1e3, burst_rate_rps=1e4,
                            tokens=[4], seed=1, prefix="a")
        b = bursty_arrivals(5, base_rate_rps=1e3, burst_rate_rps=1e4,
                            tokens=[4], seed=2, prefix="b", priority_class=1)
        merged = merge_arrivals(a, b)
        assert len(merged) == 10
        order = [(r.arrival_us, r.request_id) for r in merged]
        assert order == sorted(order)
        with pytest.raises(ValueError, match="duplicate"):
            merge_arrivals(a, a)

    @pytest.mark.parametrize(
        "factory,kwargs",
        [
            (bursty_arrivals, {"base_rate_rps": 0.0, "burst_rate_rps": 1e3}),
            (bursty_arrivals, {"base_rate_rps": 1e3, "burst_rate_rps": 1e4,
                               "mean_dwell_us": 0.0}),
        ],
    )
    def test_generator_validation(self, factory, kwargs):
        with pytest.raises(ValueError):
            factory(num_requests=4, tokens=[4], **kwargs)

    def test_pareto_validation(self):
        with pytest.raises(ValueError):
            pareto_lengths(4, alpha=0.0)
        with pytest.raises(ValueError):
            pareto_lengths(4, min_tokens=8, max_tokens=4)

    @pytest.mark.slow
    def test_bursty_statistics(self):
        """MMPP sanity at scale: the realized mean rate sits between the two
        state rates, and windowed counts are over-dispersed relative to a
        plain Poisson stream (index of dispersion > 1)."""
        base, burst = 1_000.0, 20_000.0
        stream = bursty_arrivals(
            4000, base_rate_rps=base, burst_rate_rps=burst, tokens=[4],
            mean_dwell_us=20_000.0, seed=11,
        )
        span_s = stream[-1].arrival_us * 1e-6
        realized = len(stream) / span_s
        assert base < realized < burst
        window_us = 5_000.0
        counts = np.bincount(
            [int(r.arrival_us // window_us) for r in stream]
        )
        dispersion = counts.var() / counts.mean()
        assert dispersion > 1.5, f"MMPP counts look Poisson (D={dispersion:.2f})"

    @pytest.mark.slow
    def test_pareto_tail_is_heavy(self):
        """Smaller alpha = heavier tail: the alpha=1.1 draw pushes a larger
        fraction of mass to the clip ceiling than alpha=3.0."""
        heavy = pareto_lengths(4000, alpha=1.1, min_tokens=4, max_tokens=512, seed=3)
        light = pareto_lengths(4000, alpha=3.0, min_tokens=4, max_tokens=512, seed=3)
        frac_heavy = sum(1 for t in heavy if t >= 64) / len(heavy)
        frac_light = sum(1 for t in light if t >= 64) / len(light)
        assert frac_heavy > 2 * frac_light
        assert np.mean(heavy) > np.mean(light)


def two_tenant_overload():
    """The ISSUE's acceptance trace: seeded bursty two-tenant overload."""
    lengths = pareto_lengths(160, alpha=1.5, min_tokens=4, max_tokens=64, seed=3)
    low = bursty_arrivals(
        160, base_rate_rps=50_000.0, burst_rate_rps=2_000_000.0, tokens=lengths,
        seed=1, deadline_after_us=300.0, prefix="low", priority_class=0,
    )
    high = bursty_arrivals(
        40, base_rate_rps=20_000.0, burst_rate_rps=500_000.0, tokens=[8, 16],
        seed=2, deadline_after_us=300.0, prefix="high", priority_class=1,
    )
    return merge_arrivals(low, high)


class TestSimulatorMatchesLiveEngine:
    """The simulator schedules on the engines' own ``ContinuousBatcher``, so
    a live engine stepped at the simulator's step instants must run the
    identical chunk sequence and shed the identical requests."""

    @pytest.mark.parametrize(
        "scheduling",
        [
            SchedulingConfig(),
            SchedulingConfig(policy="priority", class_weights=(1, 4)),
        ],
        ids=lambda s: s.policy,
    )
    def test_chunk_sequence_and_sheds_agree(self, encoder, rng, scheduling):
        trace = merge_arrivals(
            bursty_arrivals(
                90, base_rate_rps=50_000.0, burst_rate_rps=2_000_000.0,
                tokens=pareto_lengths(90, min_tokens=4, max_tokens=64, seed=3),
                seed=1, prefix="low", priority_class=0,
            ),
            bursty_arrivals(
                30, base_rate_rps=20_000.0, burst_rate_rps=500_000.0,
                tokens=[8, 16], seed=2, prefix="high", priority_class=1,
            ),
        )
        config = ServingConfig(
            scheduling="continuous", padding="ladder", max_queue_depth=6,
            scheduling_policy=scheduling,
        )
        requests = [
            Request(
                sim.request_id,
                rng.normal(size=(sim.tokens, HIDDEN)).astype(np.float32),
                arrival_us=sim.arrival_us,
                priority_class=sim.priority_class,
            )
            for sim in trace
        ]
        modelled = ModelledEngine(encoder, config)
        modelled.serve_continuous(requests)
        steps = {}
        for rid, record in modelled.completions.items():
            steps.setdefault(record.step, (record.completed_us, record.rung, record.batch_size, []))[3].append(rid)
        simulated = [(rung, size, sorted(ids)) for _, (_, rung, size, ids) in sorted(steps.items())]
        outcomes = {rid: o.status for rid, o in modelled.outcomes.items()}
        assert list(outcomes.values()).count("shed") > 0  # the bound genuinely bites

        engine = create_engine(encoder, config)
        live = []
        submitted = 0
        for _, (now_us, _, _, _) in sorted(steps.items()):
            while submitted < len(requests) and requests[submitted].arrival_us <= now_us:
                engine.submit(requests[submitted])
                submitted += 1
            ran = sorted(engine.step(now_us))
            record = engine.completions[ran[0]]
            live.append((record.rung, record.batch_size, ran))
        assert submitted == len(trace) and engine.batcher.pending == 0
        assert live == simulated
        assert {rid: o.status for rid, o in engine.outcomes.items()} == outcomes


class TestSimulateSLO:
    CONFIG = ServingConfig(padding="ladder", max_queue_depth=24, shed_policy="drop-expired")
    PRIORITY = replace(
        CONFIG, scheduling_policy=SchedulingConfig(policy="priority", class_weights=(1, 4))
    )

    def test_priority_beats_fcfs_for_the_high_class(self, encoder):
        """The acceptance criterion: under the seeded bursty two-tenant
        overload, strict priority puts the high class's p99 strictly below
        FCFS's, and shed/violations concentrate in the low class."""
        trace = two_tenant_overload()
        fcfs = simulate(encoder, trace, self.CONFIG)
        prio = simulate(encoder, trace, self.PRIORITY)
        f, p = fcfs.per_class(), prio.per_class()
        assert p[1]["p99_latency_us"] < f[1]["p99_latency_us"]
        assert p[1]["violation_rate"] <= p[0]["violation_rate"]
        assert p[1]["shed_rate"] <= p[0]["shed_rate"]
        assert p[0]["shed"] + p[1]["shed"] > 0  # genuinely overloaded

    def test_replays_identically(self, encoder):
        trace = two_tenant_overload()
        runs = [simulate(encoder, trace, self.PRIORITY) for _ in range(2)]
        assert runs[0].outcomes == runs[1].outcomes
        assert runs[0].latencies_us == runs[1].latencies_us
        assert runs[0].summary() == runs[1].summary()

    def test_per_class_block_is_normalized(self, encoder):
        """Configured-but-unused classes appear with zeroed counts and NaN
        percentiles — never silently missing, never fake 0.0 latencies."""
        reqs = [SimulatedRequest("only-0", tokens=8)]
        report = simulate(
            encoder, reqs,
            ServingConfig(padding="ladder", scheduling_policy=SchedulingConfig(class_weights=(1, 1, 1))),
        )
        per_class = report.per_class()
        assert set(per_class) == {0, 1, 2}
        for cls in (1, 2):
            assert per_class[cls]["requests"] == 0
            assert per_class[cls]["ok"] == 0
            assert np.isnan(per_class[cls]["p99_latency_us"])
        assert per_class[0]["ok"] == 1
        assert not np.isnan(per_class[0]["p99_latency_us"])

    def test_brownout_sweep_degrades_monotonically_in_sheds(self, encoder):
        trace = two_tenant_overload()
        reports = [
            simulate(encoder, compress_arrivals(trace, factor), self.PRIORITY)
            for factor in [0.5, 1.0, 2.0, 4.0]
        ]
        sheds = [r.shed_rate for r in reports]
        assert sheds == sorted(sheds)
        assert reports[-1].shed_rate > reports[0].shed_rate
        assert reports[0].availability > reports[-1].availability
        # Brownout keeps the high class protected at every load level.
        for report in reports:
            per_class = report.per_class()
            assert per_class[1]["shed_rate"] <= per_class[0]["shed_rate"]

    def test_per_class_queue_bounds_shed_only_that_class(self, encoder):
        reqs = merge_arrivals(
            [SimulatedRequest(f"l-{i}", tokens=8, arrival_us=0.0) for i in range(6)],
            [
                SimulatedRequest(f"h-{i}", tokens=8, arrival_us=0.0, priority_class=1)
                for i in range(4)
            ],
        )
        report = simulate(
            encoder, reqs,
            ServingConfig(
                padding="ladder",
                max_queue_depth=6,
                scheduling_policy=SchedulingConfig(policy="priority", class_weights=(1, 2)),
            ),
        )
        per_class = report.per_class()
        assert per_class[0]["shed"] == 4  # 6 offered, bound ceil(6 * 1/3) = 2
        assert per_class[1]["shed"] == 0

    def test_validation(self, encoder):
        reqs = [SimulatedRequest("v-0", tokens=4)]
        with pytest.raises(ValueError, match="load_factor"):
            compress_arrivals(reqs, 0.0)
        with pytest.raises(ValueError, match="non-empty"):
            simulate(encoder, [])

    def test_compress_arrivals_keeps_deadline_offsets(self):
        reqs = [
            SimulatedRequest("c-0", tokens=4, arrival_us=100.0, deadline_us=400.0),
            SimulatedRequest("c-1", tokens=4, arrival_us=300.0),
        ]
        assert compress_arrivals(reqs, 1.0) == reqs
        doubled = compress_arrivals(reqs, 2.0)
        assert [r.arrival_us for r in doubled] == [50.0, 150.0]
        assert [r.deadline_us for r in doubled] == [350.0, None]

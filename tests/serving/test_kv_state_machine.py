"""The serving engines' outcome and resource machines, model-checked.

Hypothesis rule-based state machines each drive one engine through
arbitrary interleavings of submits (some deadline-stamped, some with a
priority class), clock advances without a step, steps, and a backend fault
on one dispatched call of a step, under either scheduling policy.  Both
machines share the outcome checks, after every rule:

- no request is in two of {queued, resident, terminal}, and after a step
  every submitted request is in exactly one;
- no request is ever given a second outcome;
- a step returns an output for exactly the requests it records ``ok``,
  and each is bit-equal to its fault-free oracle;
- a step at ``now`` times out every queued request whose deadline is
  before ``now`` (deadlines are judged before execution, so a resident
  decodes to completion);

and teardown steps the engine until every submitted request has exactly
one terminal outcome.

:class:`DecoderKVMachine` serves :class:`~repro.serving.DecoderServingEngine`
over a tiny :class:`~repro.models.PagedKVCache`, adding shared-prompt
submits (prefix attach and copy-on-write) and the stacked step's rollback
and per-resident fallback under a fault.  It also checks:

- block conservation: ``blocks_free + |held| == capacity``, and each
  block's refcount equals its holder count (live sequences plus registered
  prefixes — vLLM's block-manager invariants);
- the cache's live sequences are exactly the residents;
- rung-slot and KV-budget conservation on the batcher;
- KV exhaustion defers: under a budget that fits the cache the pool never
  runs dry and nothing is shed, a request waits in the queue until its
  footprint fits the blocks in-flight decodes have not reserved, and only
  one larger than the whole budget fails (at submit); reservations are
  held by residents alone;
- its oracle is the per-position ``forward_step`` over the reference
  :class:`~repro.models.SequenceKV` (which is defined to equal
  :func:`~repro.serving.decode_reference`).

:class:`EncoderMachine` serves :class:`~repro.serving.ModelServingEngine`
behind a small ``max_queue_depth``, so both shed policies run, and checks
queue conservation; its oracle is ``encoder.forward(x[None])[0]``.

Tier-1 runs a few examples of each; ``-m slow`` runs the large search.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.integration import VNMSparsifier, sparsify_encoder
from repro.kernels.dispatch import BackendExecutionError
from repro.models import TransformerEncoder, tiny_config
from repro.serving import (
    OUTCOME_OK,
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
)
from repro.serving.continuous import SCHEDULING_POLICIES, SHED_POLICIES

HIDDEN, HEADS = 32, 2


def _encoder():
    cfg = tiny_config(
        hidden_size=HIDDEN, num_layers=2, num_heads=HEADS, intermediate_size=2 * HIDDEN
    )
    encoder = TransformerEncoder.init(cfg, seed=7)
    sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
    return encoder


#: Served by every machine in turn (each engine re-routes it to its own
#: dispatcher); the oracle runs on an identical, separately built twin.
SERVED, ORACLE = _encoder(), _encoder()
SHARED_PROMPTS = [
    np.random.default_rng([31, i]).normal(size=(n, HIDDEN)).astype(np.float32)
    for i, n in enumerate((3, 5, 8))
]
_ORACLE_ROWS = {}


def oracle_rows(prompt, new_tokens):
    """Per-position ``forward_step`` over the reference store, memoized."""
    key = prompt.tobytes()
    rows = _ORACLE_ROWS.get(key)
    if rows is None or rows.shape[0] < new_tokens:
        kv = ORACLE.new_sequence_kv()
        for t in range(prompt.shape[0]):
            feed = ORACLE.forward_step(prompt[t][None], kv)
        generated = []
        for _ in range(max(new_tokens, 4)):
            feed = ORACLE.forward_step(feed, kv)
            generated.append(feed[0].copy())
        rows = _ORACLE_ROWS[key] = np.stack(generated)
    return rows[:new_tokens]


def _payload(seed, tokens):
    return np.random.default_rng(seed).normal(size=(tokens, HIDDEN)).astype(np.float32)


class _OutcomeMachine(RuleBasedStateMachine):
    """The outcome checks every engine's machine shares.

    A subclass builds its engine in an ``@initialize`` rule and passes it
    to :meth:`_watch`; it says how to submit (:meth:`_submit`) and what an
    ``ok`` output must equal (:meth:`_expected`).
    """

    def _watch(self, engine):
        self.engine = engine
        self.submitted = {}
        #: Submitted requests with no state yet: admission control shed,
        #: refused or evicted them, and their outcome lands at the next step.
        self.unrecorded = set()
        self.recorded = Counter()
        self.now = 0.0

        record = engine._record_outcome

        def spy(request_id, *args, **kwargs):
            self.recorded[request_id] += 1
            record(request_id, *args, **kwargs)

        engine._record_outcome = spy

    def _submit(self, request):
        self.submitted[request.request_id] = request
        self.engine.submit(request)
        self.unrecorded = {rid for rid in self.submitted if not any(self._states(rid))}

    def _expected(self, request):
        raise NotImplementedError

    @rule(dt=st.integers(1, 8))
    def advance_clock(self, dt):
        """Time passes with no step: the next step expires what waited too long."""
        self.now += float(dt)

    def _step(self):
        engine = self.engine
        overdue = [
            rid
            for rid, request in self.submitted.items()
            if request.deadline_us is not None
            and request.deadline_us < self.now
            and engine.batcher.is_queued(rid)
        ]
        before = set(engine.outcomes)
        results = engine.step(self.now)
        self.now += 1.0
        self.unrecorded.clear()
        ok_now = {
            rid for rid, o in engine.outcomes.items() if rid not in before and o.status == OUTCOME_OK
        }
        assert ok_now == set(results)
        for rid, rows in results.items():
            assert rows.tobytes() == self._expected(self.submitted[rid]).tobytes(), rid
        for rid in overdue:
            assert engine.outcomes[rid].status == OUTCOME_TIMED_OUT, rid
        for rid in self.submitted:
            assert sum(self._states(rid)) == 1, rid

    @rule()
    def step(self):
        self._step()

    @invariant()
    def no_request_in_two_states(self):
        for rid in self.submitted:
            assert sum(self._states(rid)) <= 1, rid

    @invariant()
    def no_second_outcome(self):
        assert all(count == 1 for count in self.recorded.values())

    def _states(self, rid):
        engine = self.engine
        return (
            engine.batcher.is_queued(rid),
            rid in engine._residents,
            rid in engine.outcomes,
        )

    def _check_released(self):
        """What must be free once every request has its outcome."""

    def teardown(self):
        engine = getattr(self, "engine", None)
        if engine is None:
            return
        for _ in range(500):
            if not (engine.batcher.pending or engine._residents or self.unrecorded):
                break
            self._step()
        assert sorted(engine.outcomes) == sorted(self.submitted)
        assert sorted(self.recorded) == sorted(self.submitted)
        self.no_second_outcome()
        self._check_released()


class DecoderKVMachine(_OutcomeMachine):
    @initialize(
        block_size=st.sampled_from([2, 4]),
        capacity_blocks=st.integers(3, 20),
        budgeted=st.booleans(),
        policy=st.sampled_from(SCHEDULING_POLICIES),
        max_batch_size=st.integers(1, 3),
    )
    def build(self, block_size, capacity_blocks, budgeted, policy, max_batch_size):
        self._watch(
            DecoderServingEngine(
                SERVED,
                config=ServingConfig(
                    block_size=block_size,
                    capacity_blocks=capacity_blocks,
                    kv_budget_blocks=capacity_blocks if budgeted else None,
                    max_batch_size=max_batch_size,
                    warm=False,
                    scheduling_policy=SchedulingConfig(policy=policy),
                ),
            )
        )
        self.calls = 0
        self.fail_at = None

        dispatcher = self.engine.dispatcher
        execute = dispatcher.execute

        def faulty_execute(*args, **kwargs):
            call = self.calls
            self.calls += 1
            if call == self.fail_at:
                raise BackendExecutionError(f"injected fault (dispatched call {call})")
            return execute(*args, **kwargs)

        dispatcher.execute = faulty_execute

    # -- rules -------------------------------------------------------------

    def _submit_decode(self, prompt, new_tokens, priority_class, deadline_us=None):
        self._submit(
            DecodeRequest(
                f"r{len(self.submitted):03d}",
                prompt,
                new_tokens,
                arrival_us=self.now,
                deadline_us=deadline_us,
                priority_class=priority_class,
            )
        )

    def _expected(self, request):
        return oracle_rows(request.prompt, request.new_tokens)

    @rule(
        seed=st.integers(0, 2**16),
        tokens=st.integers(1, 9),
        new_tokens=st.integers(1, 4),
        priority_class=st.integers(0, 1),
        slack=st.none() | st.integers(0, 6),
    )
    def submit_unique(self, seed, tokens, new_tokens, priority_class, slack):
        """A fresh prompt, deadline-stamped at ``now + slack`` unless ``slack`` is None."""
        deadline_us = None if slack is None else self.now + slack
        self._submit_decode(_payload(seed, tokens), new_tokens, priority_class, deadline_us)

    @rule(
        which=st.integers(0, len(SHARED_PROMPTS) - 1),
        new_tokens=st.integers(1, 4),
        priority_class=st.integers(0, 1),
    )
    def submit_shared(self, which, new_tokens, priority_class):
        self._submit_decode(SHARED_PROMPTS[which], new_tokens, priority_class)

    @rule(call=st.integers(0, 40))
    def step_with_fault(self, call):
        """Fail the ``call``-th dispatched projection of the next step."""
        self.fail_at = self.calls + call
        try:
            self._step()
        finally:
            self.fail_at = None

    # -- invariants --------------------------------------------------------

    @invariant()
    def blocks_are_conserved(self):
        kv = self.engine.kv
        holders = Counter()
        for sequence in kv._sequences.values():
            holders.update(sequence.block_ids)
        for entry in kv._prefixes.values():
            holders.update(entry.block_ids)
        assert kv.blocks_free + len(holders) == kv.capacity_blocks
        assert not set(kv._free) & set(holders)
        for block_id in range(kv.capacity_blocks):
            assert kv._refcount[block_id] == holders[block_id], block_id

    @invariant()
    def live_sequences_are_residents(self):
        assert set(self.engine.kv._sequences) == set(self.engine._residents)

    @invariant()
    def slots_and_budget_are_conserved(self):
        batcher = self.engine.batcher
        assert batcher.admission_stats()["occupied_slots"] == len(self.engine._residents)
        assert batcher.kv_reserved == sum(batcher._kv_cost_by_id.values())
        assert not set(batcher._kv_cost_by_id) & set(self.engine.outcomes)

    @invariant()
    def kv_exhaustion_defers(self):
        engine, batcher = self.engine, self.engine.batcher
        assert batcher.kv_budget_blocks <= engine.kv.capacity_blocks
        assert batcher.kv_reserved <= batcher.kv_budget_blocks
        assert set(batcher._kv_cost_by_id) == set(engine._residents)
        for rid, outcome in engine.outcomes.items():
            assert outcome.status != OUTCOME_SHED, rid
            assert "KV cache exhausted" not in outcome.detail, rid
            request = self.submitted[rid]
            tokens = request.prompt.shape[0] + request.new_tokens
            footprint = -(-tokens // engine.config.block_size)
            oversized = footprint > batcher.kv_budget_blocks
            assert oversized == ("exceeds the budget" in outcome.detail), rid

    def _check_released(self):
        engine = self.engine
        cache = engine.cache_stats()
        assert cache["sequences"] == 0
        prefix_blocks = {b for e in engine.kv._prefixes.values() for b in e.block_ids}
        assert cache["blocks_in_use"] == len(prefix_blocks)
        assert engine.batcher.kv_reserved == 0
        assert engine.stats()["admission"]["occupied_slots"] == 0


class EncoderMachine(_OutcomeMachine):
    @initialize(
        padding=st.sampled_from(["exact", "ladder"]),
        policy=st.sampled_from(SCHEDULING_POLICIES),
        class_bounds=st.booleans(),
        max_queue_depth=st.integers(1, 4),
        shed_policy=st.sampled_from(SHED_POLICIES),
        max_batch_size=st.integers(1, 3),
        window_us=st.sampled_from([0.0, 3.0]),
    )
    def build(
        self, padding, policy, class_bounds, max_queue_depth, shed_policy, max_batch_size, window_us
    ):
        self._watch(
            ModelServingEngine(
                SERVED,
                config=ServingConfig(
                    scheduling="async" if window_us else "continuous",
                    window_us=window_us,
                    padding=padding,
                    max_batch_size=max_batch_size,
                    max_queue_depth=max_queue_depth,
                    shed_policy=shed_policy,
                    warm=False,
                    scheduling_policy=SchedulingConfig(
                        policy=policy, class_weights=(1, 2) if class_bounds else ()
                    ),
                ),
            )
        )
        self.backends = [backend.name for backend in self.engine.dispatcher.backends]

    def _expected(self, request):
        return ORACLE.forward(request.activations[None])[0]

    @rule(
        seed=st.integers(0, 2**16),
        tokens=st.integers(1, 9),
        priority_class=st.integers(0, 1),
        slack=st.none() | st.integers(0, 6),
    )
    def submit(self, seed, tokens, priority_class, slack):
        """A fresh payload, deadline-stamped at ``now + slack`` unless ``slack`` is None."""
        self._submit(
            Request(
                f"r{len(self.submitted):03d}",
                _payload(seed, tokens),
                arrival_us=self.now,
                deadline_us=None if slack is None else self.now + slack,
                priority_class=priority_class,
            )
        )

    @rule(call=st.integers(0, 3))
    def step_with_fault(self, call):
        """Every backend fails its ``call``-th execute of the next step."""
        plan = FaultPlan([FaultSpec(backend=name, kind="transient", at_call=call) for name in self.backends])
        injector = FaultInjector(plan).arm(self.engine.dispatcher)
        try:
            self._step()
        finally:
            injector.disarm(self.engine.dispatcher)

    @invariant()
    def queue_is_conserved(self):
        batcher = self.engine.batcher
        queued = [rid for rid in self.submitted if batcher.is_queued(rid)]
        assert batcher.pending == len(queued)
        per_class = batcher.per_class_stats()
        assert sum(counts["pending"] for counts in per_class.values()) == batcher.pending
        assert batcher.pending <= batcher.max_queue_depth
        for cls, counts in per_class.items():
            bound = batcher.class_queue_bound(cls)
            assert bound is None or counts["pending"] <= bound, cls


_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestDecoderKVMachine(DecoderKVMachine.TestCase):
    settings = settings(max_examples=12, stateful_step_count=20, **_SETTINGS)


@pytest.mark.slow
class TestDecoderKVMachineLarge(DecoderKVMachine.TestCase):
    settings = settings(max_examples=300, stateful_step_count=40, **_SETTINGS)


class TestEncoderMachine(EncoderMachine.TestCase):
    settings = settings(max_examples=12, stateful_step_count=20, **_SETTINGS)


@pytest.mark.slow
class TestEncoderMachineLarge(EncoderMachine.TestCase):
    settings = settings(max_examples=300, stateful_step_count=40, **_SETTINGS)

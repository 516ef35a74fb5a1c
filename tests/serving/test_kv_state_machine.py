"""The decode engine's KV resource machine, model-checked.

A Hypothesis ``RuleBasedStateMachine`` drives one
:class:`~repro.serving.DecoderServingEngine` over a tiny
:class:`~repro.models.PagedKVCache` through arbitrary interleavings of
unique submits (some deadline-stamped), shared-prompt submits (prefix
attach and copy-on-write), clock advances without a step, steps, a backend
fault on one dispatched call of a step (the stacked step's rollback and
per-resident fallback) and, when the drawn configuration enables it,
priority preemption.  After every rule:

- block conservation: ``blocks_free + |held| == capacity``, and each
  block's refcount equals its holder count (live sequences plus registered
  prefixes — vLLM's block-manager invariants);
- the cache's live sequences are exactly the residents plus the parked;
- rung-slot and KV-budget conservation on the batcher;
- no request in two of {queued, resident, parked, terminal}, and after a
  step every submitted request is in exactly one;
- no request is ever given a second outcome;
- KV exhaustion defers: under a budget that fits the cache the pool never
  runs dry and nothing is shed, a request waits in the queue until its
  footprint fits the blocks in-flight decodes have not reserved, and only
  one larger than the whole budget fails (at submit); reservations are
  held by residents and parked decodes alone;
- every ``ok`` output is bit-equal to the per-position ``forward_step``
  oracle over the reference :class:`~repro.models.SequenceKV` (which is
  defined to equal :func:`~repro.serving.decode_reference`);
- a step at ``now`` times out every queued or parked request whose
  deadline is before ``now`` (deadlines are judged before execution, so a
  resident decodes to completion).

Teardown drains the engine and checks that every submitted request reached
exactly one terminal outcome with nothing left held.  Tier-1 runs a few
examples; ``-m slow`` runs the large search.
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
    SchedulingConfig,
    ServingConfig,
)

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


class DecoderKVMachine(RuleBasedStateMachine):
    @initialize(
        block_size=st.sampled_from([2, 4]),
        capacity_blocks=st.integers(3, 20),
        budgeted=st.booleans(),
        preemption=st.booleans(),
        max_batch_size=st.integers(1, 3),
    )
    def build(self, block_size, capacity_blocks, budgeted, preemption, max_batch_size):
        scheduling = (
            SchedulingConfig(policy="priority", preemption=True)
            if preemption
            else SchedulingConfig()
        )
        self.engine = DecoderServingEngine(
            SERVED,
            config=ServingConfig(
                block_size=block_size,
                capacity_blocks=capacity_blocks,
                kv_budget_blocks=capacity_blocks if budgeted else None,
                max_batch_size=max_batch_size,
                warm=False,
                scheduling_policy=scheduling,
            ),
        )
        self.submitted = {}
        self.shed_pending = set()
        self.recorded = Counter()
        self.now = 0.0
        self.calls = 0
        self.fail_at = None

        record = self.engine._record_outcome

        def spy(request_id, *args, **kwargs):
            self.recorded[request_id] += 1
            record(request_id, *args, **kwargs)

        self.engine._record_outcome = spy

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

    def _submit(self, prompt, new_tokens, priority_class, deadline_us=None):
        rid = f"r{len(self.submitted):03d}"
        request = DecodeRequest(
            rid,
            prompt,
            new_tokens,
            arrival_us=self.now,
            deadline_us=deadline_us,
            priority_class=priority_class,
        )
        self.submitted[rid] = request
        if self.engine.submit(request) is None:
            self.shed_pending.add(rid)

    @rule(
        seed=st.integers(0, 2**16),
        tokens=st.integers(1, 9),
        new_tokens=st.integers(1, 4),
        priority_class=st.integers(0, 1),
        slack=st.none() | st.integers(0, 6),
    )
    def submit_unique(self, seed, tokens, new_tokens, priority_class, slack):
        """A fresh prompt, deadline-stamped at ``now + slack`` unless ``slack`` is None."""
        prompt = np.random.default_rng(seed).normal(size=(tokens, HIDDEN)).astype(np.float32)
        deadline_us = None if slack is None else self.now + slack
        self._submit(prompt, new_tokens, priority_class, deadline_us)

    @rule(
        which=st.integers(0, len(SHARED_PROMPTS) - 1),
        new_tokens=st.integers(1, 4),
        priority_class=st.integers(0, 1),
    )
    def submit_shared(self, which, new_tokens, priority_class):
        self._submit(SHARED_PROMPTS[which], new_tokens, priority_class)

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
        results = engine.step(self.now)
        self.now += 1.0
        self.shed_pending.clear()
        for rid, rows in results.items():
            request = self.submitted[rid]
            assert engine.outcomes[rid].status == OUTCOME_OK
            assert rows.tobytes() == oracle_rows(request.prompt, request.new_tokens).tobytes(), rid
        for rid in overdue:
            assert engine.outcomes[rid].status == OUTCOME_TIMED_OUT, rid
        self._assert_every_request_placed()

    @rule()
    def step(self):
        self._step()

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
    def live_sequences_are_residents_and_parked(self):
        engine = self.engine
        assert set(engine.kv._sequences) == set(engine._residents) | set(engine._preempted)
        assert not set(engine._residents) & set(engine._preempted)

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
        assert set(batcher._kv_cost_by_id) == set(engine._residents) | set(engine._preempted)
        for rid, outcome in engine.outcomes.items():
            assert outcome.status != OUTCOME_SHED, rid
            assert "KV cache exhausted" not in outcome.detail, rid
            request = self.submitted[rid]
            tokens = request.prompt.shape[0] + request.new_tokens
            footprint = -(-tokens // engine.config.block_size)
            oversized = footprint > batcher.kv_budget_blocks
            assert oversized == ("exceeds the budget" in outcome.detail), rid

    @invariant()
    def no_request_in_two_states(self):
        for rid in self.submitted:
            assert sum(self._states(rid)) <= 1, rid
            if rid in self.engine._preempted:  # parked work waits in the queue
                assert self.engine.batcher.is_queued(rid)

    @invariant()
    def no_second_outcome(self):
        assert all(count == 1 for count in self.recorded.values())

    def _states(self, rid):
        engine = self.engine
        parked = rid in engine._preempted
        return (
            engine.batcher.is_queued(rid) and not parked,
            rid in engine._residents,
            parked,
            rid in engine.outcomes,
        )

    def _assert_every_request_placed(self):
        for rid in self.submitted:
            if rid not in self.shed_pending:
                assert sum(self._states(rid)) == 1, rid

    def teardown(self):
        engine = getattr(self, "engine", None)
        if engine is None:
            return
        for _ in range(500):
            if not (engine.batcher.pending or engine._residents or self.shed_pending):
                break
            self._step()
        assert sorted(engine.outcomes) == sorted(self.submitted)
        assert sorted(self.recorded) == sorted(self.submitted)
        self.no_second_outcome()
        cache = engine.cache_stats()
        assert cache["sequences"] == 0
        prefix_blocks = {b for e in engine.kv._prefixes.values() for b in e.block_ids}
        assert cache["blocks_in_use"] == len(prefix_blocks)
        assert engine.batcher.kv_reserved == 0
        assert engine.stats()["admission"]["occupied_slots"] == 0


_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestDecoderKVMachine(DecoderKVMachine.TestCase):
    settings = settings(max_examples=12, stateful_step_count=20, **_SETTINGS)


@pytest.mark.slow
class TestDecoderKVMachineLarge(DecoderKVMachine.TestCase):
    settings = settings(max_examples=300, stateful_step_count=40, **_SETTINGS)

"""Decoder serving: the cached-vs-recompute golden matrix and KV accounting.

The guarantee under test is the decode analogue of the serving property:
KV-cached decoding through :class:`DecoderServingEngine` is **bit-for-bit**
the full causal recompute (:func:`decode_reference`) at every generated
position — across arrival interleavings, step cadences, layer counts and
prompt lengths, on the default bucket ladder.  The full grid runs ``slow``;
a four-cell smoke stays in tier-1, and again under strict priority and
under a KV budget that defers.

The rest pins the serving mechanics the cache adds: prefix sharing (same
bits, skipped prefill, copy-on-write isolation), rung occupancy across
multi-step residents, the KV-memory admission budget, block reclamation,
and the normalized ``stats()`` schema shared with the other engines.
"""

import numpy as np
import pytest

from repro.integration import VNMSparsifier, sparsify_encoder
from repro.models import TransformerEncoder, tiny_config
from repro.serving import (
    DecodeRequest,
    DecoderServingEngine,
    Request,
    SchedulingConfig,
    ServingConfig,
    decode_reference,
)

HIDDEN = 64


def make_encoder(num_layers=1, seed=0):
    cfg = tiny_config(
        hidden_size=HIDDEN, num_layers=num_layers, num_heads=4, intermediate_size=128
    )
    encoder = TransformerEncoder.init(cfg, seed=seed)
    sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
    return encoder


def make_decode_requests(rng, prompt_lengths, new_tokens, arrivals, classes=None):
    classes = classes if classes is not None else [0] * len(prompt_lengths)
    return [
        DecodeRequest(
            f"dec-{i:04d}",
            rng.normal(size=(p, HIDDEN)).astype(np.float32),
            new_tokens=n,
            arrival_us=a,
            priority_class=c,
        )
        for i, (p, n, a, c) in enumerate(zip(prompt_lengths, new_tokens, arrivals, classes))
    ]


def decoder_engine(encoder, **kwargs):
    """A decoder (on the default ladder: its one bucket policy)."""
    return DecoderServingEngine(encoder, config=ServingConfig(**kwargs))


def arrivals_for(pattern, n):
    if pattern == "together":
        return [0.0] * n
    if pattern == "staggered":
        return [3.0 * i for i in range(n)]
    if pattern == "reversed":
        # Later-submitted ids arrive first: exercises the FCFS tie-breaks.
        return [3.0 * (n - 1 - i) for i in range(n)]
    raise ValueError(pattern)


def run_golden_cell(
    rng, num_layers, prompt_lengths, pattern, step_us, policy="fcfs", kv_budget=False
):
    """One golden-matrix cell: serve cached, compare against recompute.

    ``policy="priority"`` alternates the requests' classes; ``kv_budget``
    budgets exactly the largest footprint, so a request that does not fit
    beside the residents waits for their blocks to return."""
    encoder = make_encoder(num_layers=num_layers)
    new_tokens = [3 + (i % 3) for i in range(len(prompt_lengths))]
    footprints = [-(-(p + n) // 4) for p, n in zip(prompt_lengths, new_tokens)]
    engine = decoder_engine(
        encoder,
        block_size=4,
        capacity_blocks=256,
        step_us=step_us,
        kv_budget_blocks=max(footprints) if kv_budget else None,
        scheduling_policy=SchedulingConfig(policy=policy),
    )
    classes = [i % 2 for i in range(len(prompt_lengths))] if policy == "priority" else None
    requests = make_decode_requests(
        rng, prompt_lengths, new_tokens, arrivals_for(pattern, len(prompt_lengths)), classes
    )
    results = engine.serve_continuous(requests)
    assert sorted(results) == sorted(r.request_id for r in requests)
    for req in requests:
        expected = decode_reference(encoder, req.prompt, req.new_tokens)
        got = results[req.request_id]
        assert got.shape == (req.new_tokens, HIDDEN)
        assert np.array_equal(got, expected), (
            f"cached decode diverged from full recompute for {req.request_id} "
            f"(layers={num_layers}, pattern={pattern}, "
            f"step_us={step_us}, policy={policy}, kv_budget={kv_budget})"
        )
    # Every decode's blocks were reclaimed; only kept prompt prefixes
    # keep references alive.
    stats = engine.cache_stats()
    assert stats["sequences"] == 0
    assert engine.batcher.kv_reserved == 0
    assert engine.batcher.admission_stats()["occupied_slots"] == 0


#: Tier-1 smoke: four cells spanning both layer counts, all three arrival
#: patterns and both cadence regimes.
GOLDEN_SMOKE = [
    (1, (5, 12), "together", 0.0),
    (2, (3, 9, 17), "staggered", 7.0),
    (1, (6, 6, 11), "reversed", 0.0),
    (2, (4, 2), "staggered", 3.0),
]


class TestGoldenDecodeMatrix:
    @pytest.mark.parametrize("num_layers,prompt_lengths,pattern,step_us", GOLDEN_SMOKE)
    def test_smoke_cells(self, rng, num_layers, prompt_lengths, pattern, step_us):
        run_golden_cell(rng, num_layers, prompt_lengths, pattern, step_us)

    @pytest.mark.parametrize(
        "policy,kv_budget",
        [("fcfs", True), ("priority", False), ("priority", True)],
        ids=["fcfs-kv-budget", "priority", "priority-kv-budget"],
    )
    @pytest.mark.parametrize("num_layers,prompt_lengths,pattern,step_us", GOLDEN_SMOKE)
    def test_scheduling_cells(
        self, rng, num_layers, prompt_lengths, pattern, step_us, policy, kv_budget
    ):
        """Scheduling moves decodes, never their bits: the smoke cells
        again under strict priority and under a KV budget that defers."""
        run_golden_cell(rng, num_layers, prompt_lengths, pattern, step_us, policy, kv_budget)

    @pytest.mark.slow
    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize(
        "prompt_lengths", [(5,), (5, 12, 30, 7), (2, 2, 9, 9, 17)]
    )
    @pytest.mark.parametrize("pattern", ["together", "staggered", "reversed"])
    @pytest.mark.parametrize("step_us", [0.0, 4.5])
    def test_full_grid(self, rng, num_layers, prompt_lengths, pattern, step_us):
        run_golden_cell(rng, num_layers, prompt_lengths, pattern, step_us)


class TestDecodeReference:
    """The oracle below the engine: one KV cache carried through the whole
    decode — prefill, then one ``forward_step`` per generated row fed back
    in — is bit-for-bit the recompute over a fresh cache every step."""

    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("prompt_len,new_tokens", [(1, 4), (6, 3)])
    def test_one_cache_carried_through_is_the_recompute(
        self, rng, num_layers, prompt_len, new_tokens
    ):
        encoder = make_encoder(num_layers=num_layers)
        prompt = rng.normal(size=(prompt_len, HIDDEN)).astype(np.float32)
        kv = encoder.new_sequence_kv()
        for x in prompt:
            feed = encoder.forward_step(x[None], kv)
        rows = []
        for _ in range(new_tokens):
            feed = encoder.forward_step(feed, kv)
            rows.append(feed[0])
        expected = decode_reference(encoder, prompt, new_tokens)
        assert expected.shape == (new_tokens, HIDDEN)
        assert expected.tobytes() == np.stack(rows).tobytes()

    @pytest.mark.parametrize(
        "shape,new_tokens,match",
        [((0, HIDDEN), 2, "prompt"), ((HIDDEN,), 2, "prompt"), ((3, HIDDEN), 0, "new_tokens")],
        ids=["empty-prompt", "1d-prompt", "no-new-tokens"],
    )
    def test_rejects_bad_arguments(self, shape, new_tokens, match):
        with pytest.raises(ValueError, match=match):
            decode_reference(make_encoder(), np.zeros(shape, dtype=np.float32), new_tokens)


class TestPrefixSharing:
    def test_shared_prompt_skips_prefill_and_keeps_bits(self, rng):
        encoder = make_encoder(num_layers=2)
        engine = decoder_engine(encoder, block_size=4, capacity_blocks=128, step_us=5.0)
        prompt = rng.normal(size=(9, HIDDEN)).astype(np.float32)
        requests = [
            DecodeRequest("owner", prompt, new_tokens=5, arrival_us=0.0),
            DecodeRequest("sharer-1", prompt.copy(), new_tokens=5, arrival_us=10.0),
            DecodeRequest("sharer-2", prompt.copy(), new_tokens=3, arrival_us=20.0),
        ]
        results = engine.serve_continuous(requests)
        expected = decode_reference(encoder, prompt, 5)
        # Same prompt => identical generated rows (prefix length permitting),
        # whether the sequence prefilled or attached to the shared blocks.
        assert np.array_equal(results["owner"], expected)
        assert np.array_equal(results["sharer-1"], expected)
        assert np.array_equal(results["sharer-2"], expected[:3])
        stats = engine.cache_stats()
        assert engine.prefills == 1
        assert engine.prefills_skipped == 2
        assert stats["prefix_hits"] == 2
        # The prompt (9 tokens, block_size 4) ends in a partial block: each
        # sharer's first append copy-on-writes it.  The owner appends into
        # its own block table after registering (refcount > 1), so it COWs
        # too — sharing never mutates the registered prefix.
        assert stats["cow_copies"] == 3
        assert stats["prefix_entries"] == 1
        assert stats["sequences"] == 0  # all freed at completion

    def test_distinct_prompts_do_not_share(self, rng):
        engine = decoder_engine(make_encoder())
        a = rng.normal(size=(6, HIDDEN)).astype(np.float32)
        b = a + 1.0
        engine.serve(
            [
                DecodeRequest("pa", a, new_tokens=2),
                DecodeRequest("pb", b, new_tokens=2),
            ]
        )
        assert engine.prefills == 2
        assert engine.prefills_skipped == 0
        assert engine.cache_stats()["prefix_hits"] == 0

    def test_unique_prompts_leave_no_registry(self, rng):
        """A prompt seen once is dropped with its request: after N unique
        prompts the registry holds no entry, no block and no rows, and the
        pool (two requests' worth) never evicted anything."""
        engine = decoder_engine(make_encoder(), block_size=4, capacity_blocks=6, step_us=5.0)
        requests = make_decode_requests(rng, [6] * 8, [2] * 8, [10.0 * i for i in range(8)])
        results = engine.serve_continuous(requests)
        for request in requests:
            want = decode_reference(make_encoder(), request.prompt, request.new_tokens)
            assert np.array_equal(results[request.request_id], want)
        stats = engine.cache_stats()
        assert engine.prefills == 8
        assert (stats["prefix_entries"], stats["evictions"], stats["blocks_in_use"]) == (0, 0, 0)
        assert not engine.kv._prefixes

    def test_a_recurring_prompt_is_kept_on_its_second_registration(self, rng):
        """Served alone three times, a prompt prefills twice: the first
        entry dies with its request, the second (a repeat) is kept, and
        the third request attaches to it."""
        encoder = make_encoder()
        engine = decoder_engine(encoder, block_size=4)
        prompt = rng.normal(size=(5, HIDDEN)).astype(np.float32)
        want = decode_reference(encoder, prompt, 3)
        for i in range(3):
            results = engine.serve([DecodeRequest(f"alone-{i}", prompt, new_tokens=3)])
            assert np.array_equal(results[f"alone-{i}"], want)
        stats = engine.cache_stats()
        assert (engine.prefills, stats["prefix_hits"]) == (2, 1)
        assert stats["prefix_entries"] == 1 and stats["evictions"] == 0

    def test_a_late_sharer_reads_the_kept_copy_not_the_recycled_extent(self, rng):
        """The kept entry copies the prompt's rows at its owner's release:
        the owner's extent then goes to another sequence, which overwrites
        it, and a sharer attaching after that still decodes the reference."""
        encoder = make_encoder()
        engine = decoder_engine(encoder, block_size=4, capacity_blocks=64, step_us=5.0)
        extents = {}
        create = engine.kv.create

        def spy(seq_id, tokens):
            sequence = create(seq_id, tokens)
            extents[seq_id] = sequence.keys
            return sequence

        engine.kv.create = spy
        prompt = rng.normal(size=(6, HIDDEN)).astype(np.float32)

        def other(tokens):
            return rng.normal(size=(tokens, HIDDEN)).astype(np.float32)

        requests = [
            DecodeRequest("first", prompt, new_tokens=1, arrival_us=0.0),  # dropped: seen once
            DecodeRequest("bystander", other(3), new_tokens=20, arrival_us=10.0),  # keeps a spare
            DecodeRequest("owner", prompt, new_tokens=2, arrival_us=10.0),  # a repeat: kept
            DecodeRequest("recycler", other(5), new_tokens=2, arrival_us=40.0),
            DecodeRequest("late", prompt, new_tokens=4, arrival_us=45.0),
        ]
        results = engine.serve_continuous(requests)
        del engine.kv.create
        assert extents["recycler"] is extents["owner"]  # the owner's extent, rewritten
        for request in requests:
            want = decode_reference(encoder, request.prompt, request.new_tokens)
            assert np.array_equal(results[request.request_id], want), request.request_id
        assert (engine.prefills, engine.cache_stats()["prefix_hits"]) == (4, 1)


class TestRungOccupancy:
    def test_full_rung_defers_but_other_rungs_schedule(self, rng):
        encoder = make_encoder()
        engine = DecoderServingEngine(encoder, config=ServingConfig(max_batch_size=1))
        a = DecodeRequest("occ-a", rng.normal(size=(5, HIDDEN)).astype(np.float32), 4)
        b = DecodeRequest("occ-b", rng.normal(size=(6, HIDDEN)).astype(np.float32), 2)
        c = DecodeRequest("occ-c", rng.normal(size=(40, HIDDEN)).astype(np.float32), 2)
        for req in (a, b, c):
            engine.submit(req)
        key_ab = engine.batcher.bucket_key(a.as_request())
        assert key_ab == engine.batcher.bucket_key(b.as_request())  # same rung
        engine.step(0.0)  # admits a (rung slot now held); b must wait
        assert engine.batcher.occupied_slots(key_ab) == 1
        assert "occ-a" in engine._residents and "occ-b" not in engine._residents
        engine.step(0.0)  # a's rung is full, but c's rung is free: c admits
        assert "occ-c" in engine._residents
        assert "occ-b" not in engine._residents
        # Drive to completion: b is admitted only after a's slot frees.
        results = {}
        for _ in range(20):
            results.update(engine.step(0.0))
            if len(results) == 3:
                break
        assert sorted(results) == ["occ-a", "occ-b", "occ-c"]
        for req in (a, b, c):
            assert np.array_equal(
                results[req.request_id],
                decode_reference(encoder, req.prompt, req.new_tokens),
            )
        assert engine.batcher.occupied_slots(key_ab) == 0

    def test_higher_class_waits_for_a_held_slot(self, rng):
        """Under strict priority a resident keeps its slot to completion:
        a higher-class arrival waits for it, then runs ahead of older
        queued lower-class work, and every output is the reference."""
        encoder = make_encoder()
        engine = DecoderServingEngine(
            encoder,
            config=ServingConfig(
                max_batch_size=1,
                step_us=1.0,
                block_size=4,
                scheduling_policy=SchedulingConfig(policy="priority"),
            ),
        )
        requests = [
            DecodeRequest(rid, rng.normal(size=(tokens, HIDDEN)).astype(np.float32),
                          new_tokens=4, arrival_us=arrival, priority_class=cls)
            for rid, tokens, arrival, cls in [
                ("low-a", 5, 0.0, 0), ("low-b", 6, 1.0, 0), ("high", 7, 2.0, 1),
            ]
        ]
        # One rung (prompts of 5-7 tokens bucket to 8), one slot.
        assert len({engine.batcher.bucket_key(r.as_request()) for r in requests}) == 1
        results = engine.serve_continuous(requests)
        done = sorted(engine.completions, key=lambda rid: engine.completions[rid].completed_us)
        assert done == ["low-a", "high", "low-b"]
        for req in requests:
            expected = decode_reference(encoder, req.prompt, req.new_tokens)
            assert np.array_equal(results[req.request_id], expected), req.request_id
        assert engine.stats()["preemptions"] == 0
        assert engine.cache_stats()["sequences"] == 0
        assert engine.batcher.admission_stats()["occupied_slots"] == 0

    def test_completion_frees_slot_and_kv_reservation(self, rng):
        engine = DecoderServingEngine(
            make_encoder(), config=ServingConfig(block_size=4, kv_budget_blocks=64)
        )
        req = DecodeRequest("free-0", rng.normal(size=(5, HIDDEN)).astype(np.float32), 3)
        engine.submit(req)
        assert engine.batcher.kv_reserved == 0  # reserved when scheduled
        engine.step(0.0)
        assert engine.batcher.kv_reserved == 2  # ceil((5 + 3) / 4)
        engine.serve_continuous([])  # decodes the resident to completion
        assert engine.batcher.kv_reserved == 0
        assert engine.cache_stats()["sequences"] == 0
        assert engine.outcomes["free-0"].status == "ok"


class TestKVBudgetAdmission:
    def test_budget_defers_beyond_reserved_blocks(self, rng):
        """A request whose footprint does not fit the blocks in-flight
        sequences reserved waits in the queue (nothing is shed for KV); one
        larger than the whole budget fails at submit, with the cause."""
        engine = DecoderServingEngine(
            make_encoder(), config=ServingConfig(block_size=4, kv_budget_blocks=3)
        )
        first = DecodeRequest("kv-fit", rng.normal(size=(5, HIDDEN)).astype(np.float32), 3)
        second = DecodeRequest("kv-wait", rng.normal(size=(6, HIDDEN)).astype(np.float32), 2)
        too_big = DecodeRequest(
            "kv-big", rng.normal(size=(9, HIDDEN)).astype(np.float32), 8
        )
        assert engine.submit(first) is not None
        assert engine.submit(second) is not None
        assert engine.submit(too_big) is None  # needs ceil(17/4)=5 > 3
        engine.step(0.0)
        # 2 of 3 blocks reserved; the second needs 2 more and waits queued.
        assert engine.batcher.kv_reserved == 2
        assert engine.batcher.is_queued("kv-wait")
        assert engine.outcomes["kv-big"].status == "failed"
        assert "exceeds the budget of 3 blocks" in engine.outcomes["kv-big"].detail
        results = engine.serve_continuous([])
        assert sorted(results) == ["kv-fit", "kv-wait"]
        for request in (first, second):
            assert np.array_equal(
                results[request.request_id],
                decode_reference(engine.encoder, request.prompt, request.new_tokens),
            )
        assert engine.stats()["admission"]["shed"] == 0
        assert engine.batcher.kv_reserved == 0

    def test_a_queued_decode_expires_holding_no_reservation(self, rng):
        """A decode waiting for blocks holds none: when its deadline passes
        in the queue it times out, and the budget and the cache still hold
        exactly the resident's footprint."""
        engine = DecoderServingEngine(
            make_encoder(), config=ServingConfig(block_size=4, kv_budget_blocks=4)
        )
        resident = DecodeRequest(
            "kv-resident", rng.normal(size=(5, HIDDEN)).astype(np.float32), 6
        )  # ceil(11 / 4) = 3 blocks
        waiter = DecodeRequest(
            "kv-waiter", rng.normal(size=(6, HIDDEN)).astype(np.float32), 2, deadline_us=2.0
        )  # 2 blocks, 1 left
        engine.submit(resident)
        engine.submit(waiter)
        for now in (0.0, 1.0, 2.0, 3.0):
            engine.step(now)
        assert engine.outcomes["kv-waiter"].status == "timed_out"
        assert "kv-resident" in engine._residents
        assert engine.batcher.kv_reserved == 3
        assert engine.cache_stats()["sequences"] == 1
        results = engine.serve_continuous([])
        assert np.array_equal(
            results["kv-resident"], decode_reference(engine.encoder, resident.prompt, 6)
        )
        assert engine.batcher.kv_reserved == 0

    def test_budget_admits_again_after_release(self, rng):
        engine = DecoderServingEngine(
            make_encoder(), config=ServingConfig(block_size=4, kv_budget_blocks=2)
        )
        first = DecodeRequest("kvr-0", rng.normal(size=(5, HIDDEN)).astype(np.float32), 3)
        engine.serve([first])  # completes; reservation released
        later = DecodeRequest("kvr-1", rng.normal(size=(5, HIDDEN)).astype(np.float32), 3)
        assert engine.submit(later) is not None
        results = engine.serve_continuous([])
        assert "kvr-1" in results


def per_request_holders(engine, rid):
    """The per-request maps that still hold ``rid``: the batcher's queued
    footprints and reservations, the cache's live sequences, and every dict
    the engine keeps (its residents among them) bar the terminal records."""
    maps = {
        "batcher._kv_need": engine.batcher._kv_need,
        "batcher._kv_cost_by_id": engine.batcher._kv_cost_by_id,
        "kv._sequences": engine.kv._sequences,
    }
    maps.update(
        (f"engine.{name}", value)
        for name, value in vars(engine).items()
        if isinstance(value, dict) and name not in ("outcomes", "completions")
    )
    return sorted(name for name, held in maps.items() if rid in held)


class TestNoPerRequestStateOutlivesTheRequest:
    """Regression: a decode that left the queue without being admitted
    (timed out queued, or evicted by drop-expired shedding) kept its decode
    length in an engine-side table forever.  The length now rides on the
    queued request, so once every request has its outcome no per-request
    map holds any of them."""

    def test_a_decode_timed_out_in_the_queue_leaves_nothing(self, rng):
        encoder = make_encoder()
        engine = decoder_engine(encoder, max_batch_size=1, step_us=10.0)
        a = DecodeRequest("a", rng.normal(size=(5, HIDDEN)).astype(np.float32), 6)
        b = DecodeRequest(
            "b", rng.normal(size=(4, HIDDEN)).astype(np.float32), 2, deadline_us=1.0
        )
        results = engine.serve_continuous([a, b])
        assert engine.outcomes["b"].status == "timed_out"
        assert np.array_equal(results["a"], decode_reference(encoder, a.prompt, 6))
        assert per_request_holders(engine, "a") == per_request_holders(engine, "b") == []

    def test_an_evicted_id_resubmitted_before_its_outcome_leaves_nothing(self, rng):
        """Drop-expired evicts two queued decodes at a later arrival; one id
        comes straight back (before the step that records the eviction) with
        another prompt and length, and is served by its own length."""
        encoder = make_encoder()
        engine = decoder_engine(
            encoder,
            block_size=4,
            max_batch_size=1,
            max_queue_depth=2,
            shed_policy="drop-expired",
        )

        def job(rid, tokens, new_tokens, arrival_us, deadline_us=None):
            prompt = rng.normal(size=(tokens, HIDDEN)).astype(np.float32)
            return DecodeRequest(rid, prompt, new_tokens, arrival_us, deadline_us)

        engine.submit(job("a", 5, 6, 0.0))
        engine.step(0.0)  # "a" holds the one slot
        for rid in ("c", "d"):
            assert engine.submit(job(rid, 3, 2, 0.0, deadline_us=1.0)) is not None
        assert engine.submit(job("e", 3, 2, 5.0)) is not None  # evicts "c" and "d"
        # Evicted, but recorded only at the next step.
        assert [r.request_id for r in engine.batcher.expired_log] == ["c", "d"]
        assert "c" not in engine.outcomes
        again = job("c", 6, 3, 5.0)
        assert engine.submit(again) is not None
        results = engine.serve_continuous([])
        assert engine.outcomes["d"].status == "timed_out"
        assert engine.outcomes["c"].status == engine.outcomes["e"].status == "ok"
        assert np.array_equal(results["c"], decode_reference(encoder, again.prompt, 3))
        for rid in "acde":
            assert per_request_holders(engine, rid) == [], rid
        assert engine.batcher.kv_reserved == 0


class TestCacheLifecycle:
    @pytest.mark.parametrize("kv_budget_blocks", [None, 16], ids=["default", "over-committed"])
    def test_tight_pool_defers_or_fails_alone_with_block_accounting(self, rng, kv_budget_blocks):
        """The ROADMAP wedge: four 9-token prompts x 4 new tokens need 16
        blocks of 4 slots and the pool has 6.  Each needs 4, so under the
        default budget (the whole cache) they wait their turn and all four
        decode the reference bits.  A budget that over-commits the pool
        lets it run dry: the request that needed the block fails alone —
        everything it held returns — and whoever fits still decodes the
        reference bits."""
        encoder = make_encoder()
        engine = DecoderServingEngine(
            encoder,
            config=ServingConfig(
                block_size=4, capacity_blocks=6, kv_budget_blocks=kv_budget_blocks
            ),
        )
        requests = make_decode_requests(rng, (9, 9, 9, 9), (4, 4, 4, 4), [0.0] * 4)
        results = engine.serve(requests)
        ok = 4 if kv_budget_blocks is None else 1
        assert engine.stats()["outcomes"] == {
            "ok": ok, "failed": 4 - ok, "timed_out": 0, "shed": 0
        }
        assert sorted(engine.outcomes) == sorted(r.request_id for r in requests)
        assert len(results) == ok
        for request in requests:
            if request.request_id in results:
                assert np.array_equal(
                    results[request.request_id],
                    decode_reference(encoder, request.prompt, request.new_tokens),
                )
            else:
                assert "KV cache exhausted" in engine.outcomes[request.request_id].detail
        # Nothing is left holding anything but registered prefixes (which
        # the over-committed pool's pressure evicted): sequences, blocks,
        # rung slots, reservations.
        cache = engine.cache_stats()
        assert cache["sequences"] == 0
        prefix_blocks = {b for entry in engine.kv._prefixes.values() for b in entry.block_ids}
        assert cache["blocks_in_use"] == len(prefix_blocks)
        assert kv_budget_blocks is None or not prefix_blocks
        assert engine.stats()["residents"] == 0
        assert engine.stats()["admission"]["occupied_slots"] == 0
        assert engine.batcher.kv_reserved == 0

    def test_blocks_reclaimed_across_waves(self, rng):
        """Serving wave after wave reuses the same small pool: peak usage is
        bounded by the concurrent footprint, not the request count."""
        engine = DecoderServingEngine(
            make_encoder(), config=ServingConfig(block_size=4, capacity_blocks=16)
        )
        for wave in range(4):
            reqs = [
                DecodeRequest(
                    f"wave{wave}-{i}",
                    np.asarray(
                        np.linspace(0, 1, 6 * HIDDEN).reshape(6, HIDDEN) + wave + i,
                        dtype=np.float32,
                    ),
                    new_tokens=3,
                )
                for i in range(2)
            ]
            out = engine.serve(reqs)
            assert len(out) == 2
        stats = engine.cache_stats()
        assert stats["sequences"] == 0
        assert stats["blocks_in_use"] <= stats["capacity_blocks"]
        # Prefix entries hold blocks until evicted, but live-sequence usage
        # always returned to zero between waves.
        assert engine.batcher.kv_reserved == 0

    def test_each_sequence_takes_its_extents_once(self, rng):
        """The engine sizes a sequence's K/V extents from prompt + new_tokens
        (what ``kv_cost`` charges), so neither prefill, a prefix attach nor
        any decode step regrows them: one take per admitted request."""
        engine = DecoderServingEngine(
            make_encoder(num_layers=2), config=ServingConfig(block_size=4, capacity_blocks=64)
        )
        sizes = []
        take = engine.kv._take_extents

        def spy(tokens):
            sizes.append(tokens)
            return take(tokens)

        engine.kv._take_extents = spy
        shared = rng.normal(size=(6, HIDDEN)).astype(np.float32)
        requests = [
            DecodeRequest("owner", shared, new_tokens=3),
            DecodeRequest("unique", rng.normal(size=(9, HIDDEN)).astype(np.float32), new_tokens=5),
            DecodeRequest("sharer", shared, new_tokens=7),
        ]
        results = engine.serve(requests)
        del engine.kv._take_extents
        assert sorted(sizes) == [9, 13, 14]
        assert engine.stats()["prefills_skipped"] == 1
        for request in requests:
            want = decode_reference(make_encoder(num_layers=2), request.prompt, request.new_tokens)
            assert np.array_equal(results[request.request_id], want)

    def test_prefix_eviction_frees_pool_under_pressure(self, rng):
        """When the pool runs dry, kept prefixes are evicted LRU to make
        room for live sequences (the ``evictions`` counter).  Each prompt is
        served twice, one request after the other, so it recurs and its
        entry is kept past the second request."""
        engine = DecoderServingEngine(
            make_encoder(), config=ServingConfig(block_size=2, capacity_blocks=8)
        )
        for i in range(4):
            prompt = rng.normal(size=(4, HIDDEN)).astype(np.float32)
            for j in range(2):
                engine.serve([DecodeRequest(f"evict-{i}-{j}", prompt, new_tokens=2)])
        stats = engine.cache_stats()
        assert stats["evictions"] >= 1
        assert stats["sequences"] == 0


class TestDecoderIntakeAndStats:
    def test_submit_validates_type_and_width(self, rng):
        engine = DecoderServingEngine(make_encoder())
        with pytest.raises(TypeError, match="DecodeRequest"):
            engine.submit(Request("nope", rng.normal(size=(4, HIDDEN)).astype(np.float32)))
        with pytest.raises(ValueError, match="hidden size"):
            engine.submit(
                DecodeRequest("narrow", rng.normal(size=(4, 32)).astype(np.float32), 2)
            )

    @pytest.mark.parametrize("held_as", ["resident", "queued"])
    def test_submit_rejects_an_id_the_engine_still_holds(self, rng, held_as):
        """Regression: a duplicate of a resident used to be accepted (the
        batcher forgets an id once popped) and then raised out of
        ``step()``; a duplicate of a queued request was rejected, but the
        rejection dropped the *original*'s decode length.  Either way the
        original ended with no outcome."""
        encoder = make_encoder()
        engine = DecoderServingEngine(encoder, config=ServingConfig(block_size=4))
        prompt = rng.normal(size=(5, HIDDEN)).astype(np.float32)
        # An earlier request of the same prompt: "a"'s is its second
        # registration, so the prefix is kept past "a" (checked below).
        engine.serve([DecodeRequest("earlier", prompt, new_tokens=1)])
        original = DecodeRequest("a", prompt, new_tokens=3)
        engine.submit(original)
        if held_as == "resident":
            engine.step(0.0)
            assert "a" in engine._residents
        twin = DecodeRequest("a", rng.normal(size=(6, HIDDEN)).astype(np.float32), 2)
        with pytest.raises(ValueError, match="'a'"):
            engine.submit(twin)
        results = {}
        now = 1.0
        while engine.batcher.pending or engine._residents:
            results.update(engine.step(now))
            now += 1.0
        assert engine.outcomes["a"].status == "ok"
        assert np.array_equal(results["a"], decode_reference(encoder, prompt, 3))
        # Nothing leaked: the only blocks still held are the kept prompt
        # prefix's.
        assert engine.cache_stats()["sequences"] == 0
        assert engine.kv.blocks_in_use == sum(
            len(entry.block_ids) for entry in engine.kv._prefixes.values()
        ) == 2
        assert engine.batcher.kv_reserved == 0
        engine.submit(twin)  # retired: the id may return

    def test_decode_request_validation(self):
        with pytest.raises(ValueError, match="new_tokens"):
            DecodeRequest("bad-n", np.zeros((3, HIDDEN), dtype=np.float32), 0)
        with pytest.raises(ValueError, match="prompt"):
            DecodeRequest("bad-p", np.zeros((0, HIDDEN), dtype=np.float32), 2)

    def test_direct_batcher_queueing_is_rejected_at_admission(self, rng):
        engine = DecoderServingEngine(make_encoder())
        engine.batcher.submit(
            Request("bypass", rng.normal(size=(4, HIDDEN)).astype(np.float32))
        )
        with pytest.raises(ValueError, match="decode length"):
            engine.step(0.0)

    @pytest.mark.parametrize("bypass_id", ["0-bypass", "z-bypass"], ids=["first", "last"])
    def test_a_refused_admission_settles_every_popped_request(self, rng, bypass_id):
        """Regression: a request queued without a decode length raised out
        of the step after its batchmate ``a`` had been prefilled, and ``a``
        then held its sequence, rung slot and KV reservation for the life
        of the engine with no outcome.  Now every popped request ends
        resident (``a``, served later) or ``failed`` with nothing held —
        whether the refusal comes before ``a`` is reached or after."""
        encoder = make_encoder()
        engine = decoder_engine(encoder, warm=False)
        a = DecodeRequest("a", rng.normal(size=(5, HIDDEN)).astype(np.float32), 2)
        engine.submit(a)
        engine.batcher.submit(Request(bypass_id, rng.normal(size=(6, HIDDEN)).astype(np.float32)))
        with pytest.raises(ValueError, match="queued without a decode length"):
            engine.step(0.0)
        assert engine.outcomes[bypass_id].status == "failed"
        assert per_request_holders(engine, bypass_id) == []
        if bypass_id == "0-bypass":  # ``a`` was never reached: failed, nothing held
            assert engine.outcomes["a"].status == "failed"
            assert "ValueError" in engine.outcomes["a"].detail
            assert engine.batcher.kv_reserved == 0
            assert engine.stats()["admission"]["occupied_slots"] == 0
        else:  # ``a`` was prefilled: it stays resident and is served
            assert list(engine._residents) == ["a"] and "a" not in engine.outcomes
            assert engine.batcher.kv_reserved == 1
            assert engine.stats()["admission"]["occupied_slots"] == 1
            results = engine.serve_continuous([])
            assert engine.outcomes["a"].status == "ok"
            assert np.array_equal(results["a"], decode_reference(encoder, a.prompt, 2))
        assert per_request_holders(engine, "a") == []
        assert engine.batcher.kv_reserved == 0

    def test_any_error_of_the_stacked_decode_rolls_every_resident_back(self, rng, monkeypatch):
        """Regression: only a backend failure or KV exhaustion rolled the
        residents back when the stacked decode raised; a ``ValueError`` left
        ``a`` one position long with a K/V row written, so its next step
        decoded from a corrupt cache.  The error still propagates."""
        encoder = make_encoder()
        engine = decoder_engine(encoder, warm=False)
        a = DecodeRequest("a", rng.normal(size=(5, HIDDEN)).astype(np.float32), 2)
        engine.submit(a)
        engine.step(0.0)  # prefill
        handle = engine._residents["a"].handle
        assert (handle.length, handle.written) == (5, [5])
        layer = encoder.layers[0]

        def broken(hidden):
            raise ValueError("broken ffn")

        monkeypatch.setattr(layer.ffn, "forward", broken)
        with pytest.raises(ValueError, match="broken ffn"):
            engine.step(1.0)  # attention appended a row before the ffn raised
        assert (handle.length, handle.written) == (5, [5])
        assert list(engine._residents) == ["a"] and engine.outcomes == {}
        monkeypatch.undo()
        results = engine.serve_continuous([])
        assert np.array_equal(results["a"], decode_reference(encoder, a.prompt, 2))

    def test_stats_schema_is_normalized(self, rng):
        engine = DecoderServingEngine(make_encoder(), config=ServingConfig(kv_budget_blocks=32))
        # Present and zeroed before any step — normalized, not absent.
        assert engine.stats()["stacking"] == {
            "stacked_steps": 0, "stacked_slabs": 0, "prefill_slabs": 0, "fallback_steps": 0,
        }
        engine.serve(
            [DecodeRequest("st-0", rng.normal(size=(5, HIDDEN)).astype(np.float32), 2)]
        )
        stats = engine.stats()
        assert stats["continuous"]["completions"] == 1
        assert stats["continuous"]["steps"] == engine.steps_executed
        admission = stats["admission"]
        assert admission["kv_budget_blocks"] == 32
        # SLO scheduling unused: FCFS policy, one zeroed per-class block.
        # Nothing preempts; the retired counter reads a constant zero.
        assert admission["policy"] == "fcfs"
        assert admission["per_class"] == {0: {"shed": 0, "expired": 0, "pending": 0}}
        assert stats["preemptions"] == 0
        assert stats["cache"]["block_size"] == engine.kv.block_size
        assert stats["outcomes"]["ok"] == 1
        # One 5-token layer-major prefill, two one-resident stacked steps.
        assert stats["stacking"] == {
            "stacked_steps": 2, "stacked_slabs": 2, "prefill_slabs": 5, "fallback_steps": 0,
        }
        assert stats["decode_steps"] == 2 and stats["prefills"] == 1

    @pytest.mark.parametrize("residents", [1, 3, 5])
    def test_one_dispatch_per_projection_per_step(self, rng, residents):
        """A step's token-wise work is one call per projection whatever the
        resident count: 6 x num_layers dispatcher calls, not that times r —
        and the engine's own counters say what it stacked."""
        num_layers = 2
        engine = decoder_engine(make_encoder(num_layers=num_layers))
        calls = []
        execute = engine.dispatcher.execute

        def counting_execute(*args, **kwargs):
            calls.append(1)
            return execute(*args, **kwargs)

        engine.dispatcher.execute = counting_execute
        for request in make_decode_requests(
            rng, (6,) * residents, (3,) * residents, [0.0] * residents
        ):
            engine.submit(request)
        engine.step(0.0)  # admission + prefill: one call per projection per prompt
        assert len(calls) == 6 * num_layers * residents
        for step in (1, 2):
            before = len(calls)
            engine.step(float(step))
            assert len(calls) - before == 6 * num_layers
        stats = engine.stats()
        assert stats["stacking"] == {
            "stacked_steps": 2,
            "stacked_slabs": 2 * residents,
            "prefill_slabs": 6 * residents,
            "fallback_steps": 0,
        }
        # Unchanged meanings: one decode step per resident per engine step.
        assert stats["decode_steps"] == 2 * residents
        assert stats["prefills"] == residents
        results = engine.step(3.0)
        assert len(results) == residents
        assert {rec.batch_size for rec in engine.completions.values()} == {residents}

    def test_completion_records_are_deterministic(self, rng):
        def run():
            engine = decoder_engine(make_encoder(), step_us=2.0)
            requests = make_decode_requests(
                rng_local, (5, 12, 5), (3, 2, 4), arrivals_for("staggered", 3)
            )
            engine.serve_continuous(requests)
            return {
                rid: (rec.step, rec.rung, rec.batch_size, rec.completed_us)
                for rid, rec in engine.completions.items()
            }

        rng_local = np.random.default_rng(7)
        first = run()
        rng_local = np.random.default_rng(7)
        second = run()
        assert first == second

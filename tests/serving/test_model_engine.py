"""Golden end-to-end correctness matrix for model-level serving.

The acceptance property of the serving stack, one level up from the
single-operator tests: batched encoder serving through
:class:`~repro.serving.model_engine.ModelServingEngine` is **bit-for-bit**
equal to sequential per-request ``TransformerEncoder.forward`` calls, for
every cell of a (V:N:M pattern x num_layers x ragged request lengths x
backend) grid — in *both* batching modes: exact-length bucketing and the
padded bucket ladder (``padding="ladder"``), whose cells additionally pin
that ragged lengths consolidate into fewer, fuller buckets than
exact-length bucketing would produce.  The full matrices are marked
``slow``; smoke subsets stay in tier-1 so every CI run still crosses all
grid axes.

Also here: the plan-cache hit/miss accounting (cross-request reuse is the
point of the engine-lifetime registry) and the dispatcher cache-isolation
regression — two engines with injected dispatchers must never share
memoized dispatch signatures.
"""

import tracemalloc

import numpy as np
import pytest

from repro.integration import VNMSparsifier, sparsify_encoder
from repro.kernels.dispatch import (
    CublasDenseBackend,
    KernelDispatcher,
    SpathaPlanBackend,
    default_dispatcher,
)
from repro.models import TransformerEncoder, tiny_config
from repro.serving import (
    DecodeRequest,
    ModelServingEngine,
    Request,
    ServingConfig,
    create_engine,
    decode_reference,
)

HIDDEN = 64


def make_encoder(pattern, num_layers, seed=0):
    """A tiny sparsified encoder (all six projections per layer V:N:M)."""
    v, n, m = pattern
    cfg = tiny_config(
        hidden_size=HIDDEN, num_layers=num_layers, num_heads=4, intermediate_size=128
    )
    encoder = TransformerEncoder.init(cfg, seed=seed)
    replaced = sparsify_encoder(encoder, VNMSparsifier(n=n, m=m, v=v))
    assert len(replaced) == 6 * num_layers
    return encoder


def make_requests(rng, lengths, prefix="req"):
    return [
        Request(f"{prefix}-{i:04d}", rng.normal(size=(t, HIDDEN)).astype(np.float32))
        for i, t in enumerate(lengths)
    ]


def backend_dispatcher(backend):
    """A dispatcher restricted to one backend (or the full auto registry)."""
    if backend == "auto":
        return KernelDispatcher()
    if backend == "spatha-plan":
        return KernelDispatcher(backends=[SpathaPlanBackend()])
    if backend == "cublas-dense":
        return KernelDispatcher(backends=[CublasDenseBackend()])
    raise ValueError(backend)


def assert_golden_cell(pattern, num_layers, lengths, backend, rng):
    """One grid cell: batched serving == sequential forward, bit for bit."""
    encoder = make_encoder(pattern, num_layers)
    engine = ModelServingEngine(
        encoder,
        dispatcher=backend_dispatcher(backend),
        config=ServingConfig(name=f"golden-{backend}"),
    )
    requests = make_requests(rng, lengths)
    batched = engine.serve(requests)

    assert set(batched) == {r.request_id for r in requests}
    for request in requests:
        # The engine injected its dispatcher into the encoder, so this IS
        # the sequential per-request execution of the same configuration.
        sequential = encoder.forward(request.activations[None])[0]
        assert batched[request.request_id].shape == (request.tokens, HIDDEN)
        assert np.array_equal(batched[request.request_id], sequential), (
            f"cell (pattern={pattern}, layers={num_layers}, backend={backend}) "
            f"diverged on {request.request_id} (tokens={request.tokens})"
        )

    # Cross-request plan reuse: the warmed registry answers every lookup.
    stats = engine.stats()
    assert stats["plan_cache"]["size"] == 6 * num_layers
    assert stats["plan_cache"]["misses"] == 0
    assert stats["plan_cache"]["hits"] == stats["batches"] * 6 * num_layers
    return engine


PATTERNS = [(16, 2, 8), (8, 2, 4)]
LAYER_COUNTS = [1, 2]
LENGTH_SETS = [[3, 7, 7, 12], [9, 17, 17, 17, 33]]
BACKENDS = ["auto", "cublas-dense"]

FULL_GRID = [
    (p, l, s, b)
    for p in PATTERNS
    for l in LAYER_COUNTS
    for s in LENGTH_SETS
    for b in BACKENDS
]

#: Tier-1 smoke subset: four cells that still cross every axis (both
#: patterns, both layer counts, both length sets, both backends).
SMOKE_GRID = [
    ((16, 2, 8), 1, [3, 7, 7, 12], "auto"),
    ((8, 2, 4), 2, [9, 17, 17, 17, 33], "auto"),
    ((16, 2, 8), 2, [9, 17, 17, 17, 33], "cublas-dense"),
    ((8, 2, 4), 1, [3, 7, 7, 12], "cublas-dense"),
]

#: Ragged length sets for the padded-ladder cells: every set crosses at
#: least one rung boundary of the (8, 16, ...) ladder, and the first
#: includes the single-token (GEMV-shaped) edge case.
PADDED_LENGTH_SETS = [
    [1, 3, 5, 7, 8],  # one 8-rung bucket
    [3, 7, 9, 12, 16, 17],  # 8-, 16- and 32-rung buckets
    [8, 9, 16, 17, 33],  # every boundary: rung, rung+1, next rung
]

PADDED_FULL_GRID = [
    (p, l, s, b)
    for p in PATTERNS
    for l in LAYER_COUNTS
    for s in PADDED_LENGTH_SETS
    for b in BACKENDS
]

#: Tier-1 padded smoke subset, crossing every axis like SMOKE_GRID does.
PADDED_SMOKE_GRID = [
    ((16, 2, 8), 1, [1, 3, 5, 7, 8], "auto"),
    ((8, 2, 4), 2, [3, 7, 9, 12, 16, 17], "cublas-dense"),
    ((16, 2, 8), 2, [8, 9, 16, 17, 33], "cublas-dense"),
    ((8, 2, 4), 1, [8, 9, 16, 17, 33], "auto"),
]


def assert_padded_golden_cell(pattern, num_layers, lengths, backend, rng):
    """One padded-ladder grid cell: valid rows == standalone forward, bit
    for bit, while ragged lengths consolidate into fewer, fuller buckets."""
    encoder = make_encoder(pattern, num_layers)
    engine = ModelServingEngine(
        encoder,
        dispatcher=backend_dispatcher(backend),
        config=ServingConfig(padding="ladder", name=f"golden-padded-{backend}"),
    )
    requests = make_requests(rng, lengths)
    batched = engine.serve(requests)

    assert set(batched) == {r.request_id for r in requests}
    for request in requests:
        sequential = encoder.forward(request.activations[None])[0]
        assert batched[request.request_id].shape == (request.tokens, HIDDEN)
        assert np.array_equal(batched[request.request_id], sequential), (
            f"padded cell (pattern={pattern}, layers={num_layers}, backend={backend}) "
            f"diverged on {request.request_id} (tokens={request.tokens})"
        )

    stats = engine.stats()
    # The consolidation the ladder exists for: strictly fewer micro-batches
    # than exact-length bucketing (one per distinct length) would produce.
    exact_buckets = len(set(lengths))
    assert stats["batches"] < exact_buckets
    padding = stats["padding"]
    assert padding["mode"] == "ladder"
    assert padding["valid_tokens"] == sum(lengths)
    assert padding["bucket_tokens"] >= padding["valid_tokens"]
    assert 0.0 < padding["fill"] <= 1.0
    # Plan-cache accounting carries over to the padded path unchanged.
    assert stats["plan_cache"]["misses"] == 0
    assert stats["plan_cache"]["hits"] == stats["batches"] * 6 * num_layers
    return engine


#: Arrival interleavings for the continuous cells: each pattern stresses a
#: different admission order (burst, trickle, ids reversed in time, clumps
#: straddling step boundaries).  Lengths index into the cell's length set.
def arrival_interleavings(n):
    return [
        [0.0] * n,
        [i * 60.0 for i in range(n)],
        [(n - 1 - i) * 60.0 for i in range(n)],
        [(i % 2) * 700.0 for i in range(n)],
    ]


CONTINUOUS_FULL_GRID = [
    (p, s, b, a, step_us)
    for p in PATTERNS
    for s in PADDED_LENGTH_SETS
    for b in BACKENDS
    for a in range(4)
    for step_us in (0.0, 100.0)
]

#: Tier-1 continuous smoke subset: crosses both patterns, all three length
#: sets, both backends, all four interleavings and both step cadences.
CONTINUOUS_SMOKE_GRID = [
    ((16, 2, 8), [1, 3, 5, 7, 8], "auto", 0, 0.0),
    ((8, 2, 4), [3, 7, 9, 12, 16, 17], "cublas-dense", 1, 100.0),
    ((16, 2, 8), [8, 9, 16, 17, 33], "cublas-dense", 2, 0.0),
    ((8, 2, 4), [8, 9, 16, 17, 33], "auto", 3, 100.0),
]


def assert_continuous_golden_cell(pattern, lengths, backend, arrival_idx, step_us, rng):
    """One continuous grid cell: serving through the step loop under the
    given arrival interleaving and cadence == sequential forward, bit for
    bit, in both exact and ladder modes."""
    arrivals = arrival_interleavings(len(lengths))[arrival_idx]
    for padding in ("exact", "ladder"):
        encoder = make_encoder(pattern, 1)
        engine = ModelServingEngine(
            encoder,
            dispatcher=backend_dispatcher(backend),
            config=ServingConfig(
                padding=padding, step_us=step_us, name=f"golden-continuous-{padding}-{backend}"
            ),
        )
        requests = [
            Request(r.request_id, r.activations, arrival_us=a)
            for r, a in zip(make_requests(rng, lengths), arrivals)
        ]
        results = engine.serve_continuous(requests)
        assert set(results) == {r.request_id for r in requests}
        for request in requests:
            sequential = encoder.forward(request.activations[None])[0]
            assert np.array_equal(results[request.request_id], sequential), (
                f"continuous cell (pattern={pattern}, backend={backend}, "
                f"arrivals={arrival_idx}, step_us={step_us}, padding={padding}) "
                f"diverged on {request.request_id} (tokens={request.tokens})"
            )
        # Every request completed exactly once, with coherent metadata.
        assert set(engine.completions) == set(results)
        assert engine.stats()["continuous"]["completions"] == len(requests)


class TestGoldenMatrix:
    @pytest.mark.parametrize("pattern,num_layers,lengths,backend", SMOKE_GRID)
    def test_smoke_cells(self, rng, pattern, num_layers, lengths, backend):
        assert_golden_cell(pattern, num_layers, lengths, backend, rng)

    @pytest.mark.slow
    @pytest.mark.parametrize("pattern,num_layers,lengths,backend", FULL_GRID)
    def test_full_matrix(self, rng, pattern, num_layers, lengths, backend):
        assert_golden_cell(pattern, num_layers, lengths, backend, rng)

    @pytest.mark.parametrize("pattern,num_layers,lengths,backend", PADDED_SMOKE_GRID)
    def test_padded_smoke_cells(self, rng, pattern, num_layers, lengths, backend):
        assert_padded_golden_cell(pattern, num_layers, lengths, backend, rng)

    @pytest.mark.slow
    @pytest.mark.parametrize("pattern,num_layers,lengths,backend", PADDED_FULL_GRID)
    def test_padded_full_matrix(self, rng, pattern, num_layers, lengths, backend):
        assert_padded_golden_cell(pattern, num_layers, lengths, backend, rng)

    @pytest.mark.parametrize(
        "pattern,lengths,backend,arrival_idx,step_us", CONTINUOUS_SMOKE_GRID
    )
    def test_continuous_smoke_cells(self, rng, pattern, lengths, backend, arrival_idx, step_us):
        assert_continuous_golden_cell(pattern, lengths, backend, arrival_idx, step_us, rng)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "pattern,lengths,backend,arrival_idx,step_us", CONTINUOUS_FULL_GRID
    )
    def test_continuous_full_matrix(self, rng, pattern, lengths, backend, arrival_idx, step_us):
        assert_continuous_golden_cell(pattern, lengths, backend, arrival_idx, step_us, rng)

    def test_padded_and_exact_engines_agree_bitwise(self, rng):
        """The two bit-exact policies must agree with each other, not just
        with the standalone forward (same weights, different encoders so
        each engine owns its routing)."""
        lengths = [1, 5, 7, 9, 9, 12, 17]
        requests = make_requests(rng, lengths)
        exact = ModelServingEngine(
            make_encoder((16, 2, 8), 1), config=ServingConfig(name="exact")
        )
        padded = ModelServingEngine(
            make_encoder((16, 2, 8), 1), config=ServingConfig(padding="ladder", name="padded")
        )
        exact_out = exact.serve(requests)
        padded_out = padded.serve(requests)
        for rid in exact_out:
            assert np.array_equal(exact_out[rid], padded_out[rid]), rid
        assert padded.total_batches < exact.total_batches

    def test_padded_async_windows_preserve_bits(self, rng):
        """Arrival-deadline windows compose with the padded ladder: timing
        changes which rung-buckets close together, never the numbers."""
        encoder = make_encoder((16, 2, 8), 1)
        requests = make_requests(rng, [1, 5, 7, 9, 12, 17])
        one_window = ModelServingEngine(
            encoder, config=ServingConfig(padding="ladder")
        ).serve(requests)
        for window_us in (25.0, 400.0):
            engine = ModelServingEngine(
                encoder,
                config=ServingConfig(scheduling="async", padding="ladder", window_us=window_us),
            )
            timed = [
                Request(r.request_id, r.activations, arrival_us=i * 50.0)
                for i, r in enumerate(requests)
            ]
            results = engine.serve_continuous(timed)
            for rid in one_window:
                assert np.array_equal(results[rid], one_window[rid]), (window_us, rid)

    def test_arrival_order_invariance(self, rng):
        encoder = make_encoder((16, 2, 8), 1)
        requests = make_requests(rng, [5, 9, 9, 17, 9, 5])
        baseline = ModelServingEngine(encoder).serve(requests)
        shuffled = ModelServingEngine(encoder).serve(list(reversed(requests)))
        for rid in baseline:
            assert np.array_equal(baseline[rid], shuffled[rid]), rid

    def test_async_windows_preserve_bits(self, rng):
        """Arrival-deadline window closing changes *when* requests run,
        never their numbers."""
        encoder = make_encoder((16, 2, 8), 1)
        requests = make_requests(rng, [5, 9, 9, 17, 9, 5])
        one_window = ModelServingEngine(encoder).serve(requests)
        for window_us in (25.0, 400.0):
            engine = ModelServingEngine(
                encoder, config=ServingConfig(scheduling="async", window_us=window_us)
            )
            timed = [
                Request(r.request_id, r.activations, arrival_us=i * 50.0)
                for i, r in enumerate(requests)
            ]
            results = engine.serve_continuous(timed)
            for rid in one_window:
                assert np.array_equal(results[rid], one_window[rid]), (window_us, rid)

    def test_exact_mode_pads_nothing(self, rng):
        """The padding block and the batcher come from one config: exact
        mode buckets every length alone, so a ragged window fills every
        bucket row."""
        engine = ModelServingEngine(make_encoder((16, 2, 8), 1))
        engine.serve(make_requests(rng, [5, 8, 3, 5, 12]))
        assert engine.batcher.token_buckets == (1,)
        assert engine.stats()["padding"] == {
            "mode": "exact",
            "valid_tokens": 33,
            "bucket_tokens": 33,
            "fill": 1.0,
        }

class TestPlanCache:
    def test_cold_engine_counts_misses_then_hits(self, rng):
        encoder = make_encoder((16, 2, 8), 2)
        engine = ModelServingEngine(encoder, config=ServingConfig(warm=False))
        assert engine.stats()["plan_cache"]["size"] == 0
        engine.serve(make_requests(rng, [9, 9]))  # one exact-length batch
        stats = engine.stats()
        assert stats["plan_cache"]["misses"] == 12  # built on first batch
        assert stats["plan_cache"]["hits"] == 0
        engine.serve(make_requests(rng, [9, 9], prefix="again"))
        stats = engine.stats()
        assert stats["plan_cache"]["misses"] == 12  # never rebuilt
        assert stats["plan_cache"]["hits"] == 12

    def test_warmed_engine_never_misses(self, rng):
        engine = ModelServingEngine(
            make_encoder((8, 2, 4), 1), config=ServingConfig(warm_buckets=(9,))
        )
        for window in range(3):
            engine.serve(make_requests(rng, [9, 9, 9], prefix=f"w{window}"))
        stats = engine.stats()
        assert stats["plan_cache"]["misses"] == 0
        assert stats["plan_cache"]["hits"] == 3 * 6

    def test_registry_plans_are_the_execution_path_plans(self):
        """The registry must not shadow the kernel path: its entries are
        the very objects SpmmPlan.for_matrix memoizes on each weight (what
        the dispatcher's spatha backend executes through), so a registry
        hit is genuine cross-request plan reuse."""
        from repro.kernels.spatha import SpmmPlan

        engine = ModelServingEngine(make_encoder((16, 2, 8), 1))
        for name, layer in engine.encoder.named_sparse_layers():
            assert engine.plans[name] is SpmmPlan.for_matrix(layer.operand.vnm)

    def test_warm_buckets_prepay_dispatch_ranking(self):
        engine = ModelServingEngine(
            make_encoder((16, 2, 8), 1), config=ServingConfig(warm_buckets=(9, 17))
        )
        warm_stats = engine.dispatcher.cache_stats()
        assert warm_stats["size"] > 0
        # Every (operand, bucket) pair was visited at warm time; same-shape
        # projections (q/k/v/o share 64x64 at one sparsity) legitimately
        # alias to one signature, so later visits are already cache hits.
        assert warm_stats["hits"] + warm_stats["misses"] == 6 * 2
        assert warm_stats["misses"] == warm_stats["size"]


class TestDispatcherIsolation:
    def test_engines_do_not_share_memoized_signatures(self, rng):
        """Regression: two engines with injected dispatchers must keep
        fully independent decision caches (and leave the process-wide
        default dispatcher untouched)."""
        default_before = default_dispatcher().cache_size()
        dispatcher_a = KernelDispatcher(name="engine-a")
        dispatcher_b = KernelDispatcher(name="engine-b")
        engine_a = ModelServingEngine(make_encoder((16, 2, 8), 1), dispatcher=dispatcher_a)
        engine_b = ModelServingEngine(make_encoder((16, 2, 8), 1), dispatcher=dispatcher_b)

        engine_a.serve(make_requests(rng, [9, 9, 17]))
        assert dispatcher_a.cache_size() > 0
        assert dispatcher_b.cache_size() == 0  # b never served traffic
        assert dispatcher_b.cache_stats()["misses"] == 0

        size_a = dispatcher_a.cache_size()
        engine_b.serve(make_requests(rng, [9, 9, 17]))
        assert dispatcher_a.cache_size() == size_a  # b's traffic never hit a
        dispatcher_b.clear_cache()
        assert dispatcher_a.cache_size() == size_a
        assert default_dispatcher().cache_size() == default_before

    def test_injected_dispatcher_routes_every_sparse_layer(self):
        dispatcher = KernelDispatcher(name="routed")
        engine = ModelServingEngine(make_encoder((16, 2, 8), 2), dispatcher=dispatcher)
        for _, layer in engine.encoder.named_sparse_layers():
            assert layer.dispatcher is dispatcher

    def test_layers_sparsified_after_construction_fail_loudly(self, rng):
        """Regression: the routing guard must see the encoder's *live*
        layers — a projection sparsified after the engine was built carries
        no engine dispatcher and must not silently execute through the
        process-wide default."""
        cfg = tiny_config(hidden_size=HIDDEN, num_layers=1, num_heads=4, intermediate_size=128)
        encoder = TransformerEncoder.init(cfg, seed=5)
        sparsify_encoder(
            encoder,
            VNMSparsifier(n=2, m=8, v=16),
            weight_filter=lambda name: name.split(".", 3)[-1].startswith("ffn."),
        )
        engine = ModelServingEngine(encoder)
        engine.serve(make_requests(rng, [9, 9]))
        default_size = default_dispatcher().cache_size()
        sparsify_encoder(  # the attention projections join later
            encoder,
            VNMSparsifier(n=2, m=8, v=16),
            weight_filter=lambda name: name.split(".", 3)[-1].startswith("attention."),
        )
        with pytest.raises(RuntimeError, match="no longer routed"):
            engine.serve(make_requests(rng, [9, 9], prefix="late"))
        assert default_dispatcher().cache_size() == default_size

    def test_displaced_engine_fails_loudly_not_silently(self, rng):
        """Regression: a second engine on the SAME encoder re-routes the
        sparse layers; the displaced engine must refuse to serve (it would
        otherwise execute through — and populate the caches of — a
        dispatcher its trace does not report)."""
        encoder = make_encoder((16, 2, 8), 1)
        engine_a = ModelServingEngine(encoder, config=ServingConfig(name="engine-a"))
        engine_a.serve(make_requests(rng, [9, 9]))  # fine while it owns routing
        engine_b = ModelServingEngine(encoder, config=ServingConfig(name="engine-b"))
        with pytest.raises(RuntimeError, match="no longer routed"):
            engine_a.serve(make_requests(rng, [9, 9], prefix="late"))
        # The new owner serves normally.
        engine_b.serve(make_requests(rng, [9, 9], prefix="fresh"))


class TestModelEngineApi:
    def test_rejects_non_encoder(self):
        with pytest.raises(TypeError):
            ModelServingEngine(object())

    def test_rejects_unknown_padding_mode(self):
        with pytest.raises(ValueError, match="padding"):
            ModelServingEngine(make_encoder((16, 2, 8), 1), config=ServingConfig(padding="zeros"))

    def test_feature_mismatch_rejected_with_clear_error(self, rng):
        engine = ModelServingEngine(make_encoder((16, 2, 8), 1))
        bad = Request("bad", rng.normal(size=(4, HIDDEN + 1)).astype(np.float32))
        with pytest.raises(ValueError, match="hidden size"):
            engine.submit(bad)
        good = make_requests(rng, [4])[0]
        with pytest.raises(ValueError, match="hidden size"):
            engine.serve([good, bad])
        assert engine.batcher.pending == 0  # atomic intake

    def test_padded_path_shares_intake_validation(self, rng):
        """The padded mode reuses _validate: a mismatched request fails at
        intake with the same message naming the request id and the
        expected hidden width, and leaves nothing queued."""
        engine = ModelServingEngine(
            make_encoder((16, 2, 8), 1), config=ServingConfig(padding="ladder")
        )
        bad = Request("bad-padded", rng.normal(size=(4, HIDDEN + 1)).astype(np.float32))
        with pytest.raises(ValueError, match=r"'bad-padded'.*\b64\b"):
            engine.submit(bad)
        good = make_requests(rng, [4])[0]
        with pytest.raises(ValueError, match=r"'bad-padded'.*\b64\b"):
            engine.serve([good, bad])
        assert engine.batcher.pending == 0  # atomic intake in padded mode too

    def test_per_layer_trace_aggregation(self, rng):
        engine = ModelServingEngine(make_encoder((16, 2, 8), 2))
        engine.serve(make_requests(rng, [9, 9, 17]))  # two exact-length batches
        assert engine.total_batches == 2
        # One modelled execution per projection per micro-batch.
        assert len(engine.trace.executions) == 2 * 12
        per_layer = engine.per_layer_times()
        assert set(per_layer) == {name for name, _ in engine.encoder.named_linear_layers()}
        assert all(t > 0 for t in per_layer.values())
        backends = {e.meta["backend"] for e in engine.trace.executions}
        assert backends <= {"spatha-plan", "cublas-dense"}
        assert engine.stats()["modelled_kernel_time_us"] == pytest.approx(
            sum(per_layer.values())
        )

    def test_equal_shape_micro_batches_share_their_records(self, rng):
        """A ``(B, rung)`` shape's launches are built once: a later
        micro-batch of the shape appends the very same record objects."""
        engine = ModelServingEngine(make_encoder((16, 2, 8), 2))
        engine.serve(make_requests(rng, [9, 9]))
        engine.serve(make_requests(rng, [17]))
        engine.serve(make_requests(rng, [9, 9], prefix="again"))
        first, other, again = (engine.trace.executions[i * 12:(i + 1) * 12] for i in range(3))
        assert all(a is b for a, b in zip(first, again))
        assert not any(a is b for a, b in zip(first, other))
        assert len({id(e) for e in engine.trace.executions}) == 2 * 12

    def test_trace_records_are_read_only(self, rng):
        """Shared records cannot be annotated in place: their meta is a
        read-only mapping (and the record itself is frozen)."""
        engine = ModelServingEngine(make_encoder((16, 2, 8), 1))
        engine.serve(make_requests(rng, [9]))
        record = engine.trace.executions[0]
        with pytest.raises(TypeError):
            record.meta["layer"] = "elsewhere"
        assert record.meta["layer"] == "encoder.layer.0.attention.query"

    def test_a_launch_costs_the_trace_one_list_slot(self, rng):
        """200 one-request micro-batches of one shape: the engine's retained
        memory grows by well under 100 bytes per modelled launch (a fresh
        record and meta dict per launch cost ~550)."""
        engine = ModelServingEngine(make_encoder((16, 2, 8), 2))
        requests = make_requests(rng, [8] * 201)
        engine.serve(requests[:1])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for req in requests[1:]:
                engine.serve([req])
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(engine.trace.executions) == 201 * 12
        assert grown / (200 * 12) < 100

    @pytest.mark.parametrize("batch_size,tokens", [(1, 8), (3, 8), (2, 24), (4, 16)])
    @pytest.mark.parametrize("pattern", [(16, 2, 8), None], ids=["sparse", "dense"])
    def test_each_launch_is_the_dispatchers_estimate(self, rng, pattern, batch_size, tokens):
        """One same-length window: one ``gemm`` launch per projection, in
        forward order, each the dispatcher's estimate at ``B × S`` columns
        on the backend its signature ranks first."""
        if pattern is None:
            cfg = tiny_config(hidden_size=HIDDEN, num_layers=1, num_heads=4, intermediate_size=128)
            encoder = TransformerEncoder.init(cfg, seed=0)
        else:
            encoder = make_encoder(pattern, 1)
        engine = ModelServingEngine(encoder, config=ServingConfig(name="launches"))
        engine.serve(make_requests(rng, [tokens] * batch_size))
        layers = list(encoder.named_linear_layers())
        assert len(engine.trace.executions) == len(layers)
        for (name, lin), e in zip(layers, engine.trace.executions):
            backend = engine.dispatcher.dispatch(lin.operand, tokens).backend
            expected = engine.dispatcher.estimate(lin.operand, batch_size * tokens, backend=backend)
            assert e.category == "gemm" and e.time_us == expected.time_us
            assert {k: e.meta[k] for k in ("serving", "layer", "backend", "batch_size", "tokens")} == {
                "serving": "launches",
                "layer": name,
                "backend": backend,
                "batch_size": batch_size,
                "tokens": tokens,
            }

    @pytest.mark.parametrize("rung", [8, 16, 32])
    def test_on_rung_lengths_trace_alike_under_both_paddings(self, rng, rung):
        """Lengths that sit on a ladder rung form the same micro-batches
        either way, so both engines model the same launches."""
        requests = make_requests(rng, [rung] * 3)
        traces = []
        for padding in ("exact", "ladder"):
            engine = ModelServingEngine(
                make_encoder((16, 2, 8), 1), config=ServingConfig(padding=padding, name="rung")
            )
            engine.serve(requests)
            traces.append([(e.kernel, e.time_us, e.meta) for e in engine.trace.executions])
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("kind", ["encoder", "decoder"])
    def test_mixed_dense_sparse_encoder_stays_bit_exact(self, rng, kind):
        """Only the FFN sparsified: the attention projections run dense
        through the same dispatcher, and every engine still serves the
        sequential bits."""
        cfg = tiny_config(hidden_size=HIDDEN, num_layers=2, num_heads=4, intermediate_size=128)
        encoder = TransformerEncoder.init(cfg, seed=3)
        sparsify_encoder(
            encoder,
            VNMSparsifier(n=2, m=8, v=16),
            weight_filter=lambda name: name.split(".", 3)[-1].startswith("ffn."),
        )
        assert encoder.count_sparse_layers() == 4
        lengths = [5, 9, 9, 17]
        if kind == "decoder":
            engine = create_engine(encoder, kind="decoder")
            requests = [
                DecodeRequest(f"dec-{i}", rng.normal(size=(t, HIDDEN)).astype(np.float32), 3)
                for i, t in enumerate(lengths)
            ]
            served = engine.serve(requests)
            for request in requests:
                expected = decode_reference(encoder, request.prompt, request.new_tokens)
                assert np.array_equal(served[request.request_id], expected)
            return
        engine = ModelServingEngine(encoder)
        requests = make_requests(rng, lengths)
        batched = engine.serve(requests)
        for request in requests:
            sequential = encoder.forward(request.activations[None])[0]
            assert np.array_equal(batched[request.request_id], sequential)

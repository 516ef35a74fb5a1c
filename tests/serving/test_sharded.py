"""Golden correctness matrix for sharded multi-device serving.

The acceptance property of the sharding tentpole: serving an encoder split
across N simulated devices through :class:`ShardedDispatcher` is
**bit-for-bit** equal to single-device ``TransformerEncoder.forward`` on a
twin encoder, for every cell of a (shards x V:N:M pattern x padding x
backend) grid — sharding changes where each projection executes and what
communication is modelled, never the arithmetic.  Smoke subsets crossing
every axis stay in tier-1; the full matrix is marked ``slow``.  One
continuous-batching cell pins that sharding composes with the step loop,
and a decode cell pins composition with the paged-KV decoder.
"""

import os

import numpy as np
import pytest

from repro.hardware.spec import NVLINK, PCIE4
from repro.integration import VNMSparsifier, sparsify_encoder
from repro.kernels.dispatch import CublasDenseBackend, KernelDispatcher
from repro.models import TransformerEncoder, tiny_config
from repro.models.distributed import (
    encoder_layer_graph,
    partition_min_cut,
    partition_round_robin,
    placement_comm_events,
)
from repro.serving import (
    ContinuousBatcher,
    DecodeRequest,
    DecoderServingEngine,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ModelServingEngine,
    Request,
    ServingConfig,
    ShardedDispatcher,
    SimulatedRequest,
    simulate,
)

HIDDEN = 64
#: The CI chaos job replays the ``faults`` tests with several seeds.
FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def make_encoder(pattern, num_layers, seed=0):
    v, n, m = pattern
    cfg = tiny_config(
        hidden_size=HIDDEN, num_layers=num_layers, num_heads=4, intermediate_size=128
    )
    encoder = TransformerEncoder.init(cfg, seed=seed)
    sparsify_encoder(encoder, VNMSparsifier(n=n, m=m, v=v))
    return encoder


def make_requests(rng, lengths, prefix="req"):
    return [
        Request(f"{prefix}-{i:04d}", rng.normal(size=(t, HIDDEN)).astype(np.float32))
        for i, t in enumerate(lengths)
    ]


def sharded_dispatcher(num_shards, backend):
    kwargs = {}
    if backend == "cublas-dense":
        kwargs["backends"] = [CublasDenseBackend()]
    return ShardedDispatcher(num_shards=num_shards, **kwargs)


def assert_sharded_golden_cell(num_shards, pattern, padding, backend, rng):
    """One grid cell: sharded serving == single-device twin, bit for bit."""
    lengths = [3, 7, 7, 12] if padding == "exact" else [3, 7, 9, 12, 16, 17]
    # The twin runs unsharded on its own single-device dispatcher.
    twin = make_encoder(pattern, 2)
    twin.set_dispatcher(
        KernelDispatcher(backends=[CublasDenseBackend()])
        if backend == "cublas-dense"
        else KernelDispatcher()
    )
    encoder = make_encoder(pattern, 2)
    engine = ModelServingEngine(
        encoder,
        dispatcher=sharded_dispatcher(num_shards, backend),
        config=ServingConfig(padding=padding, name=f"sharded-{num_shards}-{backend}"),
    )
    requests = make_requests(rng, lengths)
    batched = engine.serve(requests)
    assert set(batched) == {r.request_id for r in requests}
    for request in requests:
        single_device = twin.forward(request.activations[None])[0]
        assert np.array_equal(batched[request.request_id], single_device), (
            f"sharded cell (shards={num_shards}, pattern={pattern}, "
            f"padding={padding}, backend={backend}) "
            f"diverged on {request.request_id} (tokens={request.tokens})"
        )
    # Every projection routed somewhere; all shards carried work.  Exact
    # mode runs each projection once per micro-batch; ladder mode's masked
    # attention additionally groups by true length, so calls only grow.
    stats = engine.stats()["sharding"]
    assert stats["tp_degree"] == num_shards
    if padding == "exact":
        assert sum(stats["per_shard_calls"]) == engine.stats()["batches"] * 12
    else:
        assert sum(stats["per_shard_calls"]) >= engine.stats()["batches"] * 12
    assert all(calls > 0 for calls in stats["per_shard_calls"])
    assert stats["load_balance"] is not None and stats["load_balance"] >= 1.0
    if num_shards > 1:
        assert stats["cut_bytes_per_token"] > 0.0
        assert stats["comm_time_us"] > 0.0
        assert stats["comm_events"] > 0
        # Modelled comm kernels landed on the serving trace.
        # stats round to 3 decimals; the trace carries full precision.
        assert engine.trace.comm_time_us() == pytest.approx(stats["comm_time_us"], abs=1e-3)
    return engine


PATTERNS = [(16, 2, 8), (8, 2, 4)]
SHARD_COUNTS = [2, 4]
PADDINGS = ["exact", "ladder"]
BACKENDS = ["auto", "cublas-dense"]

FULL_GRID = [
    (s, p, pad, b) for s in SHARD_COUNTS for p in PATTERNS for pad in PADDINGS for b in BACKENDS
]

#: Tier-1 smoke subset crossing every axis: both shard counts, both
#: patterns, both paddings, both backends.
SMOKE_GRID = [
    (2, (16, 2, 8), "exact", "auto"),
    (4, (8, 2, 4), "ladder", "auto"),
    (2, (8, 2, 4), "ladder", "cublas-dense"),
    (4, (16, 2, 8), "exact", "cublas-dense"),
]


class TestShardedGoldenMatrix:
    @pytest.mark.parametrize("num_shards,pattern,padding,backend", SMOKE_GRID)
    def test_smoke_cells(self, rng, num_shards, pattern, padding, backend):
        assert_sharded_golden_cell(num_shards, pattern, padding, backend, rng)

    @pytest.mark.slow
    @pytest.mark.parametrize("num_shards,pattern,padding,backend", FULL_GRID)
    def test_full_matrix(self, rng, num_shards, pattern, padding, backend):
        assert_sharded_golden_cell(num_shards, pattern, padding, backend, rng)

    def test_continuous_batching_cell(self, rng):
        """Sharding composes with the continuous step loop, bit for bit."""
        twin = make_encoder((16, 2, 8), 2)
        twin.set_dispatcher(KernelDispatcher())
        encoder = make_encoder((16, 2, 8), 2)
        engine = ModelServingEngine(
            encoder,
            dispatcher=sharded_dispatcher(2, "auto"),
            config=ServingConfig(
                scheduling="continuous", padding="ladder", step_us=50.0, name="sharded-continuous"
            ),
        )
        assert isinstance(engine.batcher, ContinuousBatcher)
        requests = [
            Request(r.request_id, r.activations, arrival_us=25.0 * i)
            for i, r in enumerate(make_requests(rng, [3, 7, 9, 12, 16]))
        ]
        results = engine.serve_continuous(requests)
        assert set(results) == {r.request_id for r in requests}
        for request in requests:
            single_device = twin.forward(request.activations[None])[0]
            assert np.array_equal(results[request.request_id], single_device)
        assert engine.stats()["continuous"]["completions"] == len(requests)
        assert engine.stats()["sharding"]["comm_time_us"] > 0.0

    def test_decoder_cell(self, rng):
        """Sharding composes with paged-KV decode serving, bit for bit."""
        prompts = [rng.normal(size=(t, HIDDEN)).astype(np.float32) for t in (4, 7)]
        single = DecoderServingEngine(
            make_encoder((16, 2, 8), 2), config=ServingConfig(name="decode-single")
        )
        sharded = DecoderServingEngine(
            make_encoder((16, 2, 8), 2),
            config=ServingConfig(tp_degree=2),
        )
        assert isinstance(sharded.dispatcher, ShardedDispatcher)
        jobs = [
            DecodeRequest(f"d{i}", prompt=p, new_tokens=3) for i, p in enumerate(prompts)
        ]
        base = single.serve([DecodeRequest(f"d{i}", prompt=p, new_tokens=3)
                             for i, p in enumerate(prompts)])
        outs = sharded.serve(jobs)
        assert set(outs) == set(base)
        for rid in base:
            assert np.array_equal(outs[rid], base[rid])
        stats = sharded.stats()["sharding"]
        assert stats["tp_degree"] == 2
        assert sum(stats["per_shard_calls"]) > 0


@pytest.mark.faults
def test_fault_injection_composes_with_sharding(rng):
    """A sharded engine's dispatcher arms like any other (it used to raise
    ``AttributeError``: the shards' backends were out of the injector's
    reach).  Under the same seeded ``spatha-plan`` failures a ``tp_degree=2``
    engine records the outcomes, breaker traffic and outputs of the
    ``tp_degree=1`` engine, every ``ok`` output is the request's own
    ``encoder.forward``, and ``disarm`` restores the backends."""
    requests = make_requests(rng, [3, 7, 9, 12, 16, 17])
    reference = make_encoder((16, 2, 8), 2)
    runs = {}
    for tp_degree in (1, 2):
        engine = ModelServingEngine(
            make_encoder((16, 2, 8), 2),
            config=ServingConfig(padding="ladder", tp_degree=tp_degree),
        )
        originals = list(engine.dispatcher.backends)
        plan = FaultPlan.seeded(["spatha-plan"], seed=FAULT_SEED, failure_rate=0.5)
        injector = FaultInjector(plan).arm(engine.dispatcher)
        results = engine.serve(requests)
        injector.disarm(engine.dispatcher)
        assert engine.dispatcher.backends == originals
        assert isinstance(engine.dispatcher, KernelDispatcher)
        assert injector.injected_failures > 0
        runs[tp_degree] = (
            {rid: outcome.status for rid, outcome in engine.outcomes.items()},
            results,
            engine.stats()["dispatch_health"],
        )
    (outcomes, results, health), (sharded_outcomes, sharded_results, sharded_health) = (
        runs[1],
        runs[2],
    )
    assert sharded_outcomes == outcomes
    assert sharded_health == health and health["failovers"] > 0
    assert set(sharded_results) == set(results)
    for request in requests:
        if outcomes[request.request_id] == "ok":
            expected = reference.forward(request.activations[None])[0]
            assert np.array_equal(results[request.request_id], expected)
            assert np.array_equal(sharded_results[request.request_id], expected)


class TestShardedDispatcherSurface:
    def test_unbound_operand_falls_back_to_shard_zero(self, rng):
        dispatcher = ShardedDispatcher(num_shards=3)
        encoder = make_encoder((16, 2, 8), 1)
        _, lin = next(iter(encoder.named_linear_layers()))
        operand = lin.operand
        assert dispatcher.shard_of(operand) == 0

    def test_bind_assigns_every_projection(self):
        dispatcher = ShardedDispatcher(num_shards=2)
        encoder = make_encoder((16, 2, 8), 2)
        placement = dispatcher.bind_encoder(encoder)
        owners = placement.as_dict()
        assert len(owners) == 12
        assert set(owners.values()) == {0, 1}
        for name, lin in encoder.named_linear_layers():
            operand = getattr(lin, "operand", None)
            if operand is not None:
                assert dispatcher.shard_of(operand) == owners[name]

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_bind_places_by_balanced_min_cut(self, num_shards):
        """Placement has one policy: the bound placement is
        ``partition_min_cut`` of the encoder's layer graph, within
        round-robin's balance cap and never cutting more than it, and the
        comm events are that placement's."""
        dispatcher = ShardedDispatcher(num_shards=num_shards)
        encoder = make_encoder((16, 2, 8), 2)
        placement = dispatcher.bind_encoder(encoder)
        graph = encoder_layer_graph(encoder)
        assert placement.assignment == partition_min_cut(graph, num_shards).assignment
        rr = partition_round_robin(graph, num_shards)
        assert placement.cut_bytes_per_token <= rr.cut_bytes_per_token
        assert placement.load_spread <= rr.load_spread
        assert dispatcher.comm_events == placement_comm_events(placement)

    def test_warm_many_groups_per_shard(self):
        dispatcher = ShardedDispatcher(num_shards=2)
        encoder = make_encoder((16, 2, 8), 2)
        dispatcher.bind_encoder(encoder)
        operands = [lin.operand for _, lin in encoder.named_sparse_layers()]
        warmed = dispatcher.warm_many(operands, cs=(8,))
        assert warmed == len(operands)

    def test_stats_merge_across_shards(self):
        dispatcher = ShardedDispatcher(num_shards=2)
        health = dispatcher.health_stats()
        assert health["failures"] == 0 and health["quarantined"] == []
        cache = dispatcher.cache_stats()
        assert cache["size"] == 0
        dispatcher.clear_cache()  # no-op on fresh shards, must not raise

    def test_slower_link_costs_more_comm(self):
        """Each comm kernel is its event's ring-model time over ``NVLINK``;
        the same events over the slower ``PCIE4`` cost more."""
        dispatcher = ShardedDispatcher(num_shards=2)
        dispatcher.bind_encoder(make_encoder((16, 2, 8), 2))
        kernels = dispatcher.comm_kernels(tokens=64)
        assert len(kernels) == len(dispatcher.comm_events) > 0
        for kernel, event in zip(kernels, dispatcher.comm_events):
            assert kernel.time_us == event.time_us(64, NVLINK)
        t_fast = sum(k.time_us for k in kernels)
        t_slow = sum(event.time_us(64, PCIE4) for event in dispatcher.comm_events)
        assert t_slow > t_fast > 0.0

    def test_estimate_is_a_query_not_a_charge(self, rng):
        """Per-shard load is what the engine served, however often anyone
        asks the dispatcher for an estimate."""
        encoder = make_encoder((16, 2, 8), 1)
        engine = ModelServingEngine(
            encoder, config=ServingConfig(tp_degree=2)
        )
        engine.serve(make_requests(rng, [8, 8, 8, 8]))
        before = engine.dispatcher.sharding_stats()
        assert sum(before["per_shard_modelled_us"]) == pytest.approx(
            engine.trace.gemm_time_us(), abs=1e-3
        )
        assert all(us > 0.0 for us in before["per_shard_modelled_us"])
        for _, lin in encoder.named_sparse_layers():
            for _ in range(10):
                engine.dispatcher.estimate(lin.operand, 8)
        assert engine.dispatcher.sharding_stats() == before
        engine.serve(make_requests(rng, [5, 12, 12], prefix="more"))
        after = engine.dispatcher.sharding_stats()
        assert sum(after["per_shard_modelled_us"]) == pytest.approx(
            engine.trace.gemm_time_us(), abs=1e-3
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedDispatcher(num_shards=0)


class TestLoadAttribution:
    """Per-shard modelled load is what the engines recorded, each launch
    charged to the shard that owns its projection, by every engine."""

    def test_model_engine_charges_each_projection_to_its_owner(self, rng):
        encoder = make_encoder((16, 2, 8), 2)
        engine = ModelServingEngine(
            encoder,
            config=ServingConfig(padding="ladder", tp_degree=2),
        )
        engine.serve(make_requests(rng, [3, 9, 12, 16, 17]))
        layers = dict(encoder.named_sparse_layers())
        owed = [0.0, 0.0]
        for execution in engine.trace.executions:
            if execution.category == "gemm":
                operand = layers[execution.meta["layer"]].operand
                owed[engine.dispatcher.shard_of(operand)] += execution.time_us
        assert all(us > 0.0 for us in owed)
        assert engine.dispatcher.shard_modelled_us == pytest.approx(owed, abs=1e-9)

    def test_simulator_charges_each_projection_to_its_owner(self):
        """The simulator binds the encoder's placement: each traced launch
        is charged to the shard that owns its projection, both shards
        carry load, and the collectives are charged per length group."""
        encoder = make_encoder((16, 2, 8), 2)
        config = ServingConfig(padding="ladder", tp_degree=2)
        requests = [
            SimulatedRequest(f"s{i}", tokens=t, arrival_us=10.0 * i)
            for i, t in enumerate([3, 9, 12, 16, 17])
        ]
        report = simulate(encoder, requests, config)
        placement = ShardedDispatcher(num_shards=2)
        placement.bind_encoder(encoder)
        layers = dict(encoder.named_linear_layers())
        owed = [0.0, 0.0]
        for execution in report.trace.executions:
            if execution.category == "gemm":
                owed[placement.shard_of(layers[execution.meta["layer"]].operand)] += execution.time_us
        sharding = report.sharding
        assert sharding["tp_degree"] == 2
        assert all(us > 0.0 for us in sharding["per_shard_modelled_us"])
        assert sharding["per_shard_modelled_us"] == pytest.approx(owed, abs=1e-2)
        comm = [e for e in report.trace.executions if e.category == "comm"]
        assert comm and sharding["comm_time_us"] > 0.0
        assert sharding["comm_time_us"] == pytest.approx(sum(e.time_us for e in comm), abs=1e-2)
        # Every length group (one launch of the first projection each)
        # charges the placement's collectives once.
        first = next(iter(layers))
        groups = sum(1 for e in report.trace.executions if e.category == "gemm" and e.meta["layer"] == first)
        assert sharding["comm_events"] == len(comm) == len(placement.comm_events) * groups

    def test_modelled_engine_charges_every_attempt(self):
        """The simulator charges failed attempts too: with one injected
        failure the shards carry more than the traced (served) GEMM time —
        with the collectives, exactly the serial stream's makespan — and
        estimates made along the way add nothing."""
        encoder = make_encoder((16, 2, 8), 1)
        dispatcher = ShardedDispatcher(num_shards=2)
        requests = [SimulatedRequest(f"s{i}", tokens=8) for i in range(6)]
        config = ServingConfig(padding="ladder")
        clean = simulate(encoder, requests, config, dispatcher=dispatcher)
        assert sum(dispatcher.shard_modelled_us) == pytest.approx(clean.trace.gemm_time_us())
        before, comm_before = list(dispatcher.shard_modelled_us), dispatcher.comm_time_us
        _, first = next(encoder.named_linear_layers())
        chosen = dispatcher.dispatch(first.operand, 8).backend
        plan = FaultPlan([FaultSpec(backend=chosen, kind="transient", at_call=0, count=1)])
        faulted = simulate(encoder, requests, config, plan, dispatcher=dispatcher)
        charged = [after - b for after, b in zip(dispatcher.shard_modelled_us, before)]
        comm = dispatcher.comm_time_us - comm_before
        assert faulted.injected_failures == 1 and faulted.failovers == 1
        assert sum(charged) > faulted.trace.gemm_time_us()
        assert sum(charged) + comm == pytest.approx(faulted.makespan_us)
        assert comm == pytest.approx(faulted.trace.total_time_us - faulted.trace.gemm_time_us())

    def test_single_device_dispatcher_attributes_nothing(self, rng):
        encoder = make_encoder((16, 2, 8), 1)
        engine = ModelServingEngine(encoder)
        engine.serve(make_requests(rng, [5, 8]))
        before = engine.dispatcher.sharding_stats()
        _, lin = next(iter(encoder.named_sparse_layers()))
        engine.dispatcher.attribute_modelled(lin.operand, 123.0)
        assert engine.dispatcher.sharding_stats() == before
        assert before["per_shard_modelled_us"] == []

"""ServingConfig API: one typed home for engine knobs, across all engines.

Pins the api_redesign contract: every serving engine constructs from a
:class:`ServingConfig` (directly or through :func:`create_engine`), the
legacy per-engine keywords are gone (they raise ``TypeError``), and both
engines report one normalized ``stats()`` schema — the ``outcomes`` /
``admission`` / ``continuous`` / ``dispatch_health`` blocks are always
present, zeroed when the corresponding feature is unused.
"""

import gc
import warnings
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.integration import VNMSparsifier, sparsify_encoder
from repro.kernels.dispatch import KernelDispatcher
from repro.models import TransformerEncoder, tiny_config
from repro.serving import (
    ContinuousBatcher,
    DecodeRequest,
    DecoderServingEngine,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ModelServingEngine,
    Request,
    SchedulingConfig,
    ServingConfig,
    SimulatedRequest,
    create_engine,
    simulate,
    uniform_arrivals,
)

HIDDEN = 64


@pytest.fixture
def rng():
    return np.random.default_rng(0xBEEF)


def make_encoder(seed=0, num_layers=1):
    cfg = tiny_config(
        hidden_size=HIDDEN, num_layers=num_layers, num_heads=4, intermediate_size=128
    )
    encoder = TransformerEncoder.init(cfg, seed=seed)
    sparsify_encoder(encoder, VNMSparsifier(n=2, m=4, v=16))
    return encoder


#: Every option a caller sets, and nothing else: a new field needs a caller.
SERVING_OPTIONS = (
    "name", "scheduling", "padding", "max_batch_size", "window_us", "step_us",
    "max_queue_depth", "shed_policy", "kv_budget_blocks", "block_size",
    "capacity_blocks", "warm", "warm_buckets", "scheduling_policy",
)


class TestServingConfig:
    def test_defaults_validate(self):
        config = ServingConfig()
        assert config.scheduling == "continuous"
        assert config.padding == "exact"

    def test_fields_are_the_options_callers_set(self):
        assert tuple(f.name for f in fields(ServingConfig)) == SERVING_OPTIONS

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scheduling": "sometimes"},
            {"scheduling": "window"},
            {"padding": "diagonal"},
            {"window_us": -1.0},
            {"step_us": -1.0},
            {"max_batch_size": 0},
            {"block_size": 0},
            {"capacity_blocks": 0},
            {"max_batch_size": -3},
            {"scheduling": "Continuous"},
            {"padding": ""},
            {"shed_policy": "coin-flip"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)

    def test_build_batcher_is_always_continuous(self):
        """One batcher for every engine kind; ``"async"`` only adds the
        ``window_us`` hold."""
        for kind in ("encoder", "decoder"):
            plain = ServingConfig().build_batcher(kind=kind)
            held = ServingConfig(scheduling="async", window_us=250.0).build_batcher(kind=kind)
            assert isinstance(plain, ContinuousBatcher) and plain.window_us == 0.0
            assert isinstance(held, ContinuousBatcher) and held.window_us == 250.0

    def test_build_batcher_picks_the_buckets(self):
        """The one place buckets are chosen: ``(1,)`` for an exact-length
        encoder, else the default ladder."""
        ladder = ContinuousBatcher.ladder().token_buckets
        assert ServingConfig().build_batcher(kind="encoder").token_buckets == (1,)
        assert ServingConfig().build_batcher(kind="decoder").token_buckets == ladder
        for kind in ("encoder", "decoder"):
            laddered = ServingConfig(padding="ladder").build_batcher(kind=kind)
            assert laddered.token_buckets == ladder

    def test_scheduling_policy_type_checked(self):
        with pytest.raises(TypeError):
            ServingConfig(scheduling_policy="priority")

    def test_admission_and_policy_bind_under_every_mode(self):
        active = SchedulingConfig(policy="priority", class_weights=(1, 2))
        for scheduling in ("async", "continuous"):
            batcher = ServingConfig(
                scheduling=scheduling, max_queue_depth=4, scheduling_policy=active
            ).build_batcher()
            assert batcher.scheduling is active
            assert batcher.max_queue_depth == 4


class TestCreateEngine:
    def test_routes_by_target_and_kind(self):
        encoder = make_encoder()
        assert isinstance(create_engine(encoder), ModelServingEngine)
        assert isinstance(create_engine(encoder, kind="decoder"), DecoderServingEngine)
        _, projection = next(encoder.named_linear_layers())
        for kind in ("encoder", "decoder"):
            with pytest.raises(TypeError, match="TransformerEncoder"):
                create_engine(projection.operand, kind=kind)
        for kind in ("operand", "banana"):
            with pytest.raises(ValueError, match="unknown engine kind"):
                create_engine(encoder, kind=kind)

    def test_build_batcher_rejects_an_unknown_kind(self):
        for kind in ("operand", "banana"):
            with pytest.raises(ValueError, match="unknown engine kind"):
                ServingConfig().build_batcher(kind=kind)

    def test_config_drives_both_engines(self, rng):
        config = ServingConfig(name="cfg-driven", scheduling="continuous", step_us=10.0)
        named = create_engine(make_encoder(), config=config)
        assert named.name == "cfg-driven"
        assert isinstance(named.batcher, ContinuousBatcher)
        model_engine = create_engine(make_encoder(), config=ServingConfig(padding="ladder"))
        assert model_engine.padding == "ladder"
        decoder = create_engine(
            make_encoder(),
            kind="decoder",
            config=ServingConfig(block_size=8, capacity_blocks=64),
        )
        assert decoder.kv.block_size == 8
        # The configured engines actually serve.
        x = rng.normal(size=(5, HIDDEN)).astype(np.float32)
        out = model_engine.serve([Request("r0", x)])
        assert out["r0"].shape == (5, HIDDEN)

    def test_explicit_dispatcher_is_the_engines(self):
        dispatcher = KernelDispatcher()
        for kind in ENGINE_KINDS:
            engine = create_engine(make_encoder(), kind=kind, dispatcher=dispatcher)
            assert engine.dispatcher is dispatcher
            assert all(
                lin.dispatcher is dispatcher for _, lin in engine.encoder.named_linear_layers()
            )


class TestDeprecatedKwargs:
    @pytest.mark.parametrize(
        "engine_cls,kwarg,value",
        [
            (ModelServingEngine, "padding", "ladder"),
            (DecoderServingEngine, "block_size", 8),
            (DecoderServingEngine, "capacity_blocks", 64),
            (DecoderServingEngine, "kv_budget_blocks", 32),
            (ModelServingEngine, "batcher", ContinuousBatcher()),
            (DecoderServingEngine, "batcher", ContinuousBatcher()),
        ],
    )
    def test_removed_engine_keywords_raise(self, engine_cls, kwarg, value):
        """The deprecated aliases are gone: ServingConfig is the only path."""
        with pytest.raises(TypeError, match=kwarg):
            engine_cls(make_encoder(), **{kwarg: value})

    def test_config_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ModelServingEngine(make_encoder(), config=ServingConfig(padding="ladder"))
            DecoderServingEngine(make_encoder(), config=ServingConfig(block_size=8))


#: Normalized stats blocks every engine must expose, feature used or not.
NORMALIZED_BLOCKS = ("outcomes", "admission", "continuous", "dispatch_health")
ZEROED_CLASS = {"shed": 0, "expired": 0, "pending": 0}
#: What an unbounded batcher reports before any traffic.
ZEROED_ADMISSION = {
    "max_queue_depth": None,
    "shed_policy": "reject-newest",
    "shed": 0,
    "expired": 0,
    "pending": 0,
    "kv_budget_blocks": None,
    "kv_reserved": 0,
    "occupied_slots": 0,
    "policy": "fcfs",
    "per_class": {0: ZEROED_CLASS},
}
ENGINE_KINDS = ("encoder", "decoder")
#: Each engine's whole ``stats()`` key set: the shared blocks plus its own.
STATS_KEYS = {
    "encoder": {
        "requests", "batches", "mean_batch_size", "padding", "plan_cache",
        "dispatch_cache", "modelled_kernel_time_us", "per_layer_time_us",
        "sparse_projections", *NORMALIZED_BLOCKS,
    },
    "decoder": {
        "requests", "cache", "decode_steps", "prefills", "prefills_skipped",
        "preemptions", "residents", "stacking",
        *NORMALIZED_BLOCKS,
    },
}


def build_engine(kind, config=None, **kwargs):
    """One engine of ``kind`` through the front door."""
    return create_engine(make_encoder(), config=config, kind=kind, **kwargs)


def make_request(kind, rid, rng, tokens, arrival_us=0.0):
    if kind == "decoder":
        prompt = rng.normal(size=(tokens, HIDDEN)).astype(np.float32)
        return DecodeRequest(rid, prompt, new_tokens=2, arrival_us=arrival_us)
    return Request(
        rid, rng.normal(size=(tokens, HIDDEN)).astype(np.float32), arrival_us=arrival_us
    )


@pytest.mark.parametrize("kind", ENGINE_KINDS)
class TestEngineCoreContract:
    """What both engines inherit from the one ``EngineCore``, asserted
    once per kind instead of once per engine module."""

    def test_shared_stats_blocks_and_zeroed_schemas(self, kind):
        engine = build_engine(kind)
        stats = engine.stats()
        for block in NORMALIZED_BLOCKS:
            assert isinstance(stats[block], dict), f"{kind} lacks {block!r}"
        assert stats["continuous"] == {"steps": 0, "completions": 0}
        assert stats["outcomes"] == {"ok": 0, "failed": 0, "timed_out": 0, "shed": 0}
        # A decoder's KV budget defaults to the whole cache.
        budget = ServingConfig().capacity_blocks if kind == "decoder" else None
        assert stats["admission"] == {**ZEROED_ADMISSION, "kv_budget_blocks": budget}

    def test_stats_keys_are_the_documented_schema(self, kind):
        assert set(build_engine(kind).stats()) == STATS_KEYS[kind]

    def test_engine_without_a_dispatcher_builds_a_private_one(self, kind):
        """Two engines never share memoized signatures unless handed one
        dispatcher: each builds its own, named after it, and routes every
        projection of its encoder through it."""
        first, second = build_engine(kind), build_engine(kind)
        assert type(first.dispatcher) is KernelDispatcher
        assert first.dispatcher is not second.dispatcher
        assert first.dispatcher.name == f"{first.name}.dispatcher"
        for engine in (first, second):
            assert all(
                lin.dispatcher is engine.dispatcher
                for _, lin in engine.encoder.named_linear_layers()
            )

    def test_continuous_batcher_reports_the_same_schema(self, kind):
        engine = build_engine(kind, ServingConfig(scheduling="continuous"))
        admission = engine.stats()["admission"]
        assert set(admission) == set(ZEROED_ADMISSION)
        assert admission["policy"] == "fcfs"
        assert admission["per_class"] == {0: ZEROED_CLASS}

    def test_replay_with_no_ok_request_terminates_with_one_outcome_each(
        self, kind, rng
    ):
        """Every backend fails every call, so every executed batch yields no
        ``ok`` request.  The replay still terminates, every request holds
        exactly one outcome, and the clock follows the unified rule: it
        advances by ``step_us`` after an *executed* step even when nothing
        came out ok (the one-step engines used to advance only ``if out``,
        which ran the second rung's batch at t=0)."""
        engine = build_engine(kind, ServingConfig(scheduling="continuous", step_us=10.0))
        plan = FaultPlan(
            [FaultSpec(backend.name, "persistent") for backend in engine.dispatcher.backends]
        )
        FaultInjector(plan).arm(engine.dispatcher)
        # Two rungs, both arrived at t=0: two steps, one batch each.
        requests = [make_request(kind, "a", rng, 4), make_request(kind, "b", rng, 12)]
        results = engine.serve_continuous(requests)
        assert results == {}
        assert sorted(engine.outcomes) == ["a", "b"]
        assert {o.status for o in engine.outcomes.values()} == {"failed"}
        assert engine.stats()["outcomes"] == {"ok": 0, "failed": 2, "timed_out": 0, "shed": 0}
        assert engine.steps_executed == 2
        assert [engine.outcomes[r].completed_us for r in ("a", "b")] == [0.0, 10.0]
        assert engine.batcher.pending == 0
        assert engine.stats()["admission"]["occupied_slots"] == 0

    def test_dropped_engine_dies_by_refcount(self, kind, rng):
        """No reference cycle through the engine: the decoder used to hand
        its batcher a bound method (engine -> batcher -> engine), so a
        dropped decode engine kept two KV stores and its encoder alive until
        the cyclic collector happened to run — which is what moved
        ``peak_rss_mb`` between benchmark set-ups.  The engines that own
        their encoder free every warmed plan of its weights with it (a plan
        memoized on its matrix used to point back at it).  The decoder's KV
        store goes with it: every K/V extent it ever handed out and every
        kept prefix with its copy of the prompt's rows (the decoder serves
        its prompt twice, so the prompt recurs and its entry is kept)."""
        engine = build_engine(kind)
        extents = []
        if kind == "decoder":
            take = engine.kv._take_extents

            def spy(tokens):
                pair = take(tokens)
                extents.extend(weakref.ref(a) for a in pair)
                return pair

            engine.kv._take_extents = spy
        request = make_request(kind, "r0", rng, 5)
        assert len(engine.serve([request])) == 1
        if kind == "decoder":
            assert len(engine.serve([replace(request, request_id="r1")])) == 1
        refs = [weakref.ref(engine)]
        plans = list(engine.encoder.spmm_plan_registry().values())
        assert plans
        refs += [weakref.ref(p) for p in plans] + [weakref.ref(p.dense16) for p in plans]
        del plans
        if kind == "decoder":
            del engine.kv._take_extents, take, spy  # they hold the cache
            entries = list(engine.kv._prefixes.values())
            assert extents and entries
            refs += extents + [weakref.ref(e) for e in entries]
            refs += [weakref.ref(a) for e in entries for a in (e.keys, e.values)]
            del entries
        gc.collect()
        gc.disable()
        try:
            del engine
            assert [i for i, ref in enumerate(refs) if ref() is not None] == []
        finally:
            gc.enable()


def test_bench_sized_encoder_engine_leaves_no_cyclic_garbage(rng):
    """Build, warm, serve and drop the benchmark's encoder engine (h256 /
    i1024, 2 layers, 16:2:8) with the cyclic collector off: everything goes
    by refcount, so peak RSS cannot depend on when a collection runs."""

    def build_serve_drop():
        cfg = tiny_config(hidden_size=256, intermediate_size=1024, num_layers=2, num_heads=4)
        encoder = TransformerEncoder.init(cfg, seed=0)
        sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
        engine = create_engine(
            encoder, config=ServingConfig(padding="ladder", warm_buckets=(8, 16, 32, 64, 128))
        )
        x = rng.normal(size=(24, 256)).astype(np.float32)
        assert len(engine.serve([Request("r0", x)])) == 1

    build_serve_drop()  # first calls build process-wide state (lazy imports)
    gc.collect()
    gc.disable()
    try:
        build_serve_drop()
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestNormalizedStatsSchema:
    def test_outcome_block_consistent(self, rng):
        engine = create_engine(make_encoder())
        engine.serve([Request("r0", rng.normal(size=(4, HIDDEN)).astype(np.float32))])
        outcomes = engine.stats()["outcomes"]
        assert outcomes["ok"] == 1

    def test_per_class_block_reflects_configured_classes(self, rng):
        """A configured class shows up zeroed even before any traffic, and
        live counts land in the right class."""
        engine = create_engine(
            make_encoder(),
            kind="decoder",
            config=ServingConfig(
                max_queue_depth=1,
                scheduling_policy=SchedulingConfig(
                    policy="priority", class_weights=(1, 2)
                ),
            ),
        )
        admission = engine.stats()["admission"]
        assert admission["policy"] == "priority"
        zeroed = {"shed": 0, "expired": 0, "pending": 0}
        assert admission["per_class"] == {0: zeroed, 1: zeroed}
        # Overflow the depth-1 queue with class-1 traffic: the shed lands
        # in class 1's block, class 0 stays zeroed.
        for i in range(2):
            engine.submit(
                DecodeRequest(
                    f"pc-{i}",
                    rng.normal(size=(4, HIDDEN)).astype(np.float32),
                    new_tokens=2,
                    priority_class=1,
                )
            )
        admission = engine.stats()["admission"]
        assert admission["per_class"][0] == zeroed
        assert admission["per_class"][1] == {"shed": 1, "expired": 0, "pending": 1}


class TestConfigDrivenSimulation:
    @pytest.fixture
    def encoder(self):
        return make_encoder()

    def test_config_selects_policy(self, encoder, rng):
        requests = [
            SimulatedRequest(f"s{i}", tokens=8, arrival_us=20.0 * i) for i in range(6)
        ]
        report = simulate(
            encoder,
            requests,
            ServingConfig(scheduling="continuous", padding="exact", window_us=100.0),
        )
        assert report.config.scheduling == "continuous"
        assert report.config.padding == "exact"
        assert report.num_requests == 6

    @pytest.mark.parametrize("padding", ["exact", "ladder"])
    def test_a_shared_dispatcher_reproduces_the_private_report(self, encoder, padding):
        """Decisions and estimates are pure: a dispatcher shared across a
        sweep (warm memo on the second run) gives every run the report a
        private one gives."""
        requests = uniform_arrivals(24, rate_rps=200_000, tokens=[3, 9, 17, 33])
        config = ServingConfig(padding=padding, max_batch_size=4)
        private = simulate(encoder, requests, config)
        shared = KernelDispatcher()
        for _ in range(2):
            report = simulate(encoder, requests, config, dispatcher=shared)
            assert report.makespan_us == private.makespan_us
            assert report.latencies_us == private.latencies_us
            assert report.outcomes == private.outcomes
            assert [e.time_us for e in report.trace.executions] == [
                e.time_us for e in private.trace.executions
            ]

    def test_config_admission_knobs_are_honoured(self, encoder):
        """Regression: the simulator's config path used to drop the
        admission/SLO knobs silently (200/200 served on a trace where the
        same bound sheds most of the load)."""
        requests = uniform_arrivals(200, rate_rps=2_000_000, tokens=[3, 9, 17, 33])
        config = ServingConfig(
            scheduling="continuous", padding="ladder", window_us=0.0, max_queue_depth=2
        )
        report = simulate(encoder, requests, config)
        chaos = simulate(encoder, requests, config, FaultPlan())
        unbounded = simulate(encoder, requests, replace(config, max_queue_depth=None))
        assert report.counts()["shed"] == chaos.counts()["shed"] > 0
        assert report.outcomes == chaos.outcomes
        assert unbounded.counts()["shed"] == 0

    def test_config_knobs_the_simulation_cannot_honour_raise(self, encoder):
        requests = [SimulatedRequest("s0", tokens=8, arrival_us=0.0)]
        with pytest.raises(ValueError, match="kv_budget_blocks"):
            simulate(
                encoder, requests, ServingConfig(scheduling="continuous", kv_budget_blocks=4)
            )

    def test_serve_continuous_step_from_config(self, rng):
        engine = create_engine(
            make_encoder(),
            config=ServingConfig(scheduling="continuous", step_us=50.0),
        )
        x = rng.normal(size=(4, HIDDEN)).astype(np.float32)
        results = engine.serve_continuous([Request("r0", x)])
        assert "r0" in results

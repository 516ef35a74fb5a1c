"""ServingConfig API: one typed home for engine knobs, across all engines.

Pins the api_redesign contract: every serving engine constructs from a
:class:`ServingConfig` (directly or through :func:`create_engine`), the
legacy per-engine keywords are gone (they raise ``TypeError``), and all
three engines report one
normalized ``stats()`` schema — the ``outcomes`` / ``admission`` /
``continuous`` / ``dispatch_health`` / ``sharding`` blocks are always
present, zeroed when the corresponding feature is unused.
"""

import warnings

import numpy as np
import pytest

from repro.formats.vnm import VNMSparseMatrix
from repro.integration import VNMSparsifier, sparsify_encoder
from repro.kernels.dispatch import SpmmOperand
from repro.models import TransformerEncoder, tiny_config
from repro.pruning.masks import apply_mask
from repro.pruning.vnm import vnm_mask
from repro.serving import (
    AsyncWindowBatcher,
    ContinuousBatcher,
    DecodeRequest,
    DecoderServingEngine,
    FaultPlan,
    ModelServingEngine,
    Request,
    SchedulingConfig,
    ServingConfig,
    ServingEngine,
    ShapeBucketBatcher,
    ShardedDispatcher,
    ShardingConfig,
    SimulatedRequest,
    create_engine,
    simulate_chaos,
    simulate_serving,
    uniform_arrivals,
)

HIDDEN = 64


@pytest.fixture
def rng():
    return np.random.default_rng(0xBEEF)


@pytest.fixture
def operand(rng):
    dense = rng.normal(size=(64, 128))
    pruned = apply_mask(dense, vnm_mask(dense, v=16, n=2, m=8)).astype(np.float32)
    return SpmmOperand.from_vnm(
        VNMSparseMatrix.from_dense(pruned, v=16, n=2, m=8, strict=True)
    )


def make_encoder(seed=0, num_layers=1):
    cfg = tiny_config(
        hidden_size=HIDDEN, num_layers=num_layers, num_heads=4, intermediate_size=128
    )
    encoder = TransformerEncoder.init(cfg, seed=seed)
    sparsify_encoder(encoder, VNMSparsifier(n=2, m=4, v=16))
    return encoder


class TestServingConfig:
    def test_defaults_validate(self):
        config = ServingConfig()
        assert config.scheduling == "window"
        assert config.padding == "exact"
        assert not config.sharding.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scheduling": "sometimes"},
            {"padding": "diagonal"},
            {"window_us": -1.0},
            {"step_us": -1.0},
            {"max_batch_size": 0},
            {"block_size": 0},
            {"shed_policy": "coin-flip"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)

    def test_sharding_validation(self):
        with pytest.raises(ValueError):
            ShardingConfig(tp_degree=0)
        with pytest.raises(ValueError):
            ShardingConfig(placement_policy="magic")
        with pytest.raises(TypeError):
            ServingConfig(sharding="2-way")

    def test_build_batcher_families(self):
        assert isinstance(ServingConfig().build_batcher(), ShapeBucketBatcher)
        assert isinstance(
            ServingConfig(scheduling="async").build_batcher(), AsyncWindowBatcher
        )
        assert isinstance(
            ServingConfig(scheduling="continuous").build_batcher(), ContinuousBatcher
        )
        # The decoder always gets a continuous batcher, whatever scheduling says.
        assert isinstance(ServingConfig().build_batcher(kind="decoder"), ContinuousBatcher)

    def test_admission_knobs_require_continuous(self):
        with pytest.raises(ValueError):
            ServingConfig(max_queue_depth=4).build_batcher()
        batcher = ServingConfig(scheduling="continuous", max_queue_depth=4).build_batcher()
        assert isinstance(batcher, ContinuousBatcher)

    def test_exact_padding_rejects_token_buckets(self):
        with pytest.raises(ValueError):
            ServingConfig(token_buckets=(8, 16)).build_batcher(kind="encoder")

    def test_scheduling_policy_type_checked(self):
        with pytest.raises(TypeError):
            ServingConfig(scheduling_policy="priority")

    def test_scheduling_policy_requires_continuous(self):
        active = SchedulingConfig(policy="priority", preemption=True)
        with pytest.raises(ValueError, match="continuous"):
            ServingConfig(scheduling_policy=active).build_batcher()
        with pytest.raises(ValueError, match="continuous"):
            ServingConfig(scheduling="async", scheduling_policy=active).build_batcher()
        batcher = ServingConfig(
            scheduling="continuous", scheduling_policy=active
        ).build_batcher()
        assert batcher.scheduling is active
        # The decoder's batcher is always continuous, so it may carry the
        # policy whatever `scheduling` says.
        decoder_batcher = ServingConfig(scheduling_policy=active).build_batcher(
            kind="decoder"
        )
        assert decoder_batcher.scheduling is active

    def test_inactive_default_scheduling_policy_builds_everywhere(self):
        # The FCFS default must never trip the continuous-only check.
        assert isinstance(ServingConfig().build_batcher(), ShapeBucketBatcher)
        assert isinstance(
            ServingConfig(scheduling="async").build_batcher(), AsyncWindowBatcher
        )

    def test_build_dispatcher_only_when_sharded(self):
        assert ServingConfig().build_dispatcher() is None
        dispatcher = ServingConfig(
            sharding=ShardingConfig(tp_degree=2)
        ).build_dispatcher()
        assert isinstance(dispatcher, ShardedDispatcher)
        assert dispatcher.num_shards == 2


class TestCreateEngine:
    def test_routes_by_target_and_kind(self, operand):
        encoder = make_encoder()
        assert isinstance(create_engine(operand), ServingEngine)
        assert isinstance(create_engine(encoder), ModelServingEngine)
        assert isinstance(create_engine(encoder, kind="decoder"), DecoderServingEngine)
        with pytest.raises(TypeError):
            create_engine(operand, kind="decoder")
        with pytest.raises(ValueError):
            create_engine(operand, kind="banana")

    def test_config_drives_all_three_engines(self, operand, rng):
        config = ServingConfig(name="cfg-driven", scheduling="continuous", step_us=10.0)
        op_engine = create_engine(operand, config=config)
        assert op_engine.name == "cfg-driven"
        assert isinstance(op_engine.batcher, ContinuousBatcher)
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

    def test_explicit_kwargs_win_over_config(self, operand):
        batcher = ShapeBucketBatcher(max_batch_size=3)
        engine = create_engine(
            operand, config=ServingConfig(max_batch_size=64), batcher=batcher
        )
        assert engine.batcher is batcher


class TestDeprecatedKwargs:
    @pytest.mark.parametrize(
        "engine_cls,kwarg,value",
        [
            (ModelServingEngine, "padding", "ladder"),
            (DecoderServingEngine, "block_size", 8),
            (DecoderServingEngine, "capacity_blocks", 64),
            (DecoderServingEngine, "kv_budget_blocks", 32),
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
NORMALIZED_BLOCKS = ("outcomes", "admission", "continuous", "dispatch_health", "sharding")
SHARDING_KEYS = {
    "tp_degree",
    "placement_policy",
    "per_shard_calls",
    "per_shard_modelled_us",
    "load_balance",
    "cut_bytes_per_token",
    "comm_time_us",
    "comm_events",
}


class TestNormalizedStatsSchema:
    def engines(self, operand):
        return [
            create_engine(operand),
            create_engine(make_encoder()),
            create_engine(make_encoder(), kind="decoder"),
        ]

    def test_blocks_present_in_all_engines(self, operand):
        for engine in self.engines(operand):
            stats = engine.stats()
            for block in NORMALIZED_BLOCKS:
                assert block in stats, f"{type(engine).__name__} lacks {block!r}"
                assert isinstance(stats[block], dict)

    def test_sharding_block_zeroed_when_unsharded(self, operand):
        for engine in self.engines(operand):
            block = engine.stats()["sharding"]
            assert set(block) == SHARDING_KEYS
            assert block["tp_degree"] == 1
            assert block["comm_time_us"] == 0.0
            assert block["comm_events"] == 0

    def test_sharding_block_live_when_sharded(self, rng):
        engine = create_engine(
            make_encoder(), config=ServingConfig(sharding=ShardingConfig(tp_degree=2))
        )
        x = rng.normal(size=(6, HIDDEN)).astype(np.float32)
        engine.serve([Request("r0", x)])
        block = engine.stats()["sharding"]
        assert set(block) == SHARDING_KEYS
        assert block["tp_degree"] == 2
        assert block["comm_time_us"] > 0.0

    def test_outcome_block_consistent(self, operand, rng):
        engine = create_engine(operand)
        engine.serve([Request("r0", rng.normal(size=(4, 128)).astype(np.float32))])
        outcomes = engine.stats()["outcomes"]
        assert outcomes["ok"] == 1

    def test_admission_block_carries_policy_and_per_class_everywhere(self, operand):
        """The SLO fields are part of the normalized schema: every engine's
        admission block has ``policy`` and ``per_class``, zeroed/None when
        the feature is unused (non-continuous batchers report policy=None
        with one zeroed class-0 block)."""
        zeroed = {"shed": 0, "expired": 0, "pending": 0}
        for engine in self.engines(operand):
            admission = engine.stats()["admission"]
            assert "policy" in admission
            assert "per_class" in admission
            if isinstance(engine.batcher, ContinuousBatcher):
                assert admission["policy"] == "fcfs"
            else:
                assert admission["policy"] is None
            assert admission["per_class"] == {0: zeroed}

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
    def test_config_selects_policy_and_sharding(self, operand, rng):
        requests = [
            SimulatedRequest(f"s{i}", tokens=8, arrival_us=20.0 * i) for i in range(6)
        ]
        report = simulate_serving(
            operand,
            requests,
            window_us=100.0,
            config=ServingConfig(scheduling="continuous", padding="exact"),
        )
        assert report.window_policy == "continuous"
        assert report.bucketing == "exact"
        sharded = simulate_serving(
            operand,
            requests,
            window_us=100.0,
            config=ServingConfig(sharding=ShardingConfig(tp_degree=2)),
        )
        assert sharded.num_requests == 6

    def test_config_admission_knobs_are_honoured(self, operand):
        """Regression: ``simulate_serving(config=...)`` used to drop the
        admission/SLO knobs silently (200/200 served on a trace where the
        same bound sheds most of the load)."""
        requests = uniform_arrivals(200, rate_rps=2_000_000, tokens=[3, 9, 17, 33])
        config = ServingConfig(
            scheduling="continuous", padding="ladder", max_queue_depth=2
        )
        report = simulate_serving(operand, requests, window_us=0.0, config=config)
        chaos = simulate_chaos(operand, requests, FaultPlan(), max_queue_depth=2)
        assert report.counts()["shed"] == chaos.counts()["shed"] > 0
        assert report.outcomes == chaos.outcomes

    def test_config_knobs_the_simulation_cannot_honour_raise(self, operand):
        requests = [SimulatedRequest("s0", tokens=8, arrival_us=0.0)]
        with pytest.raises(ValueError, match="continuous"):
            simulate_serving(
                operand, requests, window_us=10.0,
                config=ServingConfig(scheduling="window", max_queue_depth=2),
            )
        with pytest.raises(ValueError, match="continuous"):
            simulate_serving(
                operand, requests, window_us=10.0, window_policy="async",
                config=ServingConfig(scheduling="continuous", max_queue_depth=2),
            )
        with pytest.raises(ValueError, match="kv_budget_blocks"):
            simulate_serving(
                operand, requests, window_us=0.0,
                config=ServingConfig(scheduling="continuous", kv_budget_blocks=4),
            )

    def test_explicit_args_win(self, operand):
        requests = [SimulatedRequest("s0", tokens=8, arrival_us=0.0)]
        report = simulate_serving(
            operand,
            requests,
            window_us=0.0,
            window_policy="fixed",
            config=ServingConfig(scheduling="continuous"),
        )
        assert report.window_policy == "fixed"

    def test_serve_continuous_step_from_config(self, rng):
        engine = create_engine(
            make_encoder(),
            config=ServingConfig(scheduling="continuous", step_us=50.0),
        )
        x = rng.normal(size=(4, HIDDEN)).astype(np.float32)
        results = engine.serve_continuous([Request("r0", x)])
        assert "r0" in results

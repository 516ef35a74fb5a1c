"""Ragged micro-batches run as equal-length groups in the model engine.

A ladder rung takes requests of different lengths into one micro-batch.
The engine never pads them: it stacks each group of equal-length requests,
shortest first, and runs one ``encoder.forward`` per group at its true
shape.  So every output is bit-for-bit the request's own forward — at a
rung, one past it, the top rung and beyond it — for sparse and dense
encoders alike, and each request gets its own rows, not a view into a
group's output.
"""

import itertools

import numpy as np
import pytest

from repro.integration import VNMSparsifier, sparsify_encoder
from repro.kernels.dispatch import KernelDispatcher
from repro.models import TransformerEncoder, tiny_config
from repro.serving import (
    ContinuousBatcher,
    ModelServingEngine,
    Request,
    ServingConfig,
    SimulatedRequest,
    simulate,
)
from repro.serving.batcher import BucketKey, MicroBatch
from repro.serving.model_engine import length_groups

HIDDEN = 64


def make_encoder(num_layers=1, seed=0, sparse=True):
    cfg = tiny_config(
        hidden_size=HIDDEN, num_layers=num_layers, num_heads=4, intermediate_size=128
    )
    encoder = TransformerEncoder.init(cfg, seed=seed)
    if sparse:
        sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
    return encoder


def make_requests(rng, lengths, arrivals=None):
    arrivals = arrivals if arrivals is not None else [0.0] * len(lengths)
    return [
        Request(f"r{i}", rng.normal(size=(t, HIDDEN)).astype(np.float32), arrival_us=a)
        for i, (t, a) in enumerate(zip(lengths, arrivals))
    ]


def ladder_engine(encoder):
    """A ladder engine on the default rungs (8, 16, 32, ...)."""
    return ModelServingEngine(encoder, config=ServingConfig(padding="ladder"))


def spy_forward(encoder):
    """Record ``(input shape, output)`` of every ``encoder.forward`` call;
    ``del encoder.forward`` restores the method."""
    calls = []
    forward = encoder.forward

    def spy(hidden):
        out = forward(hidden)
        calls.append((hidden.shape, out))
        return out

    encoder.forward = spy  # the instance attribute shadows the method
    return calls


def assert_sequential_bits(encoder, requests, results):
    assert set(results) == {req.request_id for req in requests}
    for req in requests:
        expected = encoder.forward(req.activations[None])[0]
        assert results[req.request_id].tobytes() == expected.tobytes()


#: Compositions of one 16-token rung and the ``(size, tokens)`` groups each
#: runs as, shortest first.
RUNG_COMPOSITIONS = [
    ([16, 12, 9], [(1, 9), (1, 12), (1, 16)]),
    ([12, 12, 12], [(3, 12)]),
    ([9, 16, 9, 16, 9], [(3, 9), (2, 16)]),
    ([13], [(1, 13)]),
    ([15, 10, 14, 11, 13, 12], [(1, t) for t in range(10, 16)]),
]
RUNG_COMPOSITION_IDS = ["descending", "one-length", "interleaved", "single", "all-distinct"]


class TestLadder:
    def test_ladder_rounds_lengths_up(self):
        batcher = ContinuousBatcher.ladder(min_rung=8, max_rung=32)
        assert batcher.token_buckets == (8, 16, 32)
        for tokens, rung in [(1, 8), (8, 8), (9, 16), (16, 16), (17, 32), (32, 32)]:
            assert batcher.token_bucket(tokens) == rung
        assert batcher.token_bucket(33) == 33  # beyond the top rung: exact singleton

    def test_ladder_rejects_bad_rungs(self):
        with pytest.raises(ValueError):
            ContinuousBatcher.ladder(min_rung=0)
        with pytest.raises(ValueError):
            ContinuousBatcher.ladder(min_rung=16, max_rung=8)

    def test_mixed_boundary_batch_shares_one_bucket(self, rng):
        batcher = ContinuousBatcher.ladder(min_rung=8, max_rung=16)
        batcher.submit_many(make_requests(rng, [9, 12, 16]))
        (batch,) = batcher.drain()  # all round up to the 16 rung
        assert batch.key.token_bucket == 16
        assert [req.tokens for req in batch.requests] == [9, 12, 16]
        assert batch.valid_tokens == 37
        assert batch.padded_tokens == 48


class TestGroupedExecution:
    # the shortest, then each side of the 8-, 16- and 32-token rungs
    @pytest.mark.parametrize("tokens", [1, 8, 9, 15, 16, 17, 32])
    def test_boundary_lengths_round_trip_bit_exact(self, rng, tokens):
        encoder = make_encoder()
        engine = ladder_engine(encoder)
        requests = make_requests(rng, [tokens])
        results = engine.serve(requests)
        assert results["r0"].shape == (tokens, HIDDEN)
        assert_sequential_bits(encoder, requests, results)

    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    def test_ragged_ladder_window_is_bit_exact(self, rng, sparse):
        """Lengths straddling every rung, the GEMV-shaped single token
        included, through a two-layer stack."""
        encoder = make_encoder(num_layers=2, sparse=sparse)
        engine = ladder_engine(encoder)
        requests = make_requests(rng, [1, 3, 7, 8, 9, 5, 16, 17, 5, 12, 1])
        results = engine.serve(requests)
        assert_sequential_bits(encoder, requests, results)
        padding = engine.stats()["padding"]
        assert padding["valid_tokens"] == 84
        assert padding["bucket_tokens"] > padding["valid_tokens"]

    def test_one_forward_per_distinct_length_in_ascending_order(self, rng):
        encoder = make_encoder()
        engine = ladder_engine(encoder)
        calls = spy_forward(encoder)
        requests = make_requests(rng, [12, 9, 16, 9, 12, 12])  # one 16-token rung
        results = engine.serve(requests)
        del encoder.forward
        assert engine.stats()["batches"] == 1
        assert [shape for shape, _ in calls] == [
            (2, 9, HIDDEN),
            (3, 12, HIDDEN),
            (1, 16, HIDDEN),
        ]
        assert_sequential_bits(encoder, requests, results)
        for a, b in itertools.combinations(results.values(), 2):
            assert not np.shares_memory(a, b)
        for row, (_, out) in itertools.product(results.values(), calls):
            assert not np.shares_memory(row, out)

    @pytest.mark.parametrize("lengths,groups", RUNG_COMPOSITIONS, ids=RUNG_COMPOSITION_IDS)
    def test_group_calls_follow_the_lengths_not_the_arrival_order(self, rng, lengths, groups):
        """Every composition of one 16-token rung: one call per distinct
        length, shortest first, each stacking all of that length's requests."""
        encoder = make_encoder()
        engine = ladder_engine(encoder)
        calls = spy_forward(encoder)
        requests = make_requests(rng, lengths)
        results = engine.serve(requests)
        del encoder.forward
        assert engine.stats()["batches"] == 1
        assert [shape for shape, _ in calls] == [(b, t, HIDDEN) for b, t in groups]
        assert_sequential_bits(encoder, requests, results)

    def test_exact_buckets_run_one_group_per_micro_batch(self, rng):
        """``padding="exact"`` buckets by true length, so each micro-batch
        is a single group and makes exactly one forward."""
        encoder = make_encoder()
        engine = ModelServingEngine(encoder, config=ServingConfig(padding="exact"))
        calls = spy_forward(encoder)
        requests = make_requests(rng, [5, 9, 5, 9, 3])
        results = engine.serve(requests)
        del encoder.forward
        assert len(calls) == engine.stats()["batches"] == 3
        assert sorted(shape for shape, _ in calls) == [
            (1, 3, HIDDEN),
            (2, 5, HIDDEN),
            (2, 9, HIDDEN),
        ]
        padding = engine.stats()["padding"]
        assert padding["bucket_tokens"] == padding["valid_tokens"] == 31
        assert_sequential_bits(encoder, requests, results)

    @pytest.mark.parametrize("scheduling", ["continuous", "async"])
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    def test_staggered_ragged_traffic_is_bit_exact(self, rng, sparse, scheduling):
        """Arrivals spread over the step loop, with and without the async
        hold: the micro-batches each schedule forms differ, every output is
        still the request's own forward."""
        encoder = make_encoder(num_layers=2, sparse=sparse)
        engine = ModelServingEngine(
            encoder,
            config=ServingConfig(padding="ladder", scheduling=scheduling, step_us=10.0),
        )
        lengths = [3, 12, 9, 3, 16, 5, 12, 20]
        requests = make_requests(rng, lengths, arrivals=[0.0, 0.0, 5.0, 5.0, 40.0, 41.0, 90.0, 90.0])
        results = engine.serve_continuous(requests)
        assert_sequential_bits(encoder, requests, results)
        assert engine.stats()["padding"]["valid_tokens"] == sum(lengths)

    @pytest.mark.parametrize("scheduling", ["continuous", "async"])
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    def test_staggered_exact_traffic_is_bit_exact(self, rng, sparse, scheduling):
        """The same staggered arrivals over exact-length buckets: equal
        lengths that arrive apart share a micro-batch only when both are
        queued at a step, and every output is still the request's own
        forward."""
        encoder = make_encoder(num_layers=2, sparse=sparse)
        engine = ModelServingEngine(
            encoder,
            config=ServingConfig(padding="exact", scheduling=scheduling, step_us=10.0),
        )
        lengths = [3, 12, 12, 3, 16, 5, 12, 3]
        requests = make_requests(rng, lengths, arrivals=[0.0, 0.0, 5.0, 5.0, 40.0, 41.0, 90.0, 90.0])
        results = engine.serve_continuous(requests)
        assert_sequential_bits(encoder, requests, results)
        assert engine.stats()["padding"]["valid_tokens"] == sum(lengths)
        assert engine.stats()["padding"]["bucket_tokens"] == sum(lengths)

    @pytest.mark.parametrize("padding", ["exact", "ladder"])
    def test_each_output_owns_its_rows(self, rng, padding):
        """A result is a fresh C-contiguous ``(tokens, hidden)`` float32
        array that owns its memory: holding it keeps no group's output alive."""
        engine = ModelServingEngine(make_encoder(), config=ServingConfig(padding=padding))
        requests = make_requests(rng, [7, 7, 4, 12])
        results = engine.serve(requests)
        for req in requests:
            out = results[req.request_id]
            assert out.shape == (req.tokens, HIDDEN) and out.dtype == np.float32
            assert out.flags.owndata and out.flags.c_contiguous

    def test_modelled_launch_is_the_padded_rung(self, rng):
        """The modelled clock charges each projection the ``B × rung``
        launch a GPU would run, whatever the true lengths inside the rung."""
        encoder = make_encoder()
        engine = ladder_engine(encoder)
        engine.serve(make_requests(rng, [9, 12, 16]))
        layers = dict(encoder.named_sparse_layers())
        assert len(engine.trace.executions) == len(layers)
        for execution in engine.trace.executions:
            assert (execution.meta["batch_size"], execution.meta["tokens"]) == (3, 16)
            lin = layers[execution.meta["layer"]]
            charged = engine.dispatcher.estimate(lin.operand, 48, backend=execution.meta["backend"])
            assert execution.time_us == charged.time_us
        assert engine.stats()["padding"]["valid_tokens"] == 37
        assert engine.stats()["padding"]["bucket_tokens"] == 48


    def test_length_groups_are_shortest_first_in_batch_order(self, rng):
        """The one grouping rule, over every arrival order of a ragged
        batch: groups by length, shortest first, each keeping the
        micro-batch's order, together exactly the micro-batch."""
        for order in itertools.permutations(make_requests(rng, [9, 12, 9, 16, 12])):
            batch = MicroBatch(key=BucketKey(HIDDEN, 16), requests=list(order))
            groups = length_groups(batch)
            assert [group[0].tokens for group in groups] == [9, 12, 16]
            for group in groups:
                assert {req.tokens for req in group} == {group[0].tokens}
                assert group == [req for req in order if req.tokens == group[0].tokens]
            assert sorted(r.request_id for g in groups for r in g) == sorted(
                r.request_id for r in order
            )

    @pytest.mark.parametrize("lengths,groups", RUNG_COMPOSITIONS, ids=RUNG_COMPOSITION_IDS)
    def test_simulator_charges_the_groups_the_engine_runs(self, lengths, groups):
        """The simulator walks the calls the engine makes for the same rung:
        one launch per projection per group, groups shortest first, each at
        the group's true ``size × tokens`` columns — not the ``B × rung``
        launch the live trace records."""
        encoder = make_encoder()
        dispatcher = KernelDispatcher()
        requests = [SimulatedRequest(f"s{i}", tokens=t) for i, t in enumerate(lengths)]
        config = ServingConfig(padding="ladder")
        report = simulate(encoder, requests, config, dispatcher=dispatcher)
        layers = list(encoder.named_linear_layers())
        assert report.num_batches == report.served_batches == 1
        launches = report.trace.executions
        assert [e.meta["layer"] for e in launches] == [name for name, _ in layers] * len(groups)
        assert [(e.meta["batch_size"], e.meta["tokens"]) for e in launches] == [
            group for group in groups for _ in layers
        ]
        for execution, (_, lin) in zip(launches, layers * len(groups)):
            size, tokens = execution.meta["batch_size"], execution.meta["tokens"]
            backend = dispatcher.dispatch(lin.operand, tokens).backend
            assert execution.meta["backend"] == backend
            charged = dispatcher.estimate(lin.operand, size * tokens, backend=backend)
            assert execution.time_us == charged.time_us
        assert report.makespan_us == pytest.approx(report.kernel_time_us)


class TestIntake:
    """The engine groups by ``req.tokens``: a request is refused unless it
    is a ``(tokens >= 1, features)`` matrix."""

    @pytest.mark.parametrize(
        "shape", [(0, HIDDEN), (HIDDEN,), (1, 4, HIDDEN), ()], ids=["empty", "1d", "3d", "scalar"]
    )
    def test_request_rejects_malformed_activations(self, shape):
        with pytest.raises(ValueError, match="tokens >= 1"):
            Request("bad", np.zeros(shape, dtype=np.float32))

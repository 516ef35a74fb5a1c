"""Tests for the tensor-parallel communication model and shard placement (paper Section 9 discussion)."""

import pytest

from repro.models.distributed import (
    NVLINK,
    PCIE4,
    InterconnectSpec,
    allreduce_time_us,
)


class TestAllreduceModel:
    def test_zero_for_single_device(self):
        assert allreduce_time_us(1e9, 1, NVLINK) == 0.0

    def test_grows_with_message_size(self):
        assert allreduce_time_us(2e8, 4, NVLINK) > allreduce_time_us(1e8, 4, NVLINK)

    def test_slower_link_costs_more(self):
        assert allreduce_time_us(1e8, 4, PCIE4) > allreduce_time_us(1e8, 4, NVLINK)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            allreduce_time_us(-1.0, 2, NVLINK)
        with pytest.raises(ValueError):
            allreduce_time_us(1.0, 0, NVLINK)
        with pytest.raises(ValueError):
            InterconnectSpec(bandwidth_gbps=0.0)


# ----------------------------------------------------------------------
# Layer graphs and balanced min-cut placement (sharded serving)
# ----------------------------------------------------------------------

import random

import numpy as np

from repro.integration import VNMSparsifier, sparsify_encoder
from repro.models import TransformerEncoder, tiny_config
from repro.models.distributed import (
    COLUMN_PARALLEL,
    ROW_PARALLEL,
    CommEvent,
    GraphEdge,
    GraphNode,
    LayerGraph,
    encoder_layer_graph,
    parallelism_style,
    partition_min_cut,
    partition_min_cut_reference,
    partition_round_robin,
    placement_comm_events,
    send_recv_time_us,
)


def random_graph(rng, num_nodes, edge_prob=0.5):
    """A random weighted layer graph on ``num_nodes`` nodes."""
    nodes = tuple(
        GraphNode(
            name=f"n{i}",
            weight=float(rng.integers(1, 10)),
            style=ROW_PARALLEL if rng.random() < 0.3 else COLUMN_PARALLEL,
            out_bytes_per_token=float(rng.integers(1, 64)),
        )
        for i in range(num_nodes)
    )
    edges = []
    for i in range(num_nodes):
        for j in range(num_nodes):
            if i != j and rng.random() < edge_prob:
                edges.append(
                    GraphEdge(f"n{i}", f"n{j}", bytes_per_token=float(rng.integers(1, 64)))
                )
    return LayerGraph(nodes=nodes, edges=tuple(edges))


class TestLayerGraph:
    def test_parallelism_style(self):
        assert parallelism_style("encoder.layer.0.attention.query") == COLUMN_PARALLEL
        assert parallelism_style("encoder.layer.0.attention.output") == ROW_PARALLEL
        assert parallelism_style("encoder.layer.3.ffn.intermediate") == COLUMN_PARALLEL
        assert parallelism_style("encoder.layer.3.ffn.output") == ROW_PARALLEL

    def test_rejects_bad_structure(self):
        node = GraphNode("a", weight=1.0)
        with pytest.raises(ValueError):
            GraphEdge("a", "a", bytes_per_token=1.0)  # self edge
        with pytest.raises(ValueError):
            LayerGraph(nodes=(node, node), edges=())  # duplicate names
        with pytest.raises(ValueError):
            LayerGraph(nodes=(node,), edges=(GraphEdge("a", "b", bytes_per_token=1.0),))

    def test_encoder_graph_shape(self):
        cfg = tiny_config(hidden_size=64, num_layers=2, num_heads=4, intermediate_size=128)
        encoder = TransformerEncoder.init(cfg, seed=0)
        graph = encoder_layer_graph(encoder)
        assert len(graph.nodes) == 6 * 2  # six projections per layer
        # Row-parallel styles land on the output projections only.
        styles = {n.name: n.style for n in graph.nodes}
        assert styles["encoder.layer.0.attention.output"] == ROW_PARALLEL
        assert styles["encoder.layer.0.ffn.output"] == ROW_PARALLEL
        assert styles["encoder.layer.0.attention.query"] == COLUMN_PARALLEL
        # q/k/v fan into attention.output; ffn chain; cross-layer edges exist.
        in_attn = {e.src for e in graph.in_edges("encoder.layer.0.attention.output")}
        assert in_attn == {
            "encoder.layer.0.attention.query",
            "encoder.layer.0.attention.key",
            "encoder.layer.0.attention.value",
        }
        in_q1 = {e.src for e in graph.in_edges("encoder.layer.1.attention.query")}
        assert in_q1 == {"encoder.layer.0.ffn.output"}


class TestPlacement:
    def test_round_robin_assignment(self):
        rng = np.random.default_rng(0)
        graph = random_graph(rng, 6)
        placement = partition_round_robin(graph, 3)
        assert placement.assignment == (0, 1, 2, 0, 1, 2)
        assert placement.policy == "round_robin"
        assert len(placement.shard_loads) == 3

    def test_single_shard_has_no_cut(self):
        rng = np.random.default_rng(1)
        graph = random_graph(rng, 5)
        placement = partition_min_cut(graph, 1)
        assert placement.cut_bytes_per_token == 0.0
        assert placement_comm_events(placement) == ()

    def test_exact_beats_or_ties_round_robin(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            graph = random_graph(rng, 6)
            rr = partition_round_robin(graph, 2)
            exact = partition_min_cut_reference(graph, 2)
            assert exact.cut_bytes_per_token <= rr.cut_bytes_per_token
            # Balance feasibility: never spreads load more than round-robin.
            assert exact.load_spread <= rr.load_spread + 1e-9

    def test_heuristic_matches_exact_on_small_graphs(self):
        """Property test: on graphs small enough to enumerate, the heuristic
        placement must equal the brute-force optimum exactly."""
        rng = np.random.default_rng(3)
        for trial in range(25):
            num_nodes = int(rng.integers(2, 9))  # <= 8 nodes
            num_shards = int(rng.integers(2, 5))  # 2..4 shards
            graph = random_graph(rng, num_nodes, edge_prob=float(rng.uniform(0.2, 0.8)))
            exact = partition_min_cut_reference(graph, num_shards)
            heur = partition_min_cut(graph, num_shards)
            assert heur.assignment == exact.assignment, (
                f"trial {trial}: heuristic {heur.assignment} != exact {exact.assignment}"
            )
            assert heur.cut_bytes_per_token == exact.cut_bytes_per_token

    def test_forced_heuristic_never_worse_than_round_robin(self):
        """With the exhaustive fallback disabled, the refinement loop must
        still never lose to round-robin on cut traffic (it starts there)."""
        rng = np.random.default_rng(4)
        for _ in range(15):
            num_nodes = int(rng.integers(4, 13))
            num_shards = int(rng.integers(2, 5))
            graph = random_graph(rng, num_nodes)
            rr = partition_round_robin(graph, num_shards)
            heur = partition_min_cut(graph, num_shards, exhaustive_limit=0)
            assert heur.cut_bytes_per_token <= rr.cut_bytes_per_token
            assert heur.load_spread <= rr.load_spread + 1e-9

    def test_reference_rejects_huge_spaces(self):
        rng = np.random.default_rng(5)
        graph = random_graph(rng, 30, edge_prob=0.1)
        with pytest.raises(ValueError):
            partition_min_cut_reference(graph, 4)


class TestCommEvents:
    def test_send_recv_model(self):
        assert send_recv_time_us(0.0, NVLINK) == NVLINK.latency_us
        assert send_recv_time_us(2e8, PCIE4) > send_recv_time_us(2e8, NVLINK)

    def test_row_parallel_spanning_inputs_allreduce(self):
        """A row-parallel node whose inputs span shards costs one ring
        all-reduce of its own output, not per-edge send/recvs."""
        nodes = (
            GraphNode("a", weight=1.0, out_bytes_per_token=8.0),
            GraphNode("b", weight=1.0, out_bytes_per_token=8.0),
            GraphNode("out", weight=1.0, style=ROW_PARALLEL, out_bytes_per_token=32.0),
        )
        edges = (
            GraphEdge("a", "out", bytes_per_token=8.0),
            GraphEdge("b", "out", bytes_per_token=8.0),
        )
        graph = LayerGraph(nodes=nodes, edges=edges)
        placement = partition_round_robin(graph, 2)  # a->0, b->1, out->0: spans
        events = placement_comm_events(placement)
        assert len(events) == 1
        (event,) = events
        assert event.kind == "all_reduce"
        assert event.layer == "out"
        assert event.bytes_per_token == 32.0
        assert event.shards == (0, 1)

    def test_column_cut_edge_is_send_recv(self):
        nodes = (
            GraphNode("a", weight=1.0, out_bytes_per_token=8.0),
            GraphNode("b", weight=1.0, out_bytes_per_token=8.0),
        )
        edges = (GraphEdge("a", "b", bytes_per_token=8.0),)
        graph = LayerGraph(nodes=nodes, edges=edges)
        placement = partition_round_robin(graph, 2)
        events = placement_comm_events(placement)
        assert len(events) == 1
        assert events[0].kind == "send_recv"
        assert events[0].shards == (0, 1)

    def test_comm_time_scales_with_tokens_and_link(self):
        cfg = tiny_config(hidden_size=64, num_layers=2, num_heads=4, intermediate_size=128)
        encoder = TransformerEncoder.init(cfg, seed=0)
        sparsify_encoder(encoder, VNMSparsifier(n=2, m=4, v=4))
        graph = encoder_layer_graph(encoder)
        events = placement_comm_events(partition_min_cut(graph, 2))

        def comm_time_us(tokens, link):
            return sum(e.time_us(tokens, link) for e in events)

        fast = comm_time_us(128, NVLINK)
        slow = comm_time_us(128, PCIE4)
        more = comm_time_us(256, NVLINK)
        assert slow > fast > 0.0
        assert more > fast

    def test_event_validation(self):
        with pytest.raises(ValueError):
            CommEvent(kind="broadcast", layer="x", bytes_per_token=1.0, shards=(0, 1))
        with pytest.raises(ValueError):
            CommEvent(kind="all_reduce", layer="x", bytes_per_token=1.0, shards=(0,))

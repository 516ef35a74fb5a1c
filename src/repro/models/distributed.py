"""Distributed (tensor-parallel) inference: placement and communication.

Section 9 of the paper discusses Spatha as a building block for distributed
DL systems, where data/operator/pipeline parallelism are combined and the
SpMM kernels accelerate the per-device operator shards.  This module is the
*placement* layer of the sharded serving tier
(:mod:`repro.serving.sharded`), which prices Megatron-style tensor
parallelism (column-parallel QKV/FFN-expansion projections, row-parallel
output projections) with a ring all-reduce model over the interconnect:

* :func:`encoder_layer_graph` — a live :class:`TransformerEncoder` becomes
  a weighted :class:`LayerGraph`: nodes are the six projections of each
  block (weighted by dense-equivalent FLOPs per token), edges are the
  activation tensors flowing between them (weighted by wire bytes per
  token).
* :func:`partition_min_cut` / :func:`partition_min_cut_reference` /
  :func:`partition_round_robin` — balanced min-cut assignment of graph
  nodes to shards: among assignments at least as load-balanced as
  round-robin, minimise the activation bytes crossing shard boundaries.
  :func:`partition_min_cut` enumerates every assignment when the space is
  small enough (exact); above that it runs greedy moves + Kernighan-Lin
  style swaps seeded with round-robin, which stop at a local optimum —
  never worse than round-robin on cut traffic, not always the minimum.
  The serving tier always places with it; round-robin is the balance
  baseline it is defined against.
* :func:`placement_comm_events` — the communication a placement implies
  under Megatron semantics: a cut edge into a column-parallel node is a
  point-to-point send/recv; a row-parallel node whose inputs span several
  shards reduces its partial outputs with a ring all-reduce (which
  subsumes those cut edges).

The model answers the question the discussion raises: how much of the
single-GPU SpMM advantage survives once communication enters the picture.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..hardware.spec import NVLINK, PCIE4, InterconnectSpec  # noqa: F401  (re-exported)

#: Wire bytes per activation element (FP16 on the interconnect, matching
#: the tensor-core compute precision the kernels model).
ACTIVATION_WIRE_BYTES = 2.0

#: Megatron parallelism styles for encoder projections.
COLUMN_PARALLEL = "column"
ROW_PARALLEL = "row"
PARALLELISM_STYLES = (COLUMN_PARALLEL, ROW_PARALLEL)

#: Projections whose *rows* are split across devices (their inputs arrive
#: pre-split from a column-parallel producer; their partial outputs are
#: summed by an all-reduce).
_ROW_PARALLEL_SUFFIXES = ("attention.output", "ffn.output")


def parallelism_style(qualified_name: str) -> str:
    """Megatron parallelism style of an encoder projection by name.

    QKV and FFN-expansion projections are column-parallel; the attention
    and FFN output projections are row-parallel.
    """
    for suffix in _ROW_PARALLEL_SUFFIXES:
        if qualified_name.endswith(suffix):
            return ROW_PARALLEL
    return COLUMN_PARALLEL


def allreduce_time_us(message_bytes: float, tp_degree: int, link: InterconnectSpec) -> float:
    """Ring all-reduce time for one activation tensor.

    Standard ring model: ``2 (p-1)/p`` of the message crosses each link,
    plus ``2 (p-1)`` latency hops.
    """
    if message_bytes < 0:
        raise ValueError("message_bytes must be non-negative")
    if tp_degree < 1:
        raise ValueError("tp_degree must be >= 1")
    if tp_degree == 1:
        return 0.0
    volume_factor = 2.0 * (tp_degree - 1) / tp_degree
    transfer_us = message_bytes * volume_factor / (link.bandwidth_gbps * 1e9) * 1e6
    return transfer_us + 2.0 * (tp_degree - 1) * link.latency_us


def send_recv_time_us(message_bytes: float, link: InterconnectSpec) -> float:
    """Point-to-point transfer time of one activation tensor."""
    if message_bytes < 0:
        raise ValueError("message_bytes must be non-negative")
    return message_bytes / (link.bandwidth_gbps * 1e9) * 1e6 + link.latency_us


# ----------------------------------------------------------------------
# Layer graph
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GraphNode:
    """One projection of the encoder, as a placement-graph node.

    ``weight`` is the modelled compute load (dense-equivalent FLOPs per
    token); ``out_bytes_per_token`` the wire size of the activation tensor
    the node produces (used to price the all-reduce of a row-parallel node
    whose inputs span shards).
    """

    name: str
    weight: float
    style: str = COLUMN_PARALLEL
    out_bytes_per_token: float = 0.0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("node weight must be non-negative")
        if self.style not in PARALLELISM_STYLES:
            raise ValueError(f"unknown parallelism style {self.style!r}")
        if self.out_bytes_per_token < 0:
            raise ValueError("out_bytes_per_token must be non-negative")


@dataclass(frozen=True)
class GraphEdge:
    """Activation flow between two projections, in wire bytes per token."""

    src: str
    dst: str
    bytes_per_token: float

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("self-edges are not allowed")
        if self.bytes_per_token < 0:
            raise ValueError("bytes_per_token must be non-negative")


@dataclass(frozen=True)
class LayerGraph:
    """Weighted activation-flow graph over encoder projections."""

    nodes: Tuple[GraphNode, ...]
    edges: Tuple[GraphEdge, ...]

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        known = set(names)
        for e in self.edges:
            if e.src not in known or e.dst not in known:
                raise ValueError(f"edge {e.src!r} -> {e.dst!r} references unknown node")

    def in_edges(self, name: str) -> Tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if e.dst == name)


def encoder_layer_graph(encoder) -> LayerGraph:
    """Placement graph of a live :class:`TransformerEncoder`.

    Nodes are the six projections of each block (``attention.query/key/
    value/output``, ``ffn.intermediate``, ``ffn.output``), weighted by
    dense-equivalent FLOPs per token.  Edges follow the forward data flow:
    Q/K/V feed the attention output projection, which feeds the FFN
    expansion, which feeds the FFN output, which feeds the next block's
    Q/K/V.
    """
    nodes: List[GraphNode] = []
    by_name = {}
    for qualified, lin in encoder.named_linear_layers():
        node = GraphNode(
            name=qualified,
            weight=2.0 * float(lin.out_features) * float(lin.in_features),
            style=parallelism_style(qualified),
            out_bytes_per_token=float(lin.out_features) * ACTIVATION_WIRE_BYTES,
        )
        nodes.append(node)
        by_name[qualified] = lin

    edges: List[GraphEdge] = []

    def _link(src: str, dst: str) -> None:
        edges.append(
            GraphEdge(src=src, dst=dst, bytes_per_token=by_name[src].out_features * ACTIVATION_WIRE_BYTES)
        )

    num_layers = len(encoder.layers)
    for i in range(num_layers):
        prefix = f"encoder.layer.{i}."
        for proj in ("attention.query", "attention.key", "attention.value"):
            _link(prefix + proj, prefix + "attention.output")
        _link(prefix + "attention.output", prefix + "ffn.intermediate")
        _link(prefix + "ffn.intermediate", prefix + "ffn.output")
        if i + 1 < num_layers:
            nxt = f"encoder.layer.{i + 1}."
            for proj in ("attention.query", "attention.key", "attention.value"):
                _link(prefix + "ffn.output", nxt + proj)
    return LayerGraph(nodes=tuple(nodes), edges=tuple(edges))


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Placement:
    """An assignment of layer-graph nodes to shards.

    ``assignment`` is parallel to ``graph.nodes``.  Quality is read through
    :attr:`cut_bytes_per_token` (activation traffic crossing shard
    boundaries) and :attr:`load_balance` (max/mean shard load; 1.0 is
    perfect).
    """

    graph: LayerGraph
    num_shards: int
    assignment: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if len(self.assignment) != len(self.graph.nodes):
            raise ValueError("assignment must cover every graph node")
        if any(s < 0 or s >= self.num_shards for s in self.assignment):
            raise ValueError("assignment references an out-of-range shard")

    def as_dict(self) -> Dict[str, int]:
        """Node name -> shard mapping."""
        return {node.name: shard for node, shard in zip(self.graph.nodes, self.assignment)}

    @property
    def shard_loads(self) -> Tuple[float, ...]:
        """Summed node weight per shard."""
        loads = [0.0] * self.num_shards
        for node, shard in zip(self.graph.nodes, self.assignment):
            loads[shard] += node.weight
        return tuple(loads)

    @property
    def load_spread(self) -> float:
        """Max minus min shard load (0 is perfectly balanced)."""
        loads = self.shard_loads
        return max(loads) - min(loads)

    @property
    def load_balance(self) -> float:
        """Max shard load over mean shard load (>= 1.0; 1.0 is perfect)."""
        loads = self.shard_loads
        mean = sum(loads) / len(loads)
        if mean <= 0:
            return 1.0
        return max(loads) / mean

    @property
    def cut_edges(self) -> Tuple[GraphEdge, ...]:
        """Edges whose endpoints live on different shards."""
        owner = self.as_dict()
        return tuple(e for e in self.graph.edges if owner[e.src] != owner[e.dst])

    @property
    def cut_bytes_per_token(self) -> float:
        """Activation bytes per token crossing shard boundaries."""
        return sum(e.bytes_per_token for e in self.cut_edges)


def _assignment_key(
    graph: LayerGraph, num_shards: int, assignment: Sequence[int]
) -> Tuple[float, float, Tuple[int, ...]]:
    """Lexicographic quality key: (cut bytes, load spread, assignment)."""
    owner = {node.name: shard for node, shard in zip(graph.nodes, assignment)}
    cut = sum(e.bytes_per_token for e in graph.edges if owner[e.src] != owner[e.dst])
    loads = [0.0] * num_shards
    for node, shard in zip(graph.nodes, assignment):
        loads[shard] += node.weight
    return (cut, max(loads) - min(loads), tuple(assignment))


def partition_round_robin(graph: LayerGraph, num_shards: int) -> Placement:
    """Baseline placement: node ``i`` goes to shard ``i % num_shards``."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    assignment = tuple(i % num_shards for i in range(len(graph.nodes)))
    return Placement(graph=graph, num_shards=num_shards, assignment=assignment)


def _balance_cap(graph: LayerGraph, num_shards: int) -> float:
    """Balance budget: no placement may spread load worse than round-robin."""
    rr = partition_round_robin(graph, num_shards)
    return rr.load_spread * (1.0 + 1e-9) + 1e-12


def _exhaustive_assignment(graph: LayerGraph, num_shards: int) -> Tuple[int, ...]:
    """Brute-force optimal assignment under the round-robin balance cap."""
    cap = _balance_cap(graph, num_shards)
    rr = tuple(i % num_shards for i in range(len(graph.nodes)))
    best = _assignment_key(graph, num_shards, rr)
    best_assignment = rr
    for candidate in itertools.product(range(num_shards), repeat=len(graph.nodes)):
        key = _assignment_key(graph, num_shards, candidate)
        if key[1] > cap:
            continue
        if key < best:
            best = key
            best_assignment = candidate
    return tuple(best_assignment)


def partition_min_cut_reference(graph: LayerGraph, num_shards: int) -> Placement:
    """Exact balanced min-cut by enumeration (small graphs only).

    Among all assignments whose load spread is no worse than round-robin's,
    returns the one with minimum cut traffic (ties broken by spread, then by
    the lexicographically smallest assignment).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if num_shards ** len(graph.nodes) > 1 << 20:
        raise ValueError(
            f"{num_shards}**{len(graph.nodes)} assignments is too many to enumerate; "
            "use partition_min_cut"
        )
    assignment = _exhaustive_assignment(graph, num_shards)
    return Placement(graph=graph, num_shards=num_shards, assignment=assignment)


def _refine_assignment(graph: LayerGraph, num_shards: int, start: Sequence[int]) -> Tuple[int, ...]:
    """Greedy + KL-style local search from ``start`` under the balance cap.

    Applies the best strictly-improving single-node move or two-node swap
    (by the (cut, spread) key) until a local optimum; every accepted state
    respects the round-robin balance cap, so the result is never worse than
    the starting point.
    """
    cap = _balance_cap(graph, num_shards)
    current = list(start)
    current_key = _assignment_key(graph, num_shards, current)
    n = len(current)
    for _ in range(10 * max(1, n)):  # generous bound; converges far earlier
        best_key = current_key
        best_state: Optional[List[int]] = None
        # Single-node moves.
        for i in range(n):
            original = current[i]
            for shard in range(num_shards):
                if shard == original:
                    continue
                current[i] = shard
                key = _assignment_key(graph, num_shards, current)
                if key[1] <= cap and key[:2] < best_key[:2]:
                    best_key = key
                    best_state = list(current)
            current[i] = original
        # Pairwise swaps (KL-style): escape move-local optima.
        for i in range(n):
            for j in range(i + 1, n):
                if current[i] == current[j]:
                    continue
                current[i], current[j] = current[j], current[i]
                key = _assignment_key(graph, num_shards, current)
                if key[1] <= cap and key[:2] < best_key[:2]:
                    best_key = key
                    best_state = list(current)
                current[i], current[j] = current[j], current[i]
        if best_state is None:
            break
        current = best_state
        current_key = best_key
    return tuple(current)


def partition_min_cut(
    graph: LayerGraph, num_shards: int, exhaustive_limit: int = 1 << 17
) -> Placement:
    """Balanced min-cut placement.

    Delegates to the exact enumerator whenever the assignment space fits in
    ``exhaustive_limit`` (so small graphs get the minimum); otherwise runs
    the greedy/KL refinement seeded with round-robin.  A large graph thus
    gets a local optimum, not the minimum: within the round-robin balance
    cap, no single move or pairwise swap improves its (cut, spread) key,
    and its cut is never worse than round-robin's.  Set
    ``exhaustive_limit=0`` to force the heuristic path.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if num_shards ** len(graph.nodes) <= exhaustive_limit:
        assignment = _exhaustive_assignment(graph, num_shards)
    else:
        rr = tuple(i % num_shards for i in range(len(graph.nodes)))
        assignment = _refine_assignment(graph, num_shards, rr)
    return Placement(graph=graph, num_shards=num_shards, assignment=assignment)


# ----------------------------------------------------------------------
# Communication events implied by a placement
# ----------------------------------------------------------------------
KIND_ALL_REDUCE = "all_reduce"
KIND_SEND_RECV = "send_recv"


@dataclass(frozen=True)
class CommEvent:
    """One modelled collective or point-to-point transfer per forward pass.

    ``shards`` is the sorted group of participating shards; ``layer`` the
    destination projection the traffic feeds.
    """

    kind: str
    layer: str
    bytes_per_token: float
    shards: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in (KIND_ALL_REDUCE, KIND_SEND_RECV):
            raise ValueError(f"unknown comm kind {self.kind!r}")
        if self.bytes_per_token < 0:
            raise ValueError("bytes_per_token must be non-negative")
        if len(self.shards) < 2:
            raise ValueError("a comm event involves at least two shards")

    def time_us(self, tokens: int, link: InterconnectSpec) -> float:
        """Modelled wall time of this event for ``tokens`` tokens."""
        nbytes = self.bytes_per_token * tokens
        if self.kind == KIND_ALL_REDUCE:
            return allreduce_time_us(nbytes, len(self.shards), link)
        return send_recv_time_us(nbytes, link)


def placement_comm_events(placement: Placement) -> Tuple[CommEvent, ...]:
    """Communication a placement implies, under Megatron semantics.

    * A row-parallel node whose inputs (and itself) span more than one
      shard sums partial outputs with a ring all-reduce over that group;
      the cut edges feeding it are subsumed by the all-reduce and add no
      separate transfer.
    * Every other cut edge is a point-to-point send/recv of the activation
      tensor it carries.
    """
    owner = placement.as_dict()
    events: List[CommEvent] = []
    for node in placement.graph.nodes:
        in_edges = placement.graph.in_edges(node.name)
        cut_in = [e for e in in_edges if owner[e.src] != owner[e.dst]]
        if node.style == ROW_PARALLEL and in_edges:
            group = sorted({owner[e.src] for e in in_edges} | {owner[node.name]})
            if len(group) > 1:
                out_bytes = node.out_bytes_per_token or max(e.bytes_per_token for e in in_edges)
                events.append(
                    CommEvent(
                        kind=KIND_ALL_REDUCE,
                        layer=node.name,
                        bytes_per_token=out_bytes,
                        shards=tuple(group),
                    )
                )
                cut_in = []  # subsumed by the all-reduce
        for e in cut_in:
            events.append(
                CommEvent(
                    kind=KIND_SEND_RECV,
                    layer=node.name,
                    bytes_per_token=e.bytes_per_token,
                    shards=tuple(sorted((owner[e.src], owner[e.dst]))),
                )
            )
    return tuple(events)

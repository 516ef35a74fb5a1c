"""Sharded multi-device dispatch for model serving.

:class:`ShardedDispatcher` splits a served encoder across ``num_shards``
simulated devices: every projection is *owned* by exactly one shard, and
each projection's GEMM is counted against its owner.  Sharding is a
placement on one :class:`~repro.kernels.dispatch.KernelDispatcher` — one
registry, one decision and estimate memo, one circuit breaker — because
the shards are identical devices: plans are memoized on the weight and
decisions and estimates are pure functions of the operand, so per-device
copies would hold the same entries.  Ownership comes from the balanced
min-cut placement of :mod:`repro.models.distributed` — per-shard modelled
FLOP load stays balanced while the activation bytes crossing shard
boundaries are minimised — and the traffic a placement implies (ring
all-reduces into row-parallel projections whose inputs span shards,
point-to-point send/recv for every other cut edge) is priced with the
ring model over :data:`~repro.hardware.spec.NVLINK` and recorded as
``comm``-category kernels on the serving trace.

The bit-exactness guarantee is preserved by construction: sharding changes
*where* each projection is accounted and what communication is modelled,
never the arithmetic — each SpMM still runs once, unsplit, through the
standard dispatch path, so sharded serving output is bit-for-bit the
single-device ``encoder.forward``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..hardware.spec import NVLINK, GPUSpec
from ..hardware.trace import KernelExecution
from ..kernels.dispatch import KernelDispatcher, SpmmOperand
from ..models.distributed import (
    CommEvent,
    Placement,
    encoder_layer_graph,
    partition_min_cut,
    placement_comm_events,
)


class ShardedDispatcher(KernelDispatcher):
    """A :class:`KernelDispatcher` with a shard placement over its operands.

    Dispatch, estimates, warming, cache and health are the inherited
    single-dispatcher ones; what a shard owns is added on top: the
    operand -> shard placement, per-shard call counts and modelled load,
    and the comm events the placement implies.  A plain dispatcher answers
    ``bind_encoder`` / ``attribute_modelled`` / ``comm_kernels`` /
    ``sharding_stats`` as the ``tp_degree=1`` case, so engines never ask
    which one they hold.  Operands not bound to any shard fall back to
    shard 0.
    """

    def __init__(
        self,
        num_shards: int = 2,
        gpu: Optional[GPUSpec] = None,
        name: str = "sharded",
        **dispatcher_kwargs,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        super().__init__(gpu=gpu, name=name, **dispatcher_kwargs)
        self.num_shards = num_shards
        #: The placement solved by the last :meth:`bind_encoder` call.
        self.placement: Optional[Placement] = None
        #: Comm events one full forward pass implies under the placement.
        self.comm_events: Tuple[CommEvent, ...] = ()
        #: Operand identity -> owning shard index.
        self._owner: Dict[int, int] = {}
        #: Executes routed to each shard.
        self.shard_calls: List[int] = [0] * num_shards
        #: Modelled kernel time attributed to each shard by
        #: :meth:`attribute_modelled` as the engines record their traffic.
        self.shard_modelled_us: List[float] = [0.0] * num_shards
        #: Cumulative modelled communication recorded via :meth:`comm_kernels`.
        self.comm_time_us = 0.0
        self.comm_calls = 0

    # ------------------------------------------------------------------
    # Placement binding
    # ------------------------------------------------------------------
    def bind_encoder(self, encoder) -> Placement:
        """Solve placement for ``encoder`` and take ownership of its operands.

        Builds the encoder's layer graph, partitions it by balanced min-cut,
        and maps every projection's operand — V:N:M or dense, each
        dispatches — to its shard.  Returns the solved :class:`Placement`.
        """
        graph = encoder_layer_graph(encoder)
        placement = partition_min_cut(graph, self.num_shards)
        owner_by_name = placement.as_dict()
        self._owner = {
            id(lin.operand): owner_by_name[qualified]
            for qualified, lin in encoder.named_linear_layers()
        }
        self.placement = placement
        self.comm_events = placement_comm_events(placement)
        return placement

    def shard_of(self, operand: SpmmOperand) -> int:
        """Owning shard of an operand (0 for unbound operands)."""
        return self._owner.get(id(operand), 0)

    def execute(
        self, operand: SpmmOperand, b: np.ndarray, bias: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Count the call against the operand's shard, then execute it."""
        self.shard_calls[self.shard_of(operand)] += 1
        return super().execute(operand, b, bias=bias)

    # ------------------------------------------------------------------
    # Load and communication accounting
    # ------------------------------------------------------------------
    def attribute_modelled(self, operand: SpmmOperand, time_us: float) -> None:
        """Charge ``time_us`` of modelled kernel time to ``operand``'s shard."""
        self.shard_modelled_us[self.shard_of(operand)] += time_us

    def comm_kernels(self, tokens: int, batch_size: int = 1) -> List[KernelExecution]:
        """Modelled comm kernels for one batch forward over ``tokens`` tokens.

        One ``comm``-category :class:`KernelExecution` per placement comm
        event; also advances the cumulative :attr:`comm_time_us` /
        :attr:`comm_calls` counters.  The encoder engine calls it once per
        micro-batch and the simulator once per length group.  The decoder
        never calls it: a decode step records no modelled communication
        yet, so a sharded decoder reports ``comm_time_us`` 0.0.
        """
        kernels: List[KernelExecution] = []
        for event in self.comm_events:
            time_us = event.time_us(tokens, NVLINK)
            kernels.append(
                KernelExecution(
                    kernel="allreduce" if event.kind == "all_reduce" else "send_recv",
                    category="comm",
                    time_us=time_us,
                    bytes_moved=event.bytes_per_token * tokens,
                    meta={
                        "layer": event.layer,
                        "shards": list(event.shards),
                        "batch_size": batch_size,
                        "tokens": tokens,
                    },
                )
            )
            self.comm_time_us += time_us
        self.comm_calls += len(kernels)
        return kernels

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def sharding_stats(self) -> Dict[str, object]:
        """Per-shard load, placement quality and communication totals."""
        placement = self.placement
        modelled = list(self.shard_modelled_us)
        max_us, mean_us = max(modelled), sum(modelled) / len(modelled)
        return {
            "tp_degree": self.num_shards,
            "per_shard_calls": list(self.shard_calls),
            "per_shard_modelled_us": [round(us, 3) for us in modelled],
            "load_balance": round(max_us / mean_us, 4) if mean_us > 0 else (
                round(placement.load_balance, 4) if placement else None
            ),
            "cut_bytes_per_token": placement.cut_bytes_per_token if placement else 0.0,
            "comm_time_us": round(self.comm_time_us, 3),
            "comm_events": self.comm_calls,
        }

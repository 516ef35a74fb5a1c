"""Model-level serving: route whole encoder forward passes.

Inference traffic wants the *model*, not one operator.
``ModelServingEngine`` serves it: requests are ragged ``(tokens, hidden)``
activation sequences, and a micro-batch runs one batched
:meth:`~repro.models.transformer.TransformerEncoder.forward` per distinct
sequence length in it — every projection executing through the engine's
kernel dispatcher on its batched RHS path — whose rows are then handed
back per request.

Three serving-level resources are engine-scoped and shared across every
request the engine ever serves:

* **the kernel dispatcher** — injected into every projection
  (:meth:`TransformerEncoder.set_dispatcher`), so the whole encoder shares
  one decision cache, one tuner and one circuit breaker, isolated from
  other engines;
* **the plan registry** — one warmed
  :class:`~repro.kernels.spatha.SpmmPlan` per sparse projection, looked up
  per micro-batch with hit/miss counters surfaced on :meth:`stats` (the
  cross-request plan-cache reuse the ROADMAP asks for);
* **the per-layer trace** — every micro-batch records one modelled
  :class:`~repro.hardware.trace.KernelExecution` per projection, so serving
  runs aggregate into the same per-layer breakdowns the evaluation harness
  uses (:meth:`per_layer_times`).

Bit-exactness is the core guarantee, now model-level: serving N requests
batched is bit-for-bit equal to N sequential ``encoder.forward`` calls.
Every operator in the stack is slab-exact over the batch dimension — the
dispatcher's batched path by construction (one GEMM per slab, dense or
V:N:M), and the attention matmuls / softmax /
LayerNorm / GELU because they reduce within a slab — so stacking
*same-length* sequences changes no bits.  A micro-batch is therefore run
as equal-length groups, shortest first, each one forward at its true
shape (Orca's selective batching: never pad; a padded GEMM can change the
summation order of the valid rows, see :mod:`repro.models.attention`).
``padding="exact"`` (default) buckets by exact length, so a micro-batch
is one group; ``padding="ladder"`` rounds lengths up a powers-of-two
ladder, so one step takes every length that shares a rung — fuller
steps, same bits.  The modelled trace charges the ``B × rung`` launch a
GPU would run.  :func:`length_groups` is the one grouping rule; the
simulator (:mod:`repro.serving.simulate`) charges the same groups.

Orthogonally to the padding mode, the step loop of
:class:`~repro.serving.engine.EngineCore` and its batcher's hold decide
when a queued request executes.  Scheduling never touches numerics, so
the guarantee holds under any hold, cadence and arrival order.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .batcher import MicroBatch, Request
from .config import ServingConfig
from .engine import EngineCore
from ..hardware.trace import ExecutionTrace
from ..kernels.dispatch import KernelDispatcher
from ..kernels.spatha import SpmmPlan
from ..models.layers import Linear
from ..models.transformer import TransformerEncoder


def length_groups(batch: MicroBatch) -> List[List[Request]]:
    """The micro-batch's equal-length groups, shortest first.

    One encoder forward per group: every sequence runs at its true shape,
    so no padded row reaches a GEMM or a softmax, and each output is
    bit-for-bit its sequential forward.  The live engine runs the groups
    in this order and the simulator charges them in it.
    """
    groups: Dict[int, List[Request]] = {}
    for req in batch.requests:
        groups.setdefault(req.tokens, []).append(req)
    return [groups[tokens] for tokens in sorted(groups)]


class ModelServingEngine(EngineCore):
    """Dynamic-batching server for a whole :class:`TransformerEncoder`.

    An :class:`~repro.serving.engine.EngineCore` whose micro-batch is one
    batched encoder forward: ``serve`` a window, or ``step`` /
    ``serve_continuous`` arrivals — requests join open ladder rungs between
    steps.

    An engine takes ownership of the encoder's execution routing:
    constructing it injects the engine's dispatcher into every projection.
    Constructing a *second* engine on the same encoder re-routes those
    layers to the newer engine; the displaced engine
    detects this on its next batch and raises rather than silently
    executing through (and tracing against) a dispatcher that is no longer
    wired in.  Use one engine per encoder, or re-create the engine.

    Parameters
    ----------
    encoder:
        The model to serve.  Its projections are re-routed through this
        engine's dispatcher (cache scoping per engine).
    dispatcher:
        Kernel dispatcher to execute through.  Defaults to a *fresh*
        engine-private :class:`KernelDispatcher` — two engines never share
        memoized dispatch signatures unless explicitly given one dispatcher.
    config:
        The :class:`~repro.serving.config.ServingConfig`.  ``warm``
        (default True) eagerly builds every sparse projection's SpMM plan
        and pre-ranks every projection's dispatch decisions for
        ``warm_buckets`` (sequence lengths here), so the first window pays
        neither the plan build nor the tuner sweep.  ``padding`` picks the batcher's buckets
        (``"exact"`` lengths or the ``"ladder"`` rungs, held per
        ``scheduling``); either is bit-exact per request, because each
        micro-batch runs as equal-length groups.
    """

    def __init__(
        self,
        encoder: TransformerEncoder,
        dispatcher: Optional[KernelDispatcher] = None,
        config: Optional[ServingConfig] = None,
    ) -> None:
        if not isinstance(encoder, TransformerEncoder):
            raise TypeError("encoder must be a TransformerEncoder")
        super().__init__("encoder", "encoder-serving", config, dispatcher)
        self.encoder = encoder
        self.hidden_size = encoder.config.hidden_size
        self.padding = self.config.padding
        self._route(encoder)
        self.trace = ExecutionTrace()
        self.total_batches = 0
        #: Token-level padding accounting (ladder mode; exact mode pads 0).
        self.total_valid_tokens = 0
        self.total_padded_tokens = 0
        #: Engine-lifetime plan registry: qualified layer name -> SpmmPlan.
        self.plans: Dict[str, SpmmPlan] = {}
        self.plan_hits = 0
        self.plan_misses = 0
        if self.config.warm:
            # Build every sparse projection's plan and pre-rank every
            # projection's warm buckets.  Warm-time plan builds are *not* cache misses: the
            # counters measure serving-time traffic, so a warmed engine
            # serves with ``plan_misses == 0``.
            self.dispatcher.warm_many(
                [lin.operand for _, lin in encoder.named_linear_layers()],
                cs=self.config.warm_buckets,
            )
            self.plans.update(self.encoder.spmm_plan_registry())

    def _route(self, encoder: TransformerEncoder) -> None:
        """Take the encoder's execution routing: every projection executes
        through this engine's dispatcher."""
        encoder.set_dispatcher(self.dispatcher)

    # ------------------------------------------------------------------
    # Plan cache
    # ------------------------------------------------------------------
    def _plan_for(self, qualified_name: str, layer: Linear) -> SpmmPlan:
        """Registry lookup with hit/miss accounting (one per projection per batch).

        The registry does not shadow the execution path: its entries are
        the *same* objects the dispatcher's kernel path reaches through
        ``SpmmPlan.for_matrix`` (plans are memoized on the weight, and
        ``for_matrix`` on an already-planned weight returns that memo), so
        a registry hit is exactly "this batch reuses a previously built
        plan" — the cross-request reuse the counters exist to prove.  The
        identity is pinned by a test.
        """
        plan = self.plans.get(qualified_name)
        if plan is not None:
            self.plan_hits += 1
            return plan
        self.plan_misses += 1
        plan = SpmmPlan.for_matrix(layer.operand.vnm)
        self.plans[qualified_name] = plan
        return plan

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _record_layer_executions(self, batch: MicroBatch) -> None:
        """Model one kernel launch per projection at the padded ``B × rung``
        a GPU would run."""
        seq = batch.key.token_bucket
        total_tokens = batch.batch_size * seq
        for qualified_name, lin in self.encoder.named_linear_layers():
            backend = self.dispatcher.dispatch(lin.operand, seq).backend
            modelled = self.dispatcher.estimate(lin.operand, total_tokens, backend=backend)
            execution = modelled.as_execution(category="gemm")
            execution.meta.update(
                {
                    "serving": self.name,
                    "layer": qualified_name,
                    "backend": backend,
                    "batch_size": batch.batch_size,
                    "tokens": seq,
                }
            )
            self.trace.record(execution)

    def _execute_batch(self, batch: MicroBatch) -> Dict[str, np.ndarray]:
        if batch.key.features != self.hidden_size:
            raise ValueError(
                f"{self.name}: micro-batch feature width ({batch.key.features}) does not "
                f"match the encoder hidden size ({self.hidden_size})"
            )
        # The live projections, not a snapshot from construction: a layer
        # sparsified after the engine was built carries no engine dispatcher
        # and must fail loudly, not execute through the process default.
        for qualified_name, lin in self.encoder.named_linear_layers():
            if lin.dispatcher is not self.dispatcher:
                # A newer engine (or a direct set_dispatcher call) re-routed
                # the encoder.  Executing anyway would populate the other
                # dispatcher's caches while this engine's trace reported its
                # own — silently wrong on both sides, so fail loudly.
                raise RuntimeError(
                    f"{self.name}: encoder layer {qualified_name!r} is no longer routed "
                    f"through this engine's dispatcher (another ModelServingEngine was "
                    f"constructed on the same encoder?); serve through the engine that "
                    f"owns the encoder, or build a fresh engine"
                )
            if lin.operand.vnm is not None:
                self._plan_for(qualified_name, lin)  # cross-request plan reuse
        outputs: Dict[str, np.ndarray] = {}
        for group in length_groups(batch):
            out = self.encoder.forward(np.stack([req.activations for req in group]))
            outputs.update((req.request_id, out[i].copy()) for i, req in enumerate(group))
        self._record_layer_executions(batch)
        self._count_served(batch)
        return outputs

    def _count_served(self, batch: MicroBatch) -> None:
        self.total_batches += 1
        self.total_requests += batch.batch_size
        self.total_valid_tokens += batch.valid_tokens
        self.total_padded_tokens += batch.padded_tokens

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def per_layer_times(self) -> Dict[str, float]:
        """Aggregated modelled time (us) per projection across all batches."""
        totals: Dict[str, float] = {}
        for execution in self.trace.executions:
            layer = execution.meta.get("layer")
            if layer is not None:
                totals[layer] = totals.get(layer, 0.0) + execution.time_us
        return totals

    def stats(self) -> Dict[str, object]:
        """Counters, cache traffic and the per-layer modelled breakdown."""
        return {
            "requests": self.total_requests,
            "batches": self.total_batches,
            "mean_batch_size": (self.total_requests / self.total_batches)
            if self.total_batches
            else 0.0,
            "padding": {
                "mode": self.padding,
                "valid_tokens": self.total_valid_tokens,
                "bucket_tokens": self.total_padded_tokens,
                # Fraction of bucket rows holding real tokens (1.0 = no padding).
                "fill": (self.total_valid_tokens / self.total_padded_tokens)
                if self.total_padded_tokens
                else 0.0,
            },
            **self._shared_stats(),
            "sparse_projections": self.encoder.count_sparse_layers(),
            "plan_cache": {
                "size": len(self.plans),
                "hits": self.plan_hits,
                "misses": self.plan_misses,
            },
            "dispatch_cache": self.dispatcher.cache_stats(),
            "modelled_kernel_time_us": self.trace.total_time_us,
            "per_layer_time_us": self.per_layer_times(),
        }

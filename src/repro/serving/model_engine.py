"""Model-level serving: route whole encoder forward passes, not one layer.

:class:`~repro.serving.engine.ServingEngine` serves a single sparse
operator; real inference traffic wants the *model*.  ``ModelServingEngine``
closes that gap: requests are ragged ``(tokens, hidden)`` activation
sequences, micro-batches run one batched
:meth:`~repro.models.transformer.TransformerEncoder.forward` per bucket —
every sparse projection executing through the engine's kernel dispatcher on
its batched RHS path — and the results are split back per request.

Three serving-level resources are engine-scoped and shared across every
request the engine ever serves:

* **the kernel dispatcher** — injected into all sparse projections
  (:meth:`TransformerEncoder.set_dispatcher`), so the whole encoder shares
  one decision cache and one tuner, isolated from other engines;
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
Two batching policies deliver it:

* ``padding="exact"`` (default) stacks only *same-length* sequences.
  Every operator in the stack is slab-exact over the batch dimension — the
  dispatcher's batched SpMM path by construction, the dense layers via the
  batched-matmul formulation, and the attention matmuls / softmax /
  LayerNorm / GELU because they reduce within a slab — so same-length
  stacking needs no masking at all.  Under ragged traffic, though, most
  exact buckets stay near-empty.
* ``padding="ladder"`` rounds lengths up a powers-of-two bucket ladder,
  zero-pads each sequence to its rung, and runs one batched
  ``encoder.forward`` behind an additive attention mask
  (:func:`~repro.models.functional.padding_mask`): padded key positions
  get exactly zero softmax weight, the masked encoder executes every
  sequence at its true length (see :mod:`repro.models.attention` for why
  bitwise equality needs that, not just exact zeros), and the engine
  slices the valid rows back out.  Fuller buckets, same bits.

Orthogonally to the padding mode, the three *scheduling* drivers of
:class:`~repro.serving.engine.EngineCore` (whole windows, async windows,
the continuous step loop) decide when a queued request executes.
Scheduling never touches numerics, so the guarantee holds under all three.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .batcher import MicroBatch, Request, ShapeBucketBatcher
from .config import ServingConfig
from .engine import EngineCore
from ..hardware.trace import ExecutionTrace
from ..kernels.dispatch import KernelDispatcher
from ..kernels.spatha import SpmmPlan
from ..models.functional import padding_mask
from ..models.layers import SparseLinear
from ..models.transformer import TransformerEncoder


class ModelServingEngine(EngineCore):
    """Dynamic-batching server for a whole :class:`TransformerEncoder`.

    An :class:`~repro.serving.engine.EngineCore` whose micro-batch is one
    batched encoder forward; all three of the core's scheduling drivers
    apply (pass an :class:`~repro.serving.batcher.AsyncWindowBatcher` for
    ``poll``, a :class:`~repro.serving.continuous.ContinuousBatcher` for
    ``step`` — requests join open ladder rungs between steps).

    An engine takes ownership of the encoder's execution routing:
    constructing it injects the engine's dispatcher into every sparse
    projection.  Constructing a *second* engine on the same encoder
    re-routes those layers to the newer engine; the displaced engine
    detects this on its next batch and raises rather than silently
    executing through (and tracing against) a dispatcher that is no longer
    wired in.  Use one engine per encoder, or re-create the engine.

    Parameters
    ----------
    encoder:
        The model to serve.  Its sparse projections are re-routed through
        this engine's dispatcher (cache scoping per engine).
    dispatcher:
        Kernel dispatcher to execute through.  Defaults to a *fresh*
        engine-private :class:`KernelDispatcher` — two engines never share
        memoized dispatch signatures unless explicitly given one dispatcher.
    batcher:
        Request batcher.  Defaults to exact-length bucketing
        (:meth:`ShapeBucketBatcher.exact_length`) in ``padding="exact"``
        mode and the powers-of-two ladder
        (:meth:`ShapeBucketBatcher.ladder`) in ``padding="ladder"`` mode;
        pass an :class:`~repro.serving.batcher.AsyncWindowBatcher` built
        the same way for arrival-deadline window closing via :meth:`poll`.
    config:
        The :class:`~repro.serving.config.ServingConfig`.  ``warm``
        (default True) eagerly builds every sparse projection's SpMM plan
        and pre-ranks the dispatch decisions of ``warm_buckets`` (sequence
        lengths here), so the first window pays neither operand preparation
        nor the tuner sweep.  ``padding="exact"`` (default) refuses any
        batcher that would zero-pad a sequence; ``"ladder"`` pads to bucket
        rungs behind the attention mask.  Both are bit-exact per request;
        ladder mode trades a little padded compute for far fuller buckets
        under ragged traffic.  When its ``sharding`` block is
        enabled, the engine builds a
        :class:`~repro.serving.sharded.ShardedDispatcher` and solves
        min-cut placement for the encoder at construction.
    """

    def __init__(
        self,
        encoder: TransformerEncoder,
        dispatcher: Optional[KernelDispatcher] = None,
        batcher: Optional[ShapeBucketBatcher] = None,
        config: Optional[ServingConfig] = None,
    ) -> None:
        if not isinstance(encoder, TransformerEncoder):
            raise TypeError("encoder must be a TransformerEncoder")
        super().__init__("encoder", "encoder-serving", config, dispatcher, batcher)
        self.encoder = encoder
        self.hidden_size = encoder.config.hidden_size
        self.padding = self.config.padding
        encoder.set_dispatcher(self.dispatcher)
        # Sharded dispatchers solve placement for the encoder they serve:
        # every sparse operand is bound to its owning shard up front.
        self.dispatcher.bind_encoder(encoder)
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
            self.warm(self.config.warm_buckets)

    def _sparse_layers(self) -> List[Tuple[str, SparseLinear]]:
        """The encoder's *live* sparse projections.

        Looked up fresh on every use rather than snapshotted at
        construction: layers sparsified after the engine was built must be
        seen by the routing guard (they carry no engine dispatcher and have
        to fail loudly, not silently execute through the process default).
        """
        return list(self.encoder.named_sparse_layers())

    # ------------------------------------------------------------------
    # Warming / plan cache
    # ------------------------------------------------------------------
    def warm(self, buckets: Sequence[int] = ()) -> int:
        """Build every sparse projection's plan and pre-rank ``buckets``.

        Returns the number of operands warmed.  Warm-time plan builds are
        *not* counted as cache misses — the counters measure serving-time
        traffic, so a warmed engine serves with ``plan_misses == 0``.
        """
        warmed = self.dispatcher.warm_many(
            [lin.operand for _, lin in self._sparse_layers()], cs=buckets
        )
        self.plans.update(self.encoder.spmm_plan_registry())
        return warmed

    def _plan_for(self, qualified_name: str, layer: SparseLinear) -> SpmmPlan:
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
        plan = SpmmPlan.for_matrix(layer.sparse_weight)
        self.plans[qualified_name] = plan
        return plan

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def _validate(self, request: Request) -> None:
        if request.features != self.hidden_size:
            raise ValueError(
                f"{self.name}: request {request.request_id!r} has feature width "
                f"{request.features}, but the encoder's hidden size is {self.hidden_size}; "
                f"submit activations of shape (tokens, {self.hidden_size})"
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _record_layer_executions(self, batch: MicroBatch) -> None:
        """Model one kernel launch per projection at the batch's true size."""
        seq = batch.key.token_bucket
        total_tokens = batch.batch_size * seq
        for qualified_name, lin in self.encoder.named_linear_layers():
            if isinstance(lin, SparseLinear):
                decision = self.dispatcher.dispatch(lin.operand, seq)
                modelled = self.dispatcher.estimate(
                    lin.operand, total_tokens, backend=decision.backend
                )
                backend = decision.backend
            else:
                modelled = lin.kernel_result(total_tokens, gpu=self.dispatcher.gpu)
                backend = "cublas-dense"
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
        # Sharded serving: one comm-category kernel per collective the
        # placement implies for this batch's token volume.
        for execution in self.dispatcher.comm_kernels(total_tokens, batch.batch_size):
            execution.meta["serving"] = self.name
            self.trace.record(execution)

    def _execute_batch(self, batch: MicroBatch) -> Dict[str, np.ndarray]:
        if batch.key.features != self.hidden_size:
            raise ValueError(
                f"{self.name}: micro-batch feature width ({batch.key.features}) does not "
                f"match the encoder hidden size ({self.hidden_size})"
            )
        padded = [r for r in batch.requests if r.tokens != batch.key.token_bucket]
        if padded and self.padding == "exact":
            # Without a mask, zero-padded key tokens would enter attention's
            # softmax denominators and silently perturb the real tokens.
            # Exact mode therefore refuses any batcher that pads.
            raise ValueError(
                f"{self.name}: requests {[r.request_id for r in padded]} would be "
                f"zero-padded from their true length to the {batch.key.token_bucket}-token "
                f"bucket, which is not numerics-neutral through attention/LayerNorm; "
                f"use an exact-length batcher (ShapeBucketBatcher.exact_length() / "
                f"AsyncWindowBatcher.exact_length()) or construct the engine with "
                f"padding='ladder' to serve padded buckets behind the attention mask"
            )
        for qualified_name, lin in self._sparse_layers():
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
            self._plan_for(qualified_name, lin)  # cross-request plan reuse
        hidden = batch.stacked_activations()  # (B, bucket, hidden)
        if padded:
            # Ladder mode with real padding: run the one batched forward
            # behind the right-padding attention mask — padded keys get
            # exactly zero attention weight and the masked encoder executes
            # every sequence at its true length, so the valid rows sliced
            # out below are bit-for-bit the standalone forward.
            mask = padding_mask(batch.valid_lengths, batch.key.token_bucket)
            out = self.encoder.forward(hidden, attention_mask=mask)
        else:
            out = self.encoder.forward(hidden)  # (B, seq, hidden), slab-exact
        self._record_layer_executions(batch)
        self.total_batches += 1
        self.total_requests += batch.batch_size
        self.total_valid_tokens += batch.valid_tokens
        self.total_padded_tokens += batch.padded_tokens
        return batch.split_hidden(out)

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
            "sparse_projections": len(self._sparse_layers()),
            "plan_cache": {
                "size": len(self.plans),
                "hits": self.plan_hits,
                "misses": self.plan_misses,
            },
            "dispatch_cache": self.dispatcher.cache_stats(),
            "modelled_kernel_time_us": self.trace.total_time_us,
            "per_layer_time_us": self.per_layer_times(),
        }

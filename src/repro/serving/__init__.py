"""Dynamic-batching serving layer on top of the kernel dispatcher.

This package turns the per-call SpMM machinery into a request-serving
subsystem (the ROADMAP's "heavy traffic" direction).  Two engines share one
core, and the simulator replays the first on the modelled clock:

* :mod:`~repro.serving.batcher` — the request and micro-batch types:
  requests whose lengths fall into the same bucket (ladder rung) share a
  micro-batch; nothing is padded.
* :mod:`~repro.serving.engine` — ``EngineCore``, the one intake / step /
  replay / outcome / stats implementation both engines (and the
  simulator's modelled engine) subclass.
* :mod:`~repro.serving.model_engine` — model-level serving:
  :class:`ModelServingEngine` routes whole
  :class:`~repro.models.transformer.TransformerEncoder` forward passes
  through the dispatcher per micro-batch, one forward per equal-length
  group, with an engine-scoped plan registry (cross-request reuse,
  hit/miss counters) and a per-layer modelled trace.
* :mod:`~repro.serving.continuous` — the one batcher:
  :class:`ContinuousBatcher` buckets requests by shape and schedules one
  micro-batch per engine step, so requests join compatible open ladder
  rungs between steps (mid-flight admission) and completed sequences leave
  without blocking the rung; an optional ``window_us`` hold is Triton-style
  dynamic batching on the same loop.  Per-request
  :class:`~repro.serving.continuous.CompletionRecord` metadata is
  deterministic.
* :mod:`~repro.serving.decoder` — multi-step decode serving:
  :class:`DecoderServingEngine` keeps each request resident on its ladder
  rung for many steps, appending one token per step into a shared
  :class:`~repro.models.kv_cache.PagedKVCache` (block tables for
  admission, rows in sequence-owned extents attention reads in place,
  prefix sharing); cached decoding is bit-for-bit the per-step
  full causal recompute (:func:`decode_reference`).
* :mod:`~repro.serving.config` — :class:`ServingConfig`, the one typed
  home for engine knobs (scheduling, padding, admission control, KV
  geometry, warming), plus the :func:`create_engine` factory.
* :mod:`~repro.serving.simulate` — throughput/latency/chaos/SLO
  simulator on the modelled GPU: :func:`simulate` runs a
  ``ModelServingEngine`` whose micro-batch charges the live forward's
  calls — length groups, projections in forward order, the failover
  walk — instead of running them,
  driven by the engine core's own step loop under the same
  :class:`ServingConfig` an engine reads; one :class:`SimReport`.

The core guarantee, property-tested end to end: batched execution of N
compatible requests is bit-identical to N sequential single-request
``encoder.forward`` calls, in both batching modes (``padding="exact"``
stacks same-length sequences only, where every operator of the encoder is
slab-exact over the batch dimension; ``padding="ladder"`` lets ragged
lengths share a ladder rung and runs the micro-batch as equal-length
groups, each at its true shape).
"""

from .batcher import DEFAULT_TOKEN_BUCKETS, BucketKey, MicroBatch, Request
from .config import (
    SCHEDULING_MODES,
    ServingConfig,
    create_engine,
)
from .continuous import (
    SCHEDULING_POLICIES,
    CompletionRecord,
    ContinuousBatcher,
    SchedulingConfig,
    plan_slo_batch_reference,
)
from .decoder import DecodeRequest, DecoderServingEngine, decode_reference
from .faults import (
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_SHED,
    OUTCOME_STATES,
    OUTCOME_TIMED_OUT,
    BackendExecutionError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RequestOutcome,
    outcome_counts,
)
from .model_engine import ModelServingEngine
from .simulate import (
    SimReport,
    SimulatedRequest,
    bursty_arrivals,
    compress_arrivals,
    merge_arrivals,
    pareto_lengths,
    poisson_arrivals,
    simulate,
    uniform_arrivals,
)

__all__ = [
    "DEFAULT_TOKEN_BUCKETS",
    "OUTCOME_FAILED",
    "OUTCOME_OK",
    "OUTCOME_SHED",
    "OUTCOME_STATES",
    "OUTCOME_TIMED_OUT",
    "SCHEDULING_MODES",
    "SCHEDULING_POLICIES",
    "BackendExecutionError",
    "BucketKey",
    "CompletionRecord",
    "ContinuousBatcher",
    "DecodeRequest",
    "DecoderServingEngine",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "MicroBatch",
    "ModelServingEngine",
    "Request",
    "RequestOutcome",
    "SchedulingConfig",
    "ServingConfig",
    "SimReport",
    "SimulatedRequest",
    "bursty_arrivals",
    "compress_arrivals",
    "create_engine",
    "decode_reference",
    "merge_arrivals",
    "outcome_counts",
    "pareto_lengths",
    "plan_slo_batch_reference",
    "poisson_arrivals",
    "simulate",
    "uniform_arrivals",
]

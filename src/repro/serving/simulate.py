"""Throughput/latency simulation of the encoder serving stack on the modelled GPU.

The engines execute real numerics; this module answers the capacity
questions — *what does a batch window buy? who sheds under overload? what
does a flaky backend cost?* — without moving any data.  It is an executor
of the live engine: :class:`ModelledEngine` is a
:class:`~repro.serving.model_engine.ModelServingEngine` whose micro-batch
charges, instead of running, the calls the live forward would make — each
length group (shortest first, the live grouping), each projection in
forward order, each call priced at its group's true column count on the
backend the failover walk
(:meth:`~repro.kernels.dispatch.CircuitBreaker.walk`) lands on — to one
serial stream.
Shape-only requests go through the engine core's own step loop, so intake,
shedding, deadline expiry, bisection of a failed micro-batch and outcomes
are the live engine's, written once.

:func:`simulate` is the one entry point: it reads the same
:class:`~repro.serving.config.ServingConfig` an engine reads (a missing
config is ``ServingConfig()``), takes an optional fault plan, and returns
one :class:`SimReport` carrying that config.  A sweep is a comprehension
over ``dataclasses.replace(config, ...)``; offered load is a traffic
transform (:func:`compress_arrivals`) beside the arrival generators.
Every launch of a served micro-batch is recorded as a
:class:`~repro.hardware.trace.KernelExecution`.  Larger windows trade
queueing delay for kernel efficiency, because the modelled SpMM time is
strongly sublinear in C.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .batcher import MicroBatch, Request
from .config import ServingConfig
from .faults import OUTCOME_OK, OUTCOME_SHED, OUTCOME_STATES, OUTCOME_TIMED_OUT, FaultInjector, FaultPlan
from .model_engine import ModelServingEngine, length_groups
from ..hardware.trace import ExecutionTrace, KernelExecution
from ..kernels.dispatch import CircuitBreaker, KernelDispatcher, SpmmOperand
from ..models.transformer import TransformerEncoder


@dataclass(frozen=True)
class SimulatedRequest:
    """A request reduced to what the simulator needs: size, arrival, deadline."""

    request_id: str
    tokens: int
    arrival_us: float = 0.0
    #: Last instant the request may still complete (None = no deadline).
    deadline_us: Optional[float] = None
    #: Tenant tier for SLO-aware scheduling (larger = more urgent).
    priority_class: int = 0

    def __post_init__(self) -> None:
        if self.tokens <= 0:
            raise ValueError("tokens must be positive")
        if self.arrival_us < 0:
            raise ValueError("arrival_us must be non-negative")
        if self.deadline_us is not None and self.deadline_us < self.arrival_us:
            raise ValueError(
                f"request {self.request_id!r}: deadline_us precedes arrival_us"
            )
        if not isinstance(self.priority_class, int) or self.priority_class < 0:
            raise ValueError(
                f"request {self.request_id!r}: priority_class must be a "
                f"non-negative int, got {self.priority_class!r}"
            )


def uniform_arrivals(
    num_requests: int,
    rate_rps: float,
    tokens: Sequence[int],
    prefix: str = "req",
) -> List[SimulatedRequest]:
    """Evenly spaced arrivals at ``rate_rps`` with cycling token counts."""
    _check_traffic_args(num_requests, tokens, None)
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    return _stamp_requests(np.arange(num_requests) * (1e6 / rate_rps), tokens, None, prefix, 0)


def poisson_arrivals(
    num_requests: int,
    rate_rps: float,
    tokens: Sequence[int],
    seed: int = 0,
    deadline_after_us: Optional[float] = None,
    prefix: str = "req",
    priority_class: int = 0,
) -> List[SimulatedRequest]:
    """Seeded Poisson arrivals at mean ``rate_rps`` with cycling token counts.

    The bursty counterpart of :func:`uniform_arrivals` (exponential
    inter-arrival gaps drawn from ``default_rng(seed)`` — fully replayable),
    used by the chaos scenarios: a Poisson stream at the same mean rate
    produces the transient queue build-ups that exercise admission control.
    ``deadline_after_us`` stamps every request with a deadline that many
    microseconds after its arrival.
    """
    _check_traffic_args(num_requests, tokens, deadline_after_us)
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    rng = np.random.default_rng(int(seed))
    arrivals = np.cumsum(rng.exponential(1e6 / rate_rps, size=num_requests))
    return _stamp_requests(arrivals, tokens, deadline_after_us, prefix, priority_class)


def _stamp_requests(
    arrivals_us,
    tokens: Sequence[int],
    deadline_after_us: Optional[float],
    prefix: str,
    priority_class: int,
) -> List[SimulatedRequest]:
    """Turn a generated arrival-time sequence into stamped requests."""
    return [
        SimulatedRequest(
            request_id=f"{prefix}-{i:06d}",
            tokens=int(tokens[i % len(tokens)]),
            arrival_us=float(t),
            deadline_us=(
                float(t) + deadline_after_us if deadline_after_us is not None else None
            ),
            priority_class=priority_class,
        )
        for i, t in enumerate(arrivals_us)
    ]


def _check_traffic_args(
    num_requests: int, tokens: Sequence[int], deadline_after_us: Optional[float]
) -> None:
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if not tokens:
        raise ValueError("tokens must be non-empty")
    if deadline_after_us is not None and deadline_after_us < 0:
        raise ValueError("deadline_after_us must be non-negative")


def bursty_arrivals(
    num_requests: int,
    base_rate_rps: float,
    burst_rate_rps: float,
    tokens: Sequence[int],
    mean_dwell_us: float = 50_000.0,
    seed: int = 0,
    deadline_after_us: Optional[float] = None,
    prefix: str = "req",
    priority_class: int = 0,
) -> List[SimulatedRequest]:
    """Seeded two-state MMPP (on-off) arrivals: Poisson bursts over a base.

    The bursty traffic model of production multi-tenant serving: the
    arrival process alternates between a *base* state (rate
    ``base_rate_rps``) and a *burst* state (``burst_rate_rps``), dwelling
    in each for an exponential time of mean ``mean_dwell_us``; within a
    state, arrivals are Poisson at that state's rate.  The crossing gap at
    a state switch is discarded and redrawn at the new rate, which is
    exact for Poisson processes (memorylessness), so the sample path is a
    true Markov-modulated Poisson process — and fully replayable from
    ``seed``.  The long-run mean rate is the average of the two rates; the
    variance of windowed counts is strictly super-Poisson whenever the
    rates differ (the burstiness the statistical tests check).
    """
    _check_traffic_args(num_requests, tokens, deadline_after_us)
    if base_rate_rps <= 0 or burst_rate_rps <= 0:
        raise ValueError("base_rate_rps and burst_rate_rps must be positive")
    if mean_dwell_us <= 0:
        raise ValueError("mean_dwell_us must be positive")
    rng = np.random.default_rng(int(seed))
    rates = (base_rate_rps, burst_rate_rps)
    state = 0
    t = 0.0
    state_end = float(rng.exponential(mean_dwell_us))
    arrivals: List[float] = []
    while len(arrivals) < num_requests:
        gap = float(rng.exponential(1e6 / rates[state]))
        if t + gap <= state_end:
            t += gap
            arrivals.append(t)
        else:
            t = state_end
            state = 1 - state
            state_end = t + float(rng.exponential(mean_dwell_us))
    return _stamp_requests(arrivals, tokens, deadline_after_us, prefix, priority_class)


def pareto_lengths(
    num_requests: int,
    alpha: float = 1.5,
    min_tokens: int = 1,
    max_tokens: int = 512,
    seed: int = 0,
) -> List[int]:
    """Seeded heavy-tailed (Pareto) token counts, clipped to a ceiling.

    Sequence lengths in production traffic are heavy-tailed: most requests
    are short, a few are enormous.  Draws ``min_tokens * (1 + Pareto(alpha))``
    — a Pareto distribution with scale ``min_tokens`` and tail index
    ``alpha`` (smaller alpha = heavier tail) — and clips at ``max_tokens``
    (real servers cap context length).  Feed the result to any arrival
    generator's ``tokens=`` (lengths cycle, and the list is exactly
    ``num_requests`` long, so each request gets its own draw).
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if min_tokens < 1 or max_tokens < min_tokens:
        raise ValueError("need 1 <= min_tokens <= max_tokens")
    rng = np.random.default_rng(int(seed))
    draws = min_tokens * (1.0 + rng.pareto(alpha, size=num_requests))
    return [int(min(float(max_tokens), d)) for d in draws]


def merge_arrivals(*streams: Sequence[SimulatedRequest]) -> List[SimulatedRequest]:
    """Merge per-tenant arrival streams into one multi-tenant trace.

    Each stream keeps its own ids (use distinct ``prefix``es per tenant)
    and priority classes; the merge is sorted by ``(arrival_us,
    request_id)`` — the scheduler-facing order.  Duplicate ids across
    streams are rejected (they would collide in the engines' queues).
    """
    merged: List[SimulatedRequest] = [req for stream in streams for req in stream]
    seen = set()
    for req in merged:
        if req.request_id in seen:
            raise ValueError(
                f"duplicate request_id {req.request_id!r} across merged streams; "
                f"give each tenant its own prefix"
            )
        seen.add(req.request_id)
    return sorted(merged, key=lambda r: (r.arrival_us, r.request_id))


def compress_arrivals(
    requests: Sequence[SimulatedRequest], load_factor: float
) -> List[SimulatedRequest]:
    """Offer ``requests`` at ``load_factor`` times their load.

    Arrival times are divided by the factor (2.0 = twice the offered load)
    and each deadline keeps its offset from its arrival, so one seeded
    trace answers the brownout question — *which class sheds, and whose
    tail blows up, as load climbs past capacity?*
    """
    if load_factor <= 0:
        raise ValueError("load_factor must be positive")
    if load_factor == 1.0:
        return list(requests)
    return [
        replace(
            r,
            arrival_us=r.arrival_us / load_factor,
            deadline_us=None
            if r.deadline_us is None
            else r.arrival_us / load_factor + (r.deadline_us - r.arrival_us),
        )
        for r in requests
    ]


def _latency_stat(values: Iterable[float], q: Optional[float] = None) -> float:
    """Mean (``q=None``) or ``q``-th percentile of a latency sample.

    The one source of every :class:`SimReport` latency statistic.  ``NaN``
    on an empty sample: "nothing completed" is *no data*, never a zero
    latency — ``0.0`` once let empty chaos runs sail through latency floors
    (``tools/check_bench_trend.py`` skips NaN with a warning instead).
    """
    sample = list(values)
    if not sample:
        return float("nan")
    return float(np.mean(sample) if q is None else np.percentile(sample, q))


@dataclass
class SimReport:
    """Outcome of one :func:`simulate` run.

    Everything is derived from the per-request terminal states and the
    completion latencies of the ``ok`` requests.  Deterministic: the same
    (requests, config, fault plan) replays to the identical report.
    """

    num_requests: int
    makespan_us: float
    #: Micro-batches charged to the modelled executor (served or failed).
    num_batches: int = 0
    #: Micro-batches served (each is many traced launches).
    served_batches: int = 0
    #: Terminal state per request id (one of OUTCOME_STATES).
    outcomes: Dict[str, str] = field(default_factory=dict)
    #: Completion latency (finish - arrival) of the ok requests only.
    latencies_us: Dict[str, float] = field(default_factory=dict)
    #: Priority class per request id (empty = every request was class 0).
    classes: Dict[str, int] = field(default_factory=dict)
    trace: ExecutionTrace = field(default_factory=ExecutionTrace)
    #: The config the run was asked for (its labels: window, scheduling
    #: mode, padding, cross-class policy and class count).
    config: ServingConfig = field(default_factory=ServingConfig)
    #: Seed of the fault plan the run replayed.
    seed: int = 0
    #: Circuit-breaker and fault-injection traffic of the modelled executor.
    failovers: int = 0
    quarantines: int = 0
    readmissions: int = 0
    injected_failures: int = 0
    injected_latency_us: float = 0.0

    def counts(self) -> Dict[str, int]:
        """Requests per terminal state (all four keys always present)."""
        out = {state: 0 for state in OUTCOME_STATES}
        for status in self.outcomes.values():
            out[status] += 1
        return out

    def _rate(self, state: str) -> float:
        return self.counts()[state] / self.num_requests if self.num_requests else 0.0

    @property
    def availability(self) -> float:
        """Fraction of requests that completed ``ok``."""
        return self._rate(OUTCOME_OK)

    @property
    def shed_rate(self) -> float:
        """Fraction of requests refused by admission control."""
        return self._rate(OUTCOME_SHED)

    @property
    def violation_rate(self) -> float:
        """Fraction of requests that missed their deadline."""
        return self._rate(OUTCOME_TIMED_OUT)

    @property
    def throughput_rps(self) -> float:
        """``ok`` completions per second of simulated makespan."""
        if self.makespan_us <= 0:
            return 0.0
        return len(self.latencies_us) / (self.makespan_us * 1e-6)

    @property
    def mean_batch_size(self) -> float:
        """Mean size of the served micro-batches (every request of a
        served micro-batch completes ``ok``)."""
        return len(self.latencies_us) / self.served_batches if self.served_batches else 0.0

    @property
    def kernel_time_us(self) -> float:
        """Total modelled kernel time (the GPU-busy portion of the makespan)."""
        return self.trace.total_time_us

    @property
    def mean_latency_us(self) -> float:
        return _latency_stat(self.latencies_us.values())

    @property
    def p50_latency_us(self) -> float:
        return _latency_stat(self.latencies_us.values(), 50)

    @property
    def p95_latency_us(self) -> float:
        return _latency_stat(self.latencies_us.values(), 95)

    @property
    def p99_latency_us(self) -> float:
        """Tail completion latency — the metric continuous batching targets."""
        return _latency_stat(self.latencies_us.values(), 99)

    @property
    def p999_latency_us(self) -> float:
        """Extreme-tail completion latency."""
        return _latency_stat(self.latencies_us.values(), 99.9)

    def per_class(self) -> Dict[int, Dict[str, object]]:
        """Per-priority-class outcome/latency blocks, normalized.

        Always covers classes ``0..num_classes-1`` even when unused (zero
        counts, ``NaN`` percentiles) plus every class actually observed, so
        the schema is stable whether or not the run used priority classes.
        """
        blocks: Dict[int, Dict[str, object]] = {}
        configured = range(self.config.scheduling_policy.num_classes)
        for cls in sorted(set(configured).union(self.classes.values())):
            rids = [rid for rid, c in self.classes.items() if c == cls]
            # A class block is this report restricted to the class's requests.
            sub = SimReport(
                num_requests=len(rids),
                makespan_us=self.makespan_us,
                outcomes={r: self.outcomes[r] for r in rids if r in self.outcomes},
                latencies_us={r: self.latencies_us[r] for r in rids if r in self.latencies_us},
            )
            blocks[cls] = {
                "requests": sub.num_requests,
                **sub.counts(),
                "shed_rate": sub.shed_rate,
                "violation_rate": sub.violation_rate,
                "p50_latency_us": sub.p50_latency_us,
                "p99_latency_us": sub.p99_latency_us,
                "p999_latency_us": sub.p999_latency_us,
            }
        return blocks

    def summary(self) -> Dict[str, object]:
        """Flat record for tables/JSON (one row of any sweep)."""
        return {
            "window_us": self.config.window_us,
            "window_policy": self.config.scheduling,
            "bucketing": self.config.padding,
            "policy": self.config.scheduling_policy.policy,
            "seed": self.seed,
            "requests": self.num_requests,
            "batches": self.num_batches,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "throughput_rps": round(self.throughput_rps, 1),
            "availability": round(self.availability, 4),
            "shed_rate": round(self.shed_rate, 4),
            "violation_rate": round(self.violation_rate, 4),
            **self.counts(),
            "mean_latency_us": round(self.mean_latency_us, 1),
            "p50_latency_us": round(self.p50_latency_us, 1),
            "p95_latency_us": round(self.p95_latency_us, 1),
            "p99_latency_us": round(self.p99_latency_us, 1),
            "p999_latency_us": round(self.p999_latency_us, 1),
            "kernel_time_us": round(self.kernel_time_us, 1),
            "failovers": self.failovers,
            "quarantines": self.quarantines,
            "readmissions": self.readmissions,
            "injected_failures": self.injected_failures,
            "per_class": self.per_class(),
        }


class ModelledEngine(ModelServingEngine):
    """A :class:`ModelServingEngine` on the modelled clock: the live lifecycle, no data moved.

    A micro-batch never reaches a kernel.  It is charged to one serial
    stream, from when both the stream and the batch are ready
    (``busy_until_us``), call by call in the live forward's order: its
    length groups shortest first (:func:`length_groups`), and within a
    group every projection in ``named_linear_layers()`` order.  Each call
    goes through the live failover walk with a modelled attempt: a
    candidate costs its modelled kernel time at the group's
    ``group_size × tokens`` columns plus any latency ``plan`` injects, and
    fails when ``plan`` says so.  When every candidate of a call fails,
    the micro-batch fails there (and is bisected, as live).  A served
    micro-batch's launches are traced, each on the backend that served
    it, and its output per request is the instant it finished.

    ``config`` is read as the live engine reads it (its batcher, and a
    private dispatcher unless one is passed; an unnamed engine is
    ``"simulate"``), with ``warm`` off: it never builds a plan or runs an
    SpMM.  The encoder's layers are never re-routed, so a live engine
    serving the same encoder keeps serving it.  Each run owns its
    :class:`CircuitBreaker`, with the dispatcher's thresholds, so a
    dispatcher shared across a sweep carries decisions and estimates
    between runs, never backend health.
    """

    def __init__(
        self,
        encoder: TransformerEncoder,
        config: ServingConfig,
        dispatcher: Optional[KernelDispatcher] = None,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        config = replace(config, name=config.name or "simulate", warm=False)
        super().__init__(encoder, dispatcher=dispatcher, config=config)
        self.injector = FaultInjector(plan if plan is not None else FaultPlan())
        # The dispatcher's thresholds; the health is this run's own.
        shared = self.dispatcher.breaker
        self.breaker = CircuitBreaker(shared.failure_threshold, shared.probe_interval)
        #: Micro-batches charged to the stream, served or failed.
        self.charged_batches = 0

    def _route(self, encoder: TransformerEncoder) -> None:
        # Never re-route: the layers keep whichever dispatcher serves them.
        pass

    def _run_batch(self, batch, now_us: float = 0.0) -> Dict[str, float]:
        # The stream takes the batch once both are ready.
        self.busy_until_us = max(self.busy_until_us, now_us)
        return super()._run_batch(batch, now_us)

    def _charge(self, operand: SpmmOperand, columns: int):
        """The modelled attempt of one call at ``columns`` columns, for
        :meth:`CircuitBreaker.walk`."""

        def charge(name: str):
            fault = self.injector.on_call(name)
            modelled = self.dispatcher.estimate(operand, columns, backend=name)
            self.busy_until_us += modelled.time_us + fault.latency_us
            fault.raise_if_failed()
            return modelled

        return charge

    def _execute_batch(self, batch: MicroBatch) -> Dict[str, float]:
        self.charged_batches += 1
        launches: List[KernelExecution] = []
        for group in length_groups(batch):
            tokens, size = group[0].tokens, len(group)
            for qualified_name, lin in self.encoder.named_linear_layers():
                decision = self.dispatcher.dispatch(lin.operand, tokens)
                served, _, modelled = self.breaker.walk(
                    decision, self._charge(lin.operand, size * tokens), self.name
                )
                # The live rule, one launch at a time: the walk decides
                # the backend, so the memo key names it.
                key = (qualified_name, served, size, tokens)
                execution = self._launches.get(key)
                if execution is None:
                    execution = self._launch_record(modelled, *key)
                    self._launches.put(key, execution)
                launches.append(execution)
        self.trace.extend(launches)
        self._count_served(batch)
        return dict.fromkeys((req.request_id for req in batch.requests), self.busy_until_us)


def simulate(
    encoder: TransformerEncoder,
    requests: Sequence[SimulatedRequest],
    config: Optional[ServingConfig] = None,
    plan: Optional[FaultPlan] = None,
    dispatcher: Optional[KernelDispatcher] = None,
) -> SimReport:
    """Replay shape-only ``requests`` on a :class:`ModelledEngine` over
    ``encoder``; report the run.

    ``config`` (default ``ServingConfig()``) drives the run the way it
    drives a live engine: ``scheduling`` picks the step loop with or
    without the ``window_us`` hold, ``padding`` the bucketing,
    ``max_batch_size`` / ``max_queue_depth`` / ``shed_policy`` /
    ``scheduling_policy`` the batcher.  ``plan`` injects faults per
    (backend, call index): one index per candidate attempt, the indices a
    live engine armed with the same plan sees on every input (a live
    attempt runs exactly the backend it names).  A
    ``dispatcher`` shared across runs keeps its decision and estimate
    caches warm, as in a long-running server; the circuit breaker takes
    its thresholds and starts healthy every run.  Sweeps are
    comprehensions over ``dataclasses.replace(config, ...)``, and offered
    load is a traffic transform (:func:`compress_arrivals`).
    """
    if not requests:
        raise ValueError("requests must be non-empty")
    config = config if config is not None else ServingConfig()
    engine = ModelledEngine(encoder, config, dispatcher, plan)
    # Shape-only payloads: row-slices of one zero-stride view, so a
    # simulated request of any size costs no memory for its "activations".
    blank = np.broadcast_to(
        np.float32(0.0), (max(r.tokens for r in requests), engine.hidden_size)
    )
    finished = engine.serve_continuous(
        [
            Request(r.request_id, blank[: r.tokens], r.arrival_us, r.deadline_us, r.priority_class)
            for r in requests
        ],
    )
    arrival_us = {r.request_id: r.arrival_us for r in requests}
    return SimReport(
        num_requests=len(requests),
        makespan_us=engine.busy_until_us,
        num_batches=engine.charged_batches,
        served_batches=engine.total_batches,
        outcomes={rid: outcome.status for rid, outcome in engine.outcomes.items()},
        latencies_us={rid: t - arrival_us[rid] for rid, t in finished.items()},
        classes={r.request_id: r.priority_class for r in requests},
        trace=engine.trace,
        config=config,
        seed=engine.injector.plan.seed,
        failovers=engine.breaker.failovers,
        quarantines=engine.breaker.quarantines,
        readmissions=engine.breaker.readmissions,
        injected_failures=engine.injector.injected_failures,
        injected_latency_us=engine.injector.injected_latency_us,
    )

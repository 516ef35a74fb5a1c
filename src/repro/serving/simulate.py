"""Throughput/latency simulation of the serving stack on the modelled GPU.

The engines execute real numerics; this module answers the capacity
questions — *what does a batch window buy? who sheds under overload? what
does a flaky backend cost?* — without moving any data.  It is an executor
of the live engine: :class:`ModelledEngine` is a
:class:`~repro.serving.engine.ServingEngine` whose micro-batch charges the
dispatched backend's modelled kernel time to one serial stream, and
shape-only requests go through the engine core's own drivers.  Intake,
shedding, deadline expiry, bisection of a failed micro-batch, outcomes and
the failover walk (:meth:`~repro.kernels.dispatch.CircuitBreaker.walk`)
are therefore the live engine's, written once.  Every launch is recorded
as a :class:`~repro.hardware.trace.KernelExecution`, and every run returns
one :class:`SimReport`.  Larger windows trade queueing delay for kernel
efficiency, because the modelled SpMM time is strongly sublinear in C.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .batcher import AsyncWindowBatcher, Request, ShapeBucketBatcher
from .config import ServingConfig
from .continuous import POLICY_FCFS, SHED_REJECT_NEWEST, ContinuousBatcher, SchedulingConfig
from .engine import ServingEngine
from .faults import OUTCOME_OK, OUTCOME_SHED, OUTCOME_STATES, OUTCOME_TIMED_OUT, FaultInjector, FaultPlan
from ..hardware.trace import ExecutionTrace
from ..kernels.dispatch import BackendExecutionError, CircuitBreaker, KernelDispatcher, SpmmOperand


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


def diurnal_arrivals(
    num_requests: int,
    peak_rate_rps: float,
    trough_rate_rps: float,
    tokens: Sequence[int],
    period_us: float = 1e6,
    seed: int = 0,
    deadline_after_us: Optional[float] = None,
    prefix: str = "req",
    priority_class: int = 0,
) -> List[SimulatedRequest]:
    """Seeded diurnal (sinusoidal-rate) arrivals via Poisson thinning.

    A non-homogeneous Poisson process whose instantaneous rate swings
    sinusoidally between ``trough_rate_rps`` and ``peak_rate_rps`` with
    period ``period_us`` (the day/night cycle, compressed to simulation
    scale).  Implemented by thinning: candidates arrive at the peak rate
    and are accepted with probability ``rate(t) / peak`` — the standard
    exact sampler for time-varying Poisson processes, deterministic from
    ``seed``.
    """
    _check_traffic_args(num_requests, tokens, deadline_after_us)
    if trough_rate_rps <= 0 or peak_rate_rps < trough_rate_rps:
        raise ValueError("need 0 < trough_rate_rps <= peak_rate_rps")
    if period_us <= 0:
        raise ValueError("period_us must be positive")
    rng = np.random.default_rng(int(seed))
    t = 0.0
    arrivals: List[float] = []
    while len(arrivals) < num_requests:
        t += float(rng.exponential(1e6 / peak_rate_rps))
        rate = trough_rate_rps + (peak_rate_rps - trough_rate_rps) * 0.5 * (
            1.0 + np.sin(2.0 * np.pi * t / period_us)
        )
        if rng.uniform() < rate / peak_rate_rps:
            arrivals.append(t)
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
    """Outcome of one simulated serving run, whichever entry point ran it.

    Everything is derived from the per-request terminal states and the
    completion latencies of the ``ok`` requests.  Deterministic: the same
    (requests, knobs, fault plan) replays to the identical report.
    """

    num_requests: int
    makespan_us: float
    #: Chunks charged to the modelled executor (served or failed).
    num_batches: int = 0
    #: Terminal state per request id (one of OUTCOME_STATES).
    outcomes: Dict[str, str] = field(default_factory=dict)
    #: Completion latency (finish - arrival) of the ok requests only.
    latencies_us: Dict[str, float] = field(default_factory=dict)
    #: Priority class per request id (empty = every request was class 0).
    classes: Dict[str, int] = field(default_factory=dict)
    #: Classes the scheduling config names (normalizes :meth:`per_class`).
    num_classes: int = 1
    trace: ExecutionTrace = field(default_factory=ExecutionTrace)
    #: Run labels for sweep alignment: window value and closing policy,
    #: bucket policy, cross-class scheduling policy, arrival-time
    #: compression and fault-plan seed.
    window_us: float = 0.0
    window_policy: str = "continuous"
    bucketing: str = "ladder"
    policy: str = POLICY_FCFS
    load_factor: float = 1.0
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
        """Mean size of the batches a backend actually served."""
        sizes = [e.meta["batch_size"] for e in self.trace.executions]
        return sum(sizes) / len(sizes) if sizes else 0.0

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
        for cls in sorted(set(range(max(self.num_classes, 1))).union(self.classes.values())):
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
            "window_us": self.window_us,
            "window_policy": self.window_policy,
            "bucketing": self.bucketing,
            "policy": self.policy,
            "load_factor": self.load_factor,
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


class ModelledEngine(ServingEngine):
    """A :class:`ServingEngine` on the modelled clock: the live lifecycle, no data moved.

    A micro-batch never reaches a kernel.  It is charged to one serial
    stream, from when both the stream and the batch are ready
    (``busy_until_us``), through the live failover walk with a modelled
    attempt: each candidate costs its modelled kernel time at the batch's
    padded column count plus any latency ``plan`` injects, and fails when
    ``plan`` says so.  A served batch is traced on the backend that served
    it, and its output per request is the instant it finished.  Each run
    owns its :class:`CircuitBreaker`, so a dispatcher shared across a sweep
    carries decisions and estimates between runs, never backend health.
    It never builds a plan or runs an SpMM.
    """

    def __init__(
        self,
        operand: SpmmOperand,
        batcher: ShapeBucketBatcher,
        dispatcher: Optional[KernelDispatcher] = None,
        plan: Optional[FaultPlan] = None,
        failure_threshold: int = 3,
        probe_interval: int = 4,
    ) -> None:
        super().__init__(
            operand,
            dispatcher=dispatcher if dispatcher is not None else KernelDispatcher(),
            batcher=batcher,
            config=ServingConfig(name="simulate", warm=False, step_us=0.0),
        )
        self.injector = FaultInjector(plan if plan is not None else FaultPlan())
        self.breaker = CircuitBreaker(failure_threshold, probe_interval)
        #: Micro-batches charged to the stream, served or failed.
        self.charged_batches = 0

    def _run_batch(self, batch, now_us: float = 0.0) -> Dict[str, float]:
        # The stream takes the batch once both are ready.
        self.busy_until_us = max(self.busy_until_us, now_us)
        return super()._run_batch(batch, now_us)

    def _execute_batch(self, batch) -> Dict[str, float]:
        self.charged_batches += 1
        start_us = self.busy_until_us

        def charge(name: str):
            fault, call = self.injector.on_call(name)
            modelled = self.dispatcher.estimate(self.operand, batch.padded_tokens, backend=name)
            self.busy_until_us += modelled.time_us + fault.latency_us
            if fault.fail:
                raise BackendExecutionError(f"injected fault on {name} (call {call})", backend=name)
            return modelled

        decision = self.dispatcher.dispatch(self.operand, batch.key.token_bucket)
        served, _, modelled = self.breaker.walk(decision, charge, self.name)
        ids = tuple(req.request_id for req in batch.requests)
        self._record(batch, served, modelled, start_us=start_us, request_ids=ids)
        return dict.fromkeys(ids, self.busy_until_us)


def _batcher(template: Optional[ShapeBucketBatcher], bucketing: str, family=ContinuousBatcher, **knobs):
    """A ``family`` batcher over ``template``'s ladder and ``max_batch_size``.

    The ``batcher=`` argument of every entry point contributes only those
    two; ``bucketing="exact"`` collapses the ladder to exact lengths, the
    way the model engine's ``padding`` modes do.
    """
    if bucketing not in {"ladder", "exact"}:
        raise ValueError(f"unknown bucketing {bucketing!r}; use 'ladder' or 'exact'")
    template = template if template is not None else ShapeBucketBatcher()
    return family(
        token_buckets=(1,) if bucketing == "exact" else template.token_buckets,
        max_batch_size=template.max_batch_size,
        **knobs,
    )


def _serve_grid(engine: ModelledEngine, requests: List[Request], window_us: float) -> Dict[str, float]:
    """The fixed policy: one ``serve`` per ``window_us`` grid cell, as the cell closes."""
    cells: Dict[int, List[Request]] = {}
    for req in requests:
        cells.setdefault(int(req.arrival_us // window_us), []).append(req)
    finished: Dict[str, float] = {}
    for cell, members in sorted(cells.items()):
        engine.busy_until_us = max(engine.busy_until_us, (cell + 1) * window_us)
        finished.update(engine.serve(members))
    return finished


def _replay(
    engine: ModelledEngine,
    requests: Sequence[SimulatedRequest],
    bucketing: str,
    drive=ModelledEngine.serve_continuous,
    scheduling: Optional[SchedulingConfig] = None,
    **labels,
) -> SimReport:
    """``drive`` the engine over shape-only ``requests``; report the run."""
    if not requests:
        raise ValueError("requests must be non-empty")
    # Shape-only payloads: row-slices of one zero-stride view, so a
    # simulated request of any size costs no memory for its "activations".
    blank = np.broadcast_to(np.float32(0.0), (max(r.tokens for r in requests), engine.operand.k))
    finished = drive(
        engine,
        [
            Request(r.request_id, blank[: r.tokens], r.arrival_us, r.deadline_us, r.priority_class)
            for r in requests
        ],
    )
    arrival_us = {r.request_id: r.arrival_us for r in requests}
    scheduling = scheduling if scheduling is not None else SchedulingConfig()
    return SimReport(
        num_requests=len(requests),
        makespan_us=engine.busy_until_us,
        num_batches=engine.charged_batches,
        outcomes={rid: outcome.status for rid, outcome in engine.outcomes.items()},
        latencies_us={rid: t - arrival_us[rid] for rid, t in finished.items()},
        classes={r.request_id: r.priority_class for r in requests},
        num_classes=scheduling.num_classes,
        trace=engine.trace,
        bucketing=bucketing,
        policy=scheduling.policy,
        seed=engine.injector.plan.seed,
        failovers=engine.breaker.failovers,
        quarantines=engine.breaker.quarantines,
        readmissions=engine.breaker.readmissions,
        injected_failures=engine.injector.injected_failures,
        injected_latency_us=engine.injector.injected_latency_us,
        **labels,
    )


#: :class:`~repro.serving.config.ServingConfig` scheduling mode per window policy.
_SCHEDULING_OF_POLICY = {"fixed": "window", "async": "async", "continuous": "continuous"}


def simulate_serving(
    operand: SpmmOperand,
    requests: Sequence[SimulatedRequest],
    window_us: float,
    dispatcher: Optional[KernelDispatcher] = None,
    batcher: Optional[ShapeBucketBatcher] = None,
    window_policy: Optional[str] = None,
    bucketing: Optional[str] = None,
    config: Optional[ServingConfig] = None,
) -> SimReport:
    """Replay ``requests`` through a batching policy on the modelled GPU.

    ``window_policy`` selects the engine driver.  ``"continuous"`` is
    ``serve_continuous`` — no windows, so queueing delay is bounded by the
    executor's busy time (the tail-latency gap the policy exists to close);
    ``window_us`` is only recorded for sweep alignment (every value,
    including 0, produces the same run).  ``"fixed"`` serves one window
    per ``window_us`` grid cell when the cell closes, and ``"async"`` is
    ``serve_arrivals``, closing each bucket on its own arrival deadline;
    for both, ``window_us <= 0`` means no batching — every request is
    dispatched alone the moment it arrives (the per-request baseline of
    the sweeps).  ``bucketing`` composes with every policy, so exact/padded
    x fixed/async/continuous sweeps run side by side.

    ``config`` drives the simulator the way it drives the live engines:
    ``scheduling`` picks the window policy (window→fixed), ``padding`` the
    bucketing, ``token_buckets`` / ``max_batch_size`` shape the default
    batcher, ``sharding`` builds a sharded dispatcher, and
    ``max_queue_depth`` / ``shed_policy`` / ``scheduling_policy`` bind to
    the batcher as :meth:`ServingConfig.build_batcher` binds them for an
    engine — including its ``ValueError`` when the scheduling in effect
    cannot honour them.  Explicit ``window_policy`` / ``bucketing`` /
    ``dispatcher`` / ``batcher`` arguments win over the config.
    """
    knobs = config if config is not None else ServingConfig(padding="ladder")
    window_policy = window_policy or ("fixed" if knobs.scheduling == "window" else knobs.scheduling)
    bucketing = bucketing or knobs.padding
    if window_policy not in _SCHEDULING_OF_POLICY:
        raise ValueError(
            f"unknown window_policy {window_policy!r}; use 'fixed', 'async' or 'continuous'"
        )
    if knobs.kv_budget_blocks is not None:
        raise ValueError("kv_budget_blocks is decode admission; simulated requests hold no KV")
    # The config itself says what the scheduling in effect can honour
    # (explicit arguments overlaid first), exactly as for an engine.
    built = replace(
        knobs, scheduling=_SCHEDULING_OF_POLICY[window_policy], padding=bucketing
    ).build_batcher(kind="encoder")
    template = batcher if batcher is not None else built
    if dispatcher is None:
        dispatcher = knobs.build_dispatcher(name="simulate")
    if window_policy == "continuous":
        drive = ModelledEngine.serve_continuous
        queue = _batcher(
            template,
            bucketing,
            max_queue_depth=knobs.max_queue_depth,
            shed_policy=knobs.shed_policy,
            scheduling=knobs.scheduling_policy,
        )
    elif window_policy == "async" or window_us <= 0:
        drive = ModelledEngine.serve_arrivals
        queue = _batcher(template, bucketing, AsyncWindowBatcher, window_us=max(window_us, 0.0))
    else:
        drive = partial(_serve_grid, window_us=window_us)
        queue = _batcher(template, bucketing, ShapeBucketBatcher)
    return _replay(
        ModelledEngine(operand, queue, dispatcher),
        requests,
        bucketing,
        drive,
        knobs.scheduling_policy,
        window_us=window_us,
        window_policy=window_policy,
    )


def sweep_batch_windows(
    operand: SpmmOperand,
    requests: Sequence[SimulatedRequest],
    windows_us: Sequence[float],
    dispatcher: Optional[KernelDispatcher] = None,
    batcher: Optional[ShapeBucketBatcher] = None,
    window_policy: str = "fixed",
    bucketing: str = "ladder",
) -> List[SimReport]:
    """Requests/s vs batch window: one simulated run per window setting.

    A shared dispatcher keeps the decision/tuner caches warm across the
    sweep, mirroring a long-running server.  ``window_policy`` and
    ``bucketing`` are forwarded to :func:`simulate_serving` (``"async"``
    sweeps arrival-deadline closing instead of the fixed grid,
    ``"continuous"`` sweeps the window-free step scheduler — one identical
    row per window value, since nothing waits on the window; ``"exact"``
    sweeps exact-length buckets instead of the padded ladder).
    """
    dispatcher = dispatcher if dispatcher is not None else KernelDispatcher()
    return [
        simulate_serving(
            operand,
            requests,
            window_us=w,
            dispatcher=dispatcher,
            batcher=batcher,
            window_policy=window_policy,
            bucketing=bucketing,
        )
        for w in windows_us
    ]


def simulate_chaos(
    operand: SpmmOperand,
    requests: Sequence[SimulatedRequest],
    plan: FaultPlan,
    dispatcher: Optional[KernelDispatcher] = None,
    batcher: Optional[ShapeBucketBatcher] = None,
    bucketing: str = "ladder",
    max_queue_depth: Optional[int] = None,
    shed_policy: str = SHED_REJECT_NEWEST,
    failure_threshold: int = 3,
    probe_interval: int = 4,
) -> SimReport:
    """Replay a fault + overload scenario through the continuous scheduler.

    The measurement surface of the fault-tolerance layer: the continuous
    run of ``simulate_serving`` with ``plan`` consulted per (backend, call
    index) and the failover walk under a
    :class:`~repro.kernels.dispatch.CircuitBreaker` (``failure_threshold``
    consecutive failures quarantine a backend, ``probe_interval``
    passed-over executes later it gets one probe).  As in the live engine,
    a micro-batch every backend failed is bisected and its halves retried,
    admission control (``max_queue_depth`` / ``shed_policy``) sheds under
    overload, and a request whose deadline passes before it executes times
    out.
    """
    queue = _batcher(batcher, bucketing, max_queue_depth=max_queue_depth, shed_policy=shed_policy)
    engine = ModelledEngine(operand, queue, dispatcher, plan, failure_threshold, probe_interval)
    return _replay(engine, requests, bucketing)


def simulate_slo(
    operand: SpmmOperand,
    requests: Sequence[SimulatedRequest],
    scheduling: Optional[SchedulingConfig] = None,
    dispatcher: Optional[KernelDispatcher] = None,
    batcher: Optional[ShapeBucketBatcher] = None,
    bucketing: str = "ladder",
    max_queue_depth: Optional[int] = None,
    shed_policy: str = SHED_REJECT_NEWEST,
    load_factor: float = 1.0,
) -> SimReport:
    """Replay a traffic trace under an SLO scheduling policy, per class.

    The continuous run with the live batcher built under ``scheduling``, so
    chunk selection (priority / weighted-fair across classes, EDF within,
    deficit state included) and the per-class queue bounds are the
    engines' own.  A request whose deadline passes before it executes
    reports ``timed_out`` — the *violations* of :meth:`SimReport.per_class`.

    ``load_factor`` compresses the trace's arrival times by that factor
    (deadline offsets preserved), so overload and brownout behaviour can
    be swept from one base trace (:func:`sweep_slo_overload`).
    """
    if load_factor <= 0:
        raise ValueError("load_factor must be positive")
    if load_factor != 1.0:
        requests = [
            replace(
                r,
                arrival_us=r.arrival_us / load_factor,
                deadline_us=None
                if r.deadline_us is None
                else r.arrival_us / load_factor + (r.deadline_us - r.arrival_us),
            )
            for r in requests
        ]
    queue = _batcher(
        batcher, bucketing, max_queue_depth=max_queue_depth, shed_policy=shed_policy, scheduling=scheduling
    )
    engine = ModelledEngine(operand, queue, dispatcher)
    return _replay(engine, requests, bucketing, scheduling=scheduling, load_factor=load_factor)


def sweep_slo_overload(
    operand: SpmmOperand,
    requests: Sequence[SimulatedRequest],
    load_factors: Sequence[float],
    scheduling: Optional[SchedulingConfig] = None,
    dispatcher: Optional[KernelDispatcher] = None,
    **kwargs,
) -> List[SimReport]:
    """Overload/brownout sweep: one :func:`simulate_slo` run per load factor.

    Each factor compresses the base trace's arrival times by that much
    (2.0 = twice the offered load), so a single seeded trace answers the
    brownout question — *which class sheds, and whose tail blows up, as
    load climbs past capacity?*  A shared dispatcher keeps the
    decision/tuner caches warm across the sweep, mirroring a long-running
    server.
    """
    if not load_factors:
        raise ValueError("load_factors must be non-empty")
    dispatcher = dispatcher if dispatcher is not None else KernelDispatcher()
    return [
        simulate_slo(
            operand,
            requests,
            scheduling=scheduling,
            dispatcher=dispatcher,
            load_factor=factor,
            **kwargs,
        )
        for factor in load_factors
    ]

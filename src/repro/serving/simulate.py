"""Throughput/latency simulation of the serving stack on the modelled GPU.

The engines execute real numerics; this module answers the capacity
questions — *what does a batch window buy? who sheds under overload? what
does a flaky backend cost?* — without moving any data.  There is **one**
replay (:class:`_ModelledEngine`): shape-only requests go to a real
:class:`~repro.serving.continuous.ContinuousBatcher`, each chunk it
schedules is charged to one serial modelled-GPU stream whose failover walk
is the dispatcher's own :class:`~repro.kernels.dispatch.CircuitBreaker`,
and every run returns one :class:`SimReport` — so admission, scheduling
and failover agree with the live engines by construction.  Every launch is
recorded as a :class:`~repro.hardware.trace.KernelExecution`, so serving
sweeps produce the same trace records as the figure-level harness.

:func:`simulate_serving`, :func:`simulate_chaos` and :func:`simulate_slo`
only map their arguments onto that replay.  The windowed policies of
``simulate_serving`` (fixed grid, async arrival deadlines) close windows
analytically and feed the same stream: larger windows trade queueing
delay for kernel efficiency, because the modelled SpMM time is strongly
sublinear in C (fixed launch/tile overheads amortise, tiles fill).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .batcher import BucketKey, Request, ShapeBucketBatcher
from .config import ServingConfig
from .continuous import POLICY_FCFS, SHED_REJECT_NEWEST, ContinuousBatcher, SchedulingConfig
from .faults import (
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_SHED,
    OUTCOME_STATES,
    OUTCOME_TIMED_OUT,
    FaultInjector,
    FaultPlan,
)
from ..hardware.trace import ExecutionTrace
from ..kernels.dispatch import CircuitBreaker, KernelDispatcher, SpmmOperand


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


def plan_async_closings(
    requests: Sequence[SimulatedRequest],
    window_us: float,
    bucket_of,
) -> List[Tuple[float, List[SimulatedRequest]]]:
    """Arrival-deadline window closings, per bucket.

    The async policy of :class:`~repro.serving.batcher.AsyncWindowBatcher`,
    replayed analytically: each *bucket's* window opens when its first
    request arrives and closes exactly ``window_us`` later (requests
    arriving strictly within the open window join it); there is no global
    grid and no count trigger.  Returns ``(close_us, members)`` pairs
    sorted by close time so a serial executor can drain them in order.

    Boundary semantics match the live batcher: ``drain_due`` considers a
    window due at ``arrival + window_us <= now``, and ``serve_arrivals``
    polls *before* submitting each arrival — so a request arriving exactly
    at a closing deadline misses that window and opens the next one.
    """
    by_bucket: Dict[object, List[SimulatedRequest]] = {}
    for req in sorted(requests, key=lambda r: (r.arrival_us, r.request_id)):
        by_bucket.setdefault(bucket_of(req), []).append(req)
    closings: List[Tuple[float, List[SimulatedRequest]]] = []
    for members in by_bucket.values():
        window: List[SimulatedRequest] = []
        deadline = float("-inf")
        for req in members:
            if not window or req.arrival_us >= deadline:
                if window:
                    closings.append((deadline, window))
                window = [req]
                deadline = req.arrival_us + window_us
            else:
                window.append(req)
        if window:
            closings.append((deadline, window))
    closings.sort(key=lambda cw: (cw[0], cw[1][0].request_id))
    return closings


class _ModelledEngine:
    """A serving engine on the modelled clock: real batcher, modelled GPU.

    Scheduling is a real :class:`ContinuousBatcher`: ``batcher`` only
    contributes its ladder and ``max_batch_size``, ``bucketing`` mirrors the
    model engine's ``padding`` modes (``"ladder"`` rounds token counts up
    the rungs, so a batch costs the kernel at its *padded* column count;
    ``"exact"`` only groups identical token counts), and ``admission``
    (``max_queue_depth`` / ``shed_policy`` / ``scheduling``) is the
    batcher's own, validated there.

    Execution is one serial GPU stream charging each chunk the dispatched
    backend's modelled kernel time.  Under a :class:`FaultPlan` a failed
    attempt still costs its time and the walk continues down the dispatch
    ranking under a :class:`CircuitBreaker`, as in
    :meth:`KernelDispatcher.execute`; without one the first candidate serves.
    """

    def __init__(
        self,
        operand: SpmmOperand,
        requests: Sequence[SimulatedRequest],
        dispatcher: Optional[KernelDispatcher],
        batcher: Optional[ShapeBucketBatcher],
        bucketing: str,
        plan: Optional[FaultPlan] = None,
        failure_threshold: int = 3,
        probe_interval: int = 4,
        labels: Optional[Dict[str, object]] = None,
        **admission,
    ) -> None:
        if bucketing not in {"ladder", "exact"}:
            raise ValueError(f"unknown bucketing {bucketing!r}; use 'ladder' or 'exact'")
        if not requests:
            raise ValueError("requests must be non-empty")
        batcher = batcher if batcher is not None else ShapeBucketBatcher()
        self.batcher = ContinuousBatcher(
            token_buckets=(1,) if bucketing == "exact" else batcher.token_buckets,
            max_batch_size=batcher.max_batch_size,
            **admission,
        )
        self.operand = operand
        self.requests = requests
        self.dispatcher = dispatcher if dispatcher is not None else KernelDispatcher()
        self.injector = FaultInjector(plan if plan is not None else FaultPlan())
        self.breaker = CircuitBreaker(failure_threshold, probe_interval)
        # ``report.makespan_us`` doubles as the clock: a serial stream next
        # frees exactly when everything charged to it so far has finished.
        self.report = SimReport(
            num_requests=len(requests),
            makespan_us=0.0,
            classes={req.request_id: req.priority_class for req in requests},
            num_classes=self.batcher.scheduling.num_classes,
            bucketing=bucketing,
            policy=self.batcher.scheduling.policy,
            seed=self.injector.plan.seed,
            **(labels or {}),
        )

    def run(self, token_bucket: int, chunk: Sequence, ready_us: float) -> None:
        """Charge one chunk of a ``token_bucket`` rung, ready at ``ready_us``.

        Members report ``failed`` when every backend failed, ``timed_out``
        when the chunk finished past their deadline, else ``ok``.
        """
        report = self.report
        decision = self.dispatcher.dispatch(self.operand, token_bucket)
        start_us = max(ready_us, report.makespan_us)
        elapsed_us = 0.0
        served = failed_over = False
        for name in self.breaker.candidate_order(decision):
            fault, _ = self.injector.on_call(name)
            modelled = self.dispatcher.estimate(
                self.operand, len(chunk) * token_bucket, backend=name
            )
            elapsed_us += modelled.time_us + fault.latency_us
            if fault.fail:
                self.breaker.record_failure(name)
                failed_over = True
                continue
            self.breaker.record_success(name, after_failure=failed_over)
            execution = modelled.as_execution(category="gemm")
            execution.meta.update(
                backend=name,
                batch_size=len(chunk),
                token_bucket=token_bucket,
                start_us=start_us,
                request_ids=tuple(req.request_id for req in chunk),
            )
            report.trace.record(execution)
            served = True
            break
        report.makespan_us = finish_us = start_us + elapsed_us
        report.num_batches += 1
        for req in chunk:
            if not served:
                report.outcomes[req.request_id] = OUTCOME_FAILED
            elif req.deadline_us is not None and finish_us > req.deadline_us:
                report.outcomes[req.request_id] = OUTCOME_TIMED_OUT
            else:
                report.outcomes[req.request_id] = OUTCOME_OK
                report.latencies_us[req.request_id] = finish_us - req.arrival_us

    def finish(self) -> SimReport:
        """Stamp the health counters; returns the report."""
        report = self.report
        report.failovers = self.breaker.failovers
        report.quarantines = self.breaker.quarantines
        report.readmissions = self.breaker.readmissions
        report.injected_failures = self.injector.injected_failures
        report.injected_latency_us = self.injector.injected_latency_us
        return report

    def replay(self) -> SimReport:
        """The one arrival-clock replay: executor-driven, no windows.

        Whenever the stream frees, everything arrived by that instant is
        submitted — as a shape-only :class:`Request` — and the batcher's
        most urgent chunk runs immediately.  Sheds, drop-expired evictions,
        deadline expiry (an expired request never occupies a batch slot),
        per-class bounds and the weighted-fair deficit are the batcher's
        own; this loop holds no queue or admission state.  Deterministic:
        no wall clock, no global RNG.
        """
        requests, batcher, outcomes = self.requests, self.batcher, self.report.outcomes
        # Shape-only payloads: row-slices of one zero-stride view, so a
        # simulated request of any size costs no memory for its "activations".
        blank = np.broadcast_to(
            np.float32(0.0), (max(r.tokens for r in requests), self.operand.k)
        )
        order = sorted(requests, key=lambda r: (r.arrival_us, r.request_id))
        submitted = 0
        while submitted < len(order) or batcher.pending:
            now_us = self.report.makespan_us
            if not batcher.pending and order[submitted].arrival_us > now_us:
                now_us = order[submitted].arrival_us
            while submitted < len(order) and order[submitted].arrival_us <= now_us:
                sim = order[submitted]
                submitted += 1
                batcher.submit(
                    Request(
                        sim.request_id,
                        blank[: sim.tokens],
                        arrival_us=sim.arrival_us,
                        deadline_us=sim.deadline_us,
                        priority_class=sim.priority_class,
                    )
                )
            for req in batcher.take_shed():
                outcomes[req.request_id] = OUTCOME_SHED
            for req in batcher.take_expired() + batcher.expire_due(now_us):
                outcomes[req.request_id] = OUTCOME_TIMED_OUT
            batch = batcher.next_batch(now_us)
            if batch is not None:
                self.run(batch.key.token_bucket, batch.requests, now_us)
        return self.finish()


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

    ``window_policy`` selects how batches form.  ``"continuous"`` is
    :meth:`_ModelledEngine.replay` — no windows, so queueing delay is
    bounded by the executor's busy time (the tail-latency gap the policy
    exists to close); ``window_us`` is only recorded for sweep alignment
    (every value, including 0, produces the same run).  ``"fixed"`` closes
    every bucket at multiples of ``window_us`` (the grid policy) and
    ``"async"`` closes each bucket on its own arrival deadline
    (:func:`plan_async_closings`); for both, ``window_us <= 0`` means no
    batching — every request is dispatched alone the moment it arrives
    (the per-request baseline of the sweeps).  ``bucketing``
    (:class:`_ModelledEngine`) composes with every policy, so exact/padded
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
    batcher = batcher if batcher is not None else built
    if dispatcher is None:
        dispatcher = knobs.build_dispatcher(name="simulate")
    engine = _ModelledEngine(
        operand,
        requests,
        dispatcher,
        batcher,
        bucketing,
        max_queue_depth=knobs.max_queue_depth,
        shed_policy=knobs.shed_policy,
        scheduling=knobs.scheduling_policy,
        labels={"window_us": window_us, "window_policy": window_policy},
    )
    if window_policy == "continuous":
        return engine.replay()

    def key_of(req: SimulatedRequest) -> BucketKey:
        return BucketKey(operand.k, engine.batcher.token_bucket(req.tokens))

    # Close windows at per-bucket arrival deadlines (async) or at multiples
    # of window_us (fixed); with batching disabled every request closes its
    # own zero-length window.  A closing drains by the batcher's own policy.
    if window_policy == "async" or window_us <= 0:
        closings = plan_async_closings(requests, max(window_us, 0.0), bucket_of=key_of)
    else:
        grouped: Dict[int, List[SimulatedRequest]] = {}
        for req in requests:
            grouped.setdefault(int(req.arrival_us // window_us), []).append(req)
        closings = [
            ((w + 1) * window_us, members) for w, members in sorted(grouped.items())
        ]
    for close_us, members in closings:
        for key, chunk in engine.batcher.plan_batches(members, key_of, lambda r: r.request_id):
            engine.run(key.token_bucket, chunk, close_us)
    return engine.finish()


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

    The measurement surface of the fault-tolerance layer: the replay of
    ``simulate_serving``'s continuous mode with ``plan`` consulted per
    (backend, call index) and the failover walk under a
    :class:`~repro.kernels.dispatch.CircuitBreaker` (``failure_threshold``
    consecutive failures quarantine a backend, ``probe_interval``
    passed-over executes later it gets one probe).  Admission control
    (``max_queue_depth`` / ``shed_policy``) sheds under overload, and
    deadlines are enforced at scheduling time and at completion time.
    """
    return _ModelledEngine(
        operand,
        requests,
        dispatcher,
        batcher,
        bucketing,
        max_queue_depth=max_queue_depth,
        shed_policy=shed_policy,
        plan=plan,
        failure_threshold=failure_threshold,
        probe_interval=probe_interval,
    ).replay()


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

    The same replay with the live batcher built under ``scheduling``, so
    chunk selection (priority / weighted-fair across classes, EDF within,
    deficit state included) and the per-class queue bounds are the
    engines' own.  Deadline misses at scheduling and at completion time
    both report ``timed_out`` — the *violations* of
    :meth:`SimReport.per_class`.

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
                deadline_us=(
                    r.arrival_us / load_factor + (r.deadline_us - r.arrival_us)
                    if r.deadline_us is not None
                    else None
                ),
            )
            for r in requests
        ]
    return _ModelledEngine(
        operand,
        requests,
        dispatcher,
        batcher,
        bucketing,
        max_queue_depth=max_queue_depth,
        shed_policy=shed_policy,
        scheduling=scheduling,
        labels={"load_factor": load_factor},
    ).replay()


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

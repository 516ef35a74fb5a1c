"""The two encoder workloads: ``enc_offline`` (closed loop, whole windows)
and ``enc_online`` (open loop, seeded Poisson arrivals, continuous batching).

Same model, same length law, used two ways: offline batches are large and
model-bound; online batches are 1-3 requests, so per-step host overhead and
the continuous scheduler sit on every request's blocking path.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serving import Request, ServingConfig, create_engine

from . import layers
from .common import (
    LIMITS_MS,
    ONLINE_RATES,
    RUNGS,
    Samples,
    TracedRun,
    Workload,
    activations,
    build_encoder,
    flops_per_token,
    modelled_speedup,
    request_lengths,
)
from .instrument import instrument_model_engine
from .trace import Table, Tracer

WINDOW_REQUESTS = 64
#: Pre-built windows; a 12 s run on the reference box serves about 27, so no
#: window repeats and the modelled-trace bookkeeping keeps meeting new batch
#: shapes, as live traffic would (a faster host wraps around).
WINDOW_POOL = 40
VERIFY_SAMPLE = 32


def _check_outputs(encoder, picked: List[Tuple[Request, Optional[np.ndarray]]]) -> int:
    """Bit-exact check against the standalone forward; returns mismatches."""
    bad = 0
    for request, got in picked:
        want = encoder.forward(request.activations[None])[0]
        if got is None or not np.array_equal(got, want):
            bad += 1
    return bad


def _engine_counters(workload) -> Dict[str, object]:
    stats = workload.engine.stats()
    return {
        "engine": stats,
        "dispatch_cache": stats["dispatch_cache"],
        "dispatch_health": stats["dispatch_health"],
        "trace_events": len(workload.engine.trace.executions),
        "seen_batches": len(workload.seen_batches),
    }


class EncOffline(Workload):
    """Closed loop, one client: 64-request ragged windows through ``serve``."""

    name = "enc_offline"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        rng = np.random.default_rng([seed, 1])
        self.windows: List[List[Request]] = []
        for w in range(4 if smoke else WINDOW_POOL):
            lengths = request_lengths(rng, WINDOW_REQUESTS)
            self.windows.append(
                [Request(f"w{w}-{i:03d}", activations(rng, n)) for i, n in enumerate(lengths)]
            )
        self.warm_window = [
            Request(f"warm-{i:03d}", activations(rng, n))
            for i, n in enumerate(request_lengths(rng, WINDOW_REQUESTS))
        ]
        self.verify_rng = np.random.default_rng([seed, 2])
        self.next_window = 0
        self.last_outputs: Dict[int, Dict[str, np.ndarray]] = {}
        self.seen_batches: List[Tuple[int, int]] = []

    def setup(self) -> None:
        self.encoder = build_encoder()
        self.engine = create_engine(
            self.encoder,
            config=ServingConfig(name="enc-offline", padding="ladder", warm_buckets=RUNGS),
        )
        self.flops_per_token = flops_per_token(self.encoder)

    def warm_up(self) -> None:
        self.engine.serve(self.warm_window)

    def instrument(self, tracer: Tracer) -> None:
        instrument_model_engine(tracer, self.engine, self.seen_batches)

    def run(self, seconds: float, tracer: Optional[Tracer] = None) -> Samples:
        samples = Samples()
        limit = LIMITS_MS[self.name]["latency"]
        started = perf_counter()
        while perf_counter() - started < seconds:
            slot = self.next_window % len(self.windows)
            window = self.windows[slot]
            if tracer is not None:
                tracer.tag = self.next_window
            self.next_window += 1
            t0 = perf_counter()
            try:
                out = self.engine.serve(window)
            except Exception as exc:  # noqa: BLE001 - a failed window is 64 failed operations
                samples.note_error(exc)
                out = {}
            latency = (perf_counter() - t0) * 1e3
            self.last_outputs[slot] = out
            samples.attempted += len(window)
            served = [request.tokens for request in window if request.request_id in out]
            samples.failed += len(window) - len(served)
            samples.tokens += sum(served)
            # Every request of a window gets its reply when ``serve`` returns.
            samples.latency_ms += [latency] * len(served)
            samples.tpot_ms += [latency / max(sum(served), 1)] * len(served)
            samples.good += len(served) * (latency <= limit)
        samples.wall_s = perf_counter() - started
        samples.ttft_ms = samples.latency_ms  # one-shot: first output is the reply
        samples.flops = samples.tokens * self.flops_per_token
        return samples

    def verify(self) -> Tuple[int, int]:
        slots = sorted(self.last_outputs)
        picked = []
        for _ in range(VERIFY_SAMPLE):
            slot = slots[int(self.verify_rng.integers(len(slots)))]
            request = self.windows[slot][int(self.verify_rng.integers(WINDOW_REQUESTS))]
            picked.append((request, self.last_outputs[slot].get(request.request_id)))
        return len(picked), _check_outputs(self.encoder, picked)

    def modelled_speedup(self) -> float:
        operands = [lin.operand for _, lin in self.encoder.named_sparse_layers()]
        return modelled_speedup(self.engine.dispatcher, operands, [r * 8 for r in RUNGS])

    def counters(self) -> Dict[str, object]:
        return _engine_counters(self)

    def layer_metrics(self, run: TracedRun) -> Dict[str, float]:
        out = layers.encoder_metrics(self, Table(run.tracer, run.root), run)
        out["bench.trace_overhead_frac"] = layers.overhead_frac(
            run.samples.wall_s / run.samples.tokens,
            run.untraced_sum("wall_s") / run.untraced_sum("tokens"),
        )
        return out


class EncOnline(Workload):
    """Open loop: seeded Poisson arrivals (40 req/s) into the continuous step loop.

    The driver thread submits every request that is due, then calls
    ``step(now_us)`` with ``now_us`` the wall microseconds since the phase
    began.  Latency runs from the *due* time, so a stall in the single
    driver thread is charged to the requests it delayed.
    """

    name = "enc_online"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        #: Payload pool; arrivals index into it round-robin.
        self.payloads = [activations(rng, n) for n in request_lengths(rng, 64 if smoke else 512)]
        self.warm_requests = [
            Request(f"warm-{i:03d}", activations(rng, n))
            for i, n in enumerate(request_lengths(rng, WINDOW_REQUESTS))
        ]
        self.verify_rng = np.random.default_rng([seed, 4])
        self.kept: Dict[str, Tuple[Request, Optional[np.ndarray]]] = {}
        self.seen_batches: List[Tuple[int, int]] = []
        self.phase_count = 0
        #: Untraced phases at the ladder's upper rates (traced runs only).
        self.ladder: Dict[str, Samples] = {}

    def setup(self) -> None:
        self.encoder = build_encoder()
        self.engine = create_engine(
            self.encoder,
            config=ServingConfig(
                name="enc-online",
                scheduling="continuous",
                padding="ladder",
                max_queue_depth=256,
                shed_policy="reject-newest",
                warm_buckets=RUNGS,
            ),
        )
        self.flops_per_token = flops_per_token(self.encoder)

    def warm_up(self) -> None:
        for request in self.warm_requests:
            self.engine.submit(request)
        while self.engine.batcher.pending:
            self.engine.step(0.0)

    def instrument(self, tracer: Tracer) -> None:
        instrument_model_engine(tracer, self.engine, self.seen_batches)

    def _schedule(self, rate: float, seconds: float) -> List[Request]:
        """Poisson arrivals at ``rate`` over ``seconds``, conditioned on
        their count: exactly ``rate * seconds`` due times, uniform order
        statistics on the phase (what a Poisson process is, given its count).
        Bursts and lulls stay; the offered load no longer depends on the
        seed.  ``arrival_us`` is the due time in microseconds since the
        phase begins."""
        self.phase_count += 1
        rng = np.random.default_rng([self.seed, 5, self.phase_count])
        due = np.sort(rng.random(int(round(rate * seconds)))) * seconds
        tag = f"p{self.phase_count}"
        return [
            Request(f"{tag}-{i:05d}", self.payloads[i % len(self.payloads)], arrival_us=float(t * 1e6))
            for i, t in enumerate(due)
        ]

    def run(self, seconds: float, tracer: Optional[Tracer] = None, rate_name: str = "lo") -> Samples:
        samples = Samples()
        limit = LIMITS_MS[self.name]["latency"]
        schedule = self._schedule(ONLINE_RATES[rate_name], seconds)
        keep = {
            schedule[int(i)].request_id
            for i in self.verify_rng.integers(len(schedule), size=VERIFY_SAMPLE)
        }
        by_id = {request.request_id: request for request in schedule}
        engine, batcher = self.engine, self.engine.batcher
        late_ms: List[float] = []
        depth_max = 0
        backlog_at_last_arrival = 0
        sent = 0
        step_index = 0
        done: Dict[str, float] = {}
        busy_s = 0.0
        started = perf_counter()
        while sent < len(schedule) or batcher.pending:
            now_us = (perf_counter() - started) * 1e6
            while sent < len(schedule) and schedule[sent].arrival_us <= now_us:
                request = schedule[sent]
                late_ms.append((now_us - request.arrival_us) / 1e3)
                engine.submit(request)
                sent += 1
                if sent == len(schedule):
                    backlog_at_last_arrival = batcher.pending
            if not batcher.pending:
                # Idle until the next due time: spin, do not sleep.  A sleeping
                # vCPU is descheduled and comes back slow and cold, which put
                # 15 % of run-to-run spread on the next request's service time.
                continue
            depth_max = max(depth_max, batcher.pending)
            if tracer is not None:
                tracer.tag = step_index
            step_began = perf_counter()
            try:
                out = engine.step((step_began - started) * 1e6)
            except Exception as exc:  # noqa: BLE001 - the popped batch is lost, i.e. failed
                samples.note_error(exc)
                out = {}
            finished = perf_counter()
            busy_s += finished - step_began
            finished_ms = (finished - started) * 1e3
            step_index += 1
            for rid, rows in out.items():
                done[rid] = finished_ms
                if rid in keep:
                    self.kept[rid] = (by_id[rid], rows)
        samples.wall_s = perf_counter() - started
        samples.attempted = len(schedule)
        for request in schedule:
            finished_ms = done.get(request.request_id)
            if finished_ms is None:
                samples.failed += 1
                if request.request_id in keep:
                    self.kept[request.request_id] = (request, None)
                continue
            latency = finished_ms - request.arrival_us / 1e3
            samples.tokens += request.tokens
            samples.latency_ms.append(latency)
            samples.tpot_ms.append(latency / request.tokens)
            samples.good += latency <= limit
        samples.ttft_ms = samples.latency_ms  # one-shot: first output is the reply
        samples.flops = samples.tokens * self.flops_per_token
        samples.extra.update(
            late_ms=late_ms, depth_max=depth_max, busy_s=busy_s,
            backlog_at_last_arrival=backlog_at_last_arrival,
            id_prefix=schedule[0].request_id.split("-")[0] + "-",
        )
        return samples

    def verify(self) -> Tuple[int, int]:
        picked = list(self.kept.values())
        self.kept = {}
        return len(picked), _check_outputs(self.encoder, picked)

    def modelled_speedup(self) -> float:
        operands = [lin.operand for _, lin in self.encoder.named_sparse_layers()]
        return modelled_speedup(self.engine.dispatcher, operands, RUNGS)

    def counters(self) -> Dict[str, object]:
        return _engine_counters(self)

    def side_phases(self, seconds: float) -> None:
        """The rate ladder's upper rungs, untraced, a quarter of the time each."""
        for label in ("mid", "hi"):
            self.ladder[label] = self.run(seconds * 0.25, rate_name=label)

    def layer_metrics(self, run: TracedRun) -> Dict[str, float]:
        table = Table(run.tracer, run.root)
        out = layers.encoder_metrics(self, table, run)
        out.update(layers.online_metrics(self, table, run))
        return out

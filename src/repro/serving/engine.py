"""The serving execution front-end: one engine core.

:class:`EngineCore` is the request lifecycle every serving engine runs —
intake, the one step loop, fault isolation, per-request outcomes
and the shared ``stats()`` blocks are written once here, and an engine
supplies only what it serves (see the class docstring for its two hooks).
Two engines subclass it from their own modules:
:class:`~repro.serving.model_engine.ModelServingEngine` serves an encoder
(the simulator's modelled engine is one, on the modelled clock) and
:class:`~repro.serving.decoder.DecoderServingEngine` decodes with a paged
KV cache.

Because scheduling never touches numerics, ``serve(requests)`` returns
bit-identical outputs whether the requests arrive together, in any order,
or one by one — and under any hold or step cadence of the one ``step``
loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from .batcher import MicroBatch, Request
from .config import ServingConfig
from .continuous import CompletionRecord
from .faults import (
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_SHED,
    OUTCOME_TIMED_OUT,
    RequestOutcome,
    outcome_counts,
)
from ..kernels.dispatch import BackendExecutionError, KernelDispatcher


class EngineCore:
    """The one request lifecycle every serving engine runs.

    Intake (``submit`` / ``serve``), the one scheduling driver (``step``,
    replayed by ``serve_continuous`` and ``serve``), fault isolation,
    per-request outcomes and the normalized ``stats()`` blocks live here
    once.  A subclass says what it serves through two hooks:

    * :meth:`_execute_batch` — the numerics of one micro-batch (one
      encoder forward per length group; on the modelled clock, their
      charge).  Every step funnels
      through it, which is why scheduling can never touch a request's bits.
    * :meth:`_run_step` — what one continuous step runs.  The default pops
      one micro-batch and completes it inside the step: a one-shot request
      is the one-step case of the resident lifecycle.  The decoder
      overrides it with admit -> advance, where a request stays resident
      across steps (Orca's iteration-level scheduling).

    Every request enters through :meth:`submit` and its one intake check,
    :meth:`_validate` (the served encoder's width); the decoder queues its
    decode job as a :class:`Request` that carries the decode length.

    The step loop is scheduling-only — the batcher's hold and the step
    cadence change *when* a request executes, never its numbers — so
    outputs are bit-identical to a single-window ``serve`` of the same
    request set under any of them.

    Fault tolerance wraps ``_execute_batch`` into :meth:`_run_batch`, which

    * screens **poisoned payloads** — a request whose activations are
      non-finite is recorded ``failed`` and removed before the batched
      forward, so it can never leak NaN into its batchmates' rows;
    * isolates **execution failures** — when every dispatch candidate
      fails (:class:`~repro.kernels.dispatch.BackendExecutionError`), the
      micro-batch is bisected and each half retried, narrowing down to the
      poisonous request(s); since batched execution is bit-identical to
      sequential execution, the surviving requests' outputs are unchanged
      by the split;
    * records a :class:`~repro.serving.faults.RequestOutcome` per request
      (``ok`` / ``failed`` here; the deadline and admission hooks add
      ``timed_out`` / ``shed``).

    Only ``BackendExecutionError`` is treated as a request-level fault;
    configuration errors (shape mismatches, routing guards) still raise —
    after every request of the failing micro-batch is recorded ``failed``,
    so a popped request never vanishes without an outcome.

    Collaborators are written-down interfaces, not probed capabilities:
    the batcher is the one :meth:`ServingConfig.build_batcher` builds for
    the engine ``kind``, and the dispatcher is a
    :class:`~repro.kernels.dispatch.KernelDispatcher`.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        config: Optional[ServingConfig],
        dispatcher: Optional[KernelDispatcher],
    ) -> None:
        """Resolve the shared knobs: ``config`` supplies the name (``name``
        is the engine class's default label), warming policy and the batcher
        of engine ``kind``; without an explicit ``dispatcher`` the engine
        builds a private one.
        Warming (``config.warm`` / ``config.warm_buckets``) is each
        subclass's last constructor line (what it warms only exists once the
        subclass is wired up)."""
        self.config = config if config is not None else ServingConfig()
        self.name = name = self.config.name or name
        if dispatcher is None:
            # A private dispatcher: two engines never share memoized dispatch
            # signatures unless explicitly given one dispatcher.
            dispatcher = KernelDispatcher(name=f"{name}.dispatcher")
        self.dispatcher = dispatcher
        self.batcher = self.config.build_batcher(kind=kind)
        self.total_requests = 0
        #: Continuous-serving bookkeeping (populated by the step loop).
        self.steps_executed = 0
        self.completions: Dict[str, CompletionRecord] = {}
        #: In-flight multi-step work by request id; one-step engines never
        #: hold any (their requests complete inside the step that ran them).
        self._residents: Dict[str, object] = {}
        #: Per-request terminal states (ok / failed / timed_out / shed).
        self.outcomes: Dict[str, RequestOutcome] = {}
        #: Instant the engine's modelled execution stream next frees.  Live
        #: engines execute on the host and leave it at 0.0; the simulator's
        #: modelled engine advances it, and ``serve_continuous`` never steps
        #: before it.
        self.busy_until_us = 0.0

    # ------------------------------------------------------------------
    # The intake check and the two hooks
    # ------------------------------------------------------------------
    def _validate(self, request: Request) -> None:
        """Raise ``ValueError`` when ``request`` is not the width of the
        encoder served (each engine sets ``hidden_size`` from it)."""
        if request.features != self.hidden_size:
            raise ValueError(
                f"{self.name}: request {request.request_id!r} has feature width "
                f"{request.features}, but the encoder's hidden size is {self.hidden_size}; "
                f"submit activations of shape (tokens, {self.hidden_size})"
            )

    def _execute_batch(self, batch: MicroBatch) -> Dict[str, np.ndarray]:
        """One micro-batch's numerics: ``{request_id: output}``."""
        raise NotImplementedError

    def _run_step(self, now_us: float) -> Dict[str, np.ndarray]:
        """One continuous step of a one-shot engine: pop the most urgent
        micro-batch, run it tolerantly, record a
        :class:`~repro.serving.continuous.CompletionRecord` per completed
        request."""
        batch = self.batcher.next_batch(now_us)
        if batch is None:
            return {}
        results = self._run_batch(batch, now_us)
        step_index = self.steps_executed
        self.steps_executed += 1
        for req in batch.requests:
            # CompletionRecords describe *successful* completions; failed
            # batchmates get a RequestOutcome instead.
            if req.request_id not in results:
                continue
            self.completions[req.request_id] = CompletionRecord(
                request_id=req.request_id,
                step=step_index,
                completed_us=float(now_us),
                rung=batch.key.token_bucket,
                batch_size=batch.batch_size,
                arrival_us=req.arrival_us,
            )
        return results

    # ------------------------------------------------------------------
    # Fault isolation and outcomes
    # ------------------------------------------------------------------
    def _record_outcome(
        self, request_id: str, status: str, detail: str = "", now_us: float = 0.0
    ) -> None:
        self.outcomes[request_id] = RequestOutcome(
            request_id=request_id, status=status, detail=detail, completed_us=float(now_us)
        )

    def _run_batch(self, batch: MicroBatch, now_us: float = 0.0) -> Dict[str, np.ndarray]:
        """Execute one micro-batch tolerantly; returns the ok requests' outputs.

        A non-backend error still propagates, but only after every request
        of the batch it left without an outcome is recorded ``failed``.
        """
        before = [self.outcomes.get(req.request_id) for req in batch.requests]
        try:
            healthy = []
            for req in batch.requests:
                if np.isfinite(req.activations).all():
                    healthy.append(req)
                else:
                    self._record_outcome(
                        req.request_id,
                        OUTCOME_FAILED,
                        "non-finite payload isolated from its micro-batch",
                        now_us,
                    )
            results: Dict[str, np.ndarray] = {}
            if len(healthy) == batch.batch_size:
                self._run_tolerant(batch, now_us, results)
            elif healthy:
                self._run_tolerant(MicroBatch(key=batch.key, requests=healthy), now_us, results)
            return results
        except Exception as exc:
            for req, outcome in zip(batch.requests, before):
                if self.outcomes.get(req.request_id) is outcome:
                    self._record_outcome(
                        req.request_id, OUTCOME_FAILED, f"{type(exc).__name__}: {exc}", now_us
                    )
            raise

    def _run_tolerant(
        self, batch: MicroBatch, now_us: float, results: Dict[str, np.ndarray]
    ) -> None:
        try:
            out = self._execute_batch(batch)
        except BackendExecutionError as exc:
            if batch.batch_size == 1:
                req = batch.requests[0]
                self._record_outcome(req.request_id, OUTCOME_FAILED, str(exc), now_us)
                return
            # Bisect: batched == sequential bit-exactness means re-running a
            # half reproduces its requests' bits exactly, so isolation never
            # perturbs the survivors.
            mid = batch.batch_size // 2
            self._run_tolerant(MicroBatch(key=batch.key, requests=batch.requests[:mid]), now_us, results)
            self._run_tolerant(MicroBatch(key=batch.key, requests=batch.requests[mid:]), now_us, results)
            return
        for req in batch.requests:
            self._record_outcome(req.request_id, OUTCOME_OK, "", now_us)
        results.update(out)

    def _expire_pending(self, now_us: float) -> None:
        """Evict deadline-passed queued requests, recording ``timed_out``.

        The outcome's clock is the request's own deadline (the instant it
        became undeliverable), so the record is invariant to how late the
        driver's next step happened to run.
        """
        for req in self.batcher.expire_due(now_us):
            self._record_outcome(
                req.request_id,
                OUTCOME_TIMED_OUT,
                f"deadline {req.deadline_us:.1f}us passed before execution",
                req.deadline_us,
            )

    def _drain_admission(self) -> None:
        """Collect the requests admission control refused, shed or evicted
        at submit."""
        for req, cause in self.batcher.take_failed():
            self._record_outcome(req.request_id, OUTCOME_FAILED, cause, req.arrival_us)
        for req in self.batcher.take_shed():
            self._record_outcome(
                req.request_id,
                OUTCOME_SHED,
                "rejected by admission control (queue full)",
                req.arrival_us,
            )
        for req in self.batcher.take_expired():
            self._record_outcome(
                req.request_id,
                OUTCOME_TIMED_OUT,
                "evicted by drop-expired shedding",
                req.deadline_us if req.deadline_us is not None else req.arrival_us,
            )

    # ------------------------------------------------------------------
    # Intake and the step-loop driver
    # ------------------------------------------------------------------
    def submit(self, request: Request):
        """Queue one request; returns its bucket (``None`` when shed)."""
        self._validate(request)
        return self.batcher.submit(request)

    def serve(self, requests: Iterable[Request]) -> Dict[str, np.ndarray]:
        """Serve a whole window: submit it, then step until the queue is empty.

        Atomic on intake: the whole window is validated before anything is
        queued, so a rejected request cannot strand earlier ones in the
        queue.  The window is then replayed through :meth:`serve_continuous`
        together with anything already queued (``serve([])`` runs just the
        queue), so the batcher's hold and the config's ``step_us`` apply.
        Returns ``{request_id: output}`` (per-request shape, padding
        trimmed).
        """
        window = list(requests)
        for request in window:
            if isinstance(request, Request):  # submit_many rejects the rest
                self._validate(request)
        self.batcher.submit_many(window)
        self._drain_admission()
        return self.serve_continuous(())

    def step(self, now_us: float) -> Dict[str, np.ndarray]:
        """Run one continuous step at ``now_us``; returns what completed.

        Admits nothing itself — callers ``submit`` arrivals between steps
        (that is the continuous-batching contract: a request submitted
        before this call joins its rung's chunk immediately, even though
        its batchmates have been queued since earlier steps).  Returns the
        completed requests' outputs (``{}`` when nothing completed) and
        records a :class:`~repro.serving.continuous.CompletionRecord` per
        completed request in :attr:`completions`.
        """
        # Outcome hooks: collect what admission control shed at submit time
        # and evict deadline-passed requests before they occupy batch slots.
        self._drain_admission()
        self._expire_pending(now_us)
        return self._run_step(now_us)

    def serve_continuous(self, requests: Iterable[Request]) -> Dict[str, np.ndarray]:
        """Replay requests against their arrival clock through the step loop.

        The clock opens at the first arrival (0.0 with none), each iteration
        admits every request that has arrived by ``now``, and :meth:`step`
        runs; after an executed step (``steps_executed`` moved — whether or
        not any request came out ``ok``) the clock advances by the config's
        ``step_us`` (``0.0``: steps run back to back) but never to before
        ``busy_until_us`` (always 0.0 live), and an idle step jumps the
        clock to the next arrival or to the batcher's ``next_event_us`` (the
        instant its next bucket opens: an arrival, or the end of a hold),
        whichever is sooner.  Runs while anything is pending *or in flight*
        — a decode outlives the step that admitted it — including requests
        ``submit``-ted directly onto the engine beforehand.

        Intake is streaming, not atomic: each request is validated when its
        arrival is admitted, so a malformed request fails at its own
        arrival after earlier requests have already been served.
        """
        queue = sorted(requests, key=lambda r: (r.arrival_us, r.request_id))
        results: Dict[str, np.ndarray] = {}
        now = queue[0].arrival_us if queue else 0.0
        admitted = 0
        while admitted < len(queue) or self.batcher.pending or self._residents:
            while admitted < len(queue) and queue[admitted].arrival_us <= now:
                self.submit(queue[admitted])
                admitted += 1
            before = self.steps_executed
            results.update(self.step(now))
            if self.steps_executed != before:
                now = max(now + self.config.step_us, self.busy_until_us)
            else:
                # Idle step: nothing schedulable yet — jump to the next
                # arrival or the instant the batcher's next bucket opens.
                # Both are strictly > now, so the loop advances.
                upcoming = [
                    t
                    for t in (
                        queue[admitted].arrival_us if admitted < len(queue) else None,
                        self.batcher.next_event_us(),
                    )
                    if t is not None
                ]
                if not upcoming:
                    break
                now = max(now, min(upcoming))
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _shared_stats(self) -> Dict[str, object]:
        """The normalized blocks every engine's ``stats()`` carries.

        Always present with one schema, zeroed when the feature is unused
        (unbounded admission reports zero counts) — consumers keyed on
        these blocks must not break when the serving policy changes
        underneath them.  ``continuous.completions`` counts every request
        completed by a step, whichever replay (``serve`` included) drove it.
        """
        return {
            "continuous": {
                "steps": self.steps_executed,
                "completions": len(self.completions),
            },
            "outcomes": outcome_counts(self.outcomes.values()),
            "dispatch_health": self.dispatcher.health_stats(),
            "admission": self.batcher.admission_stats(),
        }

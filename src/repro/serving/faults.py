"""Seeded fault injection and request outcomes for the serving stack.

The serving layers built so far are happy-path only: every ``raise`` is
input validation, and a single backend exception would take down a whole
micro-batch.  This module supplies the two halves of the fault-tolerance
story:

* **Deterministic fault injection** — a :class:`FaultPlan` decides, purely
  from ``(backend name, call index)``, whether a backend call fails
  (:class:`~repro.kernels.dispatch.BackendExecutionError`) or suffers a
  modelled latency spike.  Plans are either written out explicitly as
  :class:`FaultSpec` entries (the pinned-outcome tests) or generated from a
  seed (:meth:`FaultPlan.seeded`) with a per-backend sub-seeded
  ``default_rng`` — no wall-clock, no global RNG state, so a plan replays
  identically run after run.  A :class:`FaultInjector` arms a
  :class:`~repro.kernels.dispatch.KernelDispatcher` by taking its one
  injector slot; the dispatcher consults it once per candidate attempt of
  its failover walk, before the named backend runs — injected failures
  therefore exercise the *real* failover/quarantine machinery, and the
  backends themselves are never wrapped or replaced.

* **Request outcomes** — :class:`RequestOutcome` names the four terminal
  states of a served request (``ok`` / ``failed`` / ``timed_out`` /
  ``shed``).  The engines record one per request instead of silently
  reporting successes only; a request reported ``ok`` is still bit-for-bit
  its sequential forward (injection never touches numerics — an attempt
  either raises before the backend runs or returns the backend's exact
  bits).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..kernels.dispatch import BackendExecutionError, KernelDispatcher

#: Terminal request states (the only values a RequestOutcome may carry).
OUTCOME_OK = "ok"
OUTCOME_FAILED = "failed"
OUTCOME_TIMED_OUT = "timed_out"
OUTCOME_SHED = "shed"
OUTCOME_STATES: Tuple[str, ...] = (OUTCOME_OK, OUTCOME_FAILED, OUTCOME_TIMED_OUT, OUTCOME_SHED)

#: FaultSpec kinds.
FAULT_TRANSIENT = "transient"
FAULT_PERSISTENT = "persistent"
FAULT_LATENCY = "latency"
FAULT_KINDS: Tuple[str, ...] = (FAULT_TRANSIENT, FAULT_PERSISTENT, FAULT_LATENCY)


@dataclass(frozen=True)
class RequestOutcome:
    """The terminal state of one served request.

    ``ok`` — completed; its output is bit-for-bit the sequential forward.
    ``failed`` — its payload was non-finite or every backend candidate
    failed on it; batchmates were unaffected (poison isolation).
    ``timed_out`` — its deadline passed before it could execute.
    ``shed`` — admission control rejected it under overload.
    """

    request_id: str
    status: str
    #: Human-readable cause ("" for plain successes).
    detail: str = ""
    #: Engine clock at which the outcome was decided.
    completed_us: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in OUTCOME_STATES:
            raise ValueError(f"status must be one of {OUTCOME_STATES}, got {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == OUTCOME_OK


def outcome_counts(outcomes: Iterable[RequestOutcome]) -> Dict[str, int]:
    """Count outcomes per terminal state (all four keys always present)."""
    counts = {state: 0 for state in OUTCOME_STATES}
    for outcome in outcomes:
        counts[outcome.status] += 1
    return counts


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: what happens to a backend at which calls.

    ``transient`` faults fail ``count`` consecutive calls starting at
    ``at_call`` (0-indexed per backend); ``persistent`` faults fail every
    call from ``at_call`` on (the quarantine-forcing case); ``latency``
    faults add ``latency_us`` of modelled time to the matching calls
    without failing them.
    """

    backend: str
    kind: str
    at_call: int = 0
    count: int = 1
    latency_us: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.at_call < 0:
            raise ValueError("at_call must be >= 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.kind == FAULT_LATENCY and self.latency_us <= 0:
            raise ValueError("latency faults need latency_us > 0")

    def applies(self, call_index: int) -> bool:
        """True when this spec covers the backend's ``call_index``-th call."""
        if self.kind == FAULT_PERSISTENT:
            return call_index >= self.at_call
        return self.at_call <= call_index < self.at_call + self.count


@dataclass(frozen=True)
class FaultDecision:
    """What the plan says about one backend call (equal when the same
    thing happens, whichever call it is)."""

    fail: bool = False
    latency_us: float = 0.0
    backend: str = field(default="", compare=False)
    call_index: int = field(default=0, compare=False)

    def raise_if_failed(self) -> None:
        """Raise the injected :class:`BackendExecutionError` of a failing call."""
        if self.fail:
            raise BackendExecutionError(
                f"injected fault on {self.backend} (call {self.call_index})", backend=self.backend
            )


class FaultPlan:
    """A replayable schedule of faults, keyed by (backend, call index).

    The plan is pure data: :meth:`decide` is a deterministic function of
    its arguments, so the same plan driven by the same call sequence
    produces the same faults — the property every chaos test leans on.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError("FaultPlan takes FaultSpec entries")
        self.seed = int(seed)

    @classmethod
    def seeded(
        cls,
        backends: Sequence[str],
        seed: int,
        failure_rate: float = 0.05,
        latency_rate: float = 0.0,
        latency_us: float = 500.0,
        horizon: int = 256,
    ) -> "FaultPlan":
        """Generate a random-but-replayable plan from a seed.

        Each backend gets its own ``default_rng([seed, crc32(name)])``
        stream, so the faults drawn for one backend are independent of how
        many other backends exist or the order they are listed in — the
        plan for ``("a", "b")`` restricted to ``"a"`` equals the plan for
        ``("a",)``.  Over the first ``horizon`` calls of each backend, a
        call fails transiently with probability ``failure_rate`` and takes
        a ``latency_us`` spike with probability ``latency_rate``.
        """
        if not 0.0 <= failure_rate <= 1.0 or not 0.0 <= latency_rate <= 1.0:
            raise ValueError("rates must be within [0, 1]")
        if failure_rate + latency_rate > 1.0:
            raise ValueError("failure_rate + latency_rate must be <= 1")
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        specs: List[FaultSpec] = []
        for name in sorted(set(backends)):
            rng = np.random.default_rng([int(seed), zlib.crc32(name.encode("utf-8"))])
            draws = rng.random(horizon)
            for idx in range(horizon):
                u = float(draws[idx])
                if u < failure_rate:
                    specs.append(FaultSpec(backend=name, kind=FAULT_TRANSIENT, at_call=idx))
                elif u < failure_rate + latency_rate:
                    specs.append(
                        FaultSpec(
                            backend=name,
                            kind=FAULT_LATENCY,
                            at_call=idx,
                            latency_us=latency_us,
                        )
                    )
        return cls(specs, seed=seed)

    def decide(self, backend: str, call_index: int) -> FaultDecision:
        """The fault (if any) for ``backend``'s ``call_index``-th call."""
        fail = False
        latency = 0.0
        for spec in self.specs:
            if spec.backend != backend or not spec.applies(call_index):
                continue
            if spec.kind == FAULT_LATENCY:
                latency += spec.latency_us
            else:
                fail = True
        return FaultDecision(fail, latency, backend, call_index)

    def backends(self) -> Tuple[str, ...]:
        """Backend names this plan ever touches (sorted)."""
        return tuple(sorted({spec.backend for spec in self.specs}))


class FaultInjector:
    """Drives a :class:`FaultPlan` against a live dispatcher.

    The injector owns the per-backend call counters (the plan itself stays
    immutable data) and the arming/disarming of a dispatcher.  Counters
    advance once per candidate attempt of a failover walk, so the call
    indices the plan is keyed on are exactly the indices a replay (and the
    simulator, which counts the same attempts) sees.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._calls: Dict[str, int] = {}
        self.injected_failures = 0
        self.injected_latency_us = 0.0

    def on_call(self, backend: str) -> FaultDecision:
        """Advance ``backend``'s call counter and look up its fault."""
        index = self._calls.get(backend, 0)
        self._calls[backend] = index + 1
        decision = self.plan.decide(backend, index)
        if decision.fail:
            self.injected_failures += 1
        self.injected_latency_us += decision.latency_us
        return decision

    def calls(self, backend: str) -> int:
        """Attempts made on ``backend`` so far."""
        return self._calls.get(backend, 0)

    def arm(self, dispatcher: KernelDispatcher) -> "FaultInjector":
        """Take ``dispatcher``'s injector slot; raises ``ValueError`` when
        another injector holds it (re-arming by this one is a no-op).

        Decisions memoize only backend *names*, never objects, so armed and
        disarmed dispatchers share the same decision cache — arming changes
        execution behaviour, not routing.
        """
        self._check_owner(dispatcher, "arm")
        dispatcher.injector = self
        return self

    def disarm(self, dispatcher: KernelDispatcher) -> "FaultInjector":
        """Empty ``dispatcher``'s injector slot; raises ``ValueError`` (and
        leaves it armed) when another injector holds it."""
        self._check_owner(dispatcher, "disarm")
        dispatcher.injector = None
        return self

    def _check_owner(self, dispatcher: KernelDispatcher, action: str) -> None:
        if dispatcher.injector not in (None, self):
            raise ValueError(
                f"cannot {action} {dispatcher.name or 'dispatcher'}: another fault "
                f"injector is armed on it; disarm that one first"
            )

    def stats(self) -> Dict[str, object]:
        """Injection counters: calls per backend plus totals."""
        return {
            "calls": dict(sorted(self._calls.items())),
            "injected_failures": self.injected_failures,
            "injected_latency_us": self.injected_latency_us,
        }


__all__ = [
    "OUTCOME_OK",
    "OUTCOME_FAILED",
    "OUTCOME_TIMED_OUT",
    "OUTCOME_SHED",
    "OUTCOME_STATES",
    "FAULT_TRANSIENT",
    "FAULT_PERSISTENT",
    "FAULT_LATENCY",
    "FAULT_KINDS",
    "BackendExecutionError",
    "FaultDecision",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RequestOutcome",
    "outcome_counts",
]

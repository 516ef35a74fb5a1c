"""SpMM dispatch: Spatha's V:N:M engine with a dense cuBLAS fallback.

VENOM serves through one kernel family, Spatha's V:N:M SpMM, and keeps
dense cuBLAS as the safe fallback.  An :class:`SpmmOperand` holds exactly
one of a V:N:M matrix (candidates ``spatha-plan`` and ``cublas-dense``) or
a dense matrix (candidate ``cublas-dense`` only); the dispatcher ranks the
candidates on the performance models, executes the argmin and walks down
the ranking when a backend fails.  Sputnik's CSR and cuSPARSE's Blocked-ELL
kernels are the paper's baselines (:mod:`~repro.kernels.sputnik`,
:mod:`~repro.kernels.cusparse`), called directly by the evaluation.

Design rules, enforced by the consistency tests:

* **Transparency** — ``dispatch`` only *selects*; a candidate attempt
  calls exactly the chosen backend's ``execute`` (``spatha.spmm``, or the
  ``cublas.gemm`` arithmetic), so the dispatched result is bit-for-bit
  ``dispatcher.backend(name).execute`` of the same operand and RHS, for
  every input.
* **Cost ranking** — candidates are ranked by the same tuner/perf-model
  estimates the evaluation uses (:class:`~repro.kernels.spatha.tuner.SpathaTuner`
  for Spatha, ``cublas.estimate_time`` for the fallback); the chosen
  backend is the argmin of the modelled times.
* **Memoization** — decisions are cached per problem *signature* (V:N:M
  pattern, R, K, the power-of-two bucket of C, and the sparsity), so
  serving traffic that revisits a shape regime pays the ranking once; the
  memos are :class:`~repro.kernels.common.BoundedCache` instances, so a
  stream of ever-new C values cannot grow them without limit.
* **Slab-exact batching** — a 3-D ``(B, K, C)`` RHS produces, slab for
  slab, the bits of the corresponding 2-D calls (Spatha's plan and the
  dense fallback broadcast one ``matmul``, which runs one GEMM per slab).
  The dense fallback of a V:N:M operand is its plan's dense schedule,
  which runs a slab that is non-finite after the fp16 rounding on the
  gather schedule, *that slab only* — so an unselected ``inf`` row never
  leaks ``0 * inf`` into the output, dispatched or called directly.
* **Fault injection** — an armed
  :class:`~repro.serving.faults.FaultInjector` is one slot on the
  dispatcher, consulted once per candidate attempt before the named
  backend runs; it never wraps or replaces a backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import cublas
from .common import BoundedCache, GemmProblem, KernelResult
from .spatha import SpmmPlan, UnsupportedTilingError
from .spatha import spmm as spatha_spmm
from .spatha.tuner import SpathaTuner
from ..formats.base import quantize_fp16, quantize_fp16_aligned
from ..formats.vnm import VNMSparseMatrix
from ..hardware.spec import GPUSpec, rtx3090

#: Cost models require sparsity strictly below 1; an all-zero operand is
#: clamped to this ceiling (its execution is trivial either way).
_MAX_MODEL_SPARSITY = 1.0 - 1e-6


class BackendExecutionError(RuntimeError):
    """A backend's execution entry point failed (really or by injection).

    Raised by the fault injector (:mod:`repro.serving.faults`) to model a
    backend fault, and by :meth:`KernelDispatcher.execute` when *every*
    candidate backend of a dispatch decision failed — the unrecoverable
    case the serving engines isolate per request instead of letting one
    poisoned call take down a whole micro-batch.
    """

    def __init__(self, message: str, backend: str = "") -> None:
        super().__init__(message)
        #: Registry name of the backend that failed ("" when every
        #: candidate failed).
        self.backend = backend


class SpmmOperand:
    """One logical LHS: a V:N:M matrix or a dense one, never both.

    A V:N:M operand runs on Spatha's plan and can fall back to the dense
    GEMM over its decompressed view (memoized on first use); a dense operand
    has the dense GEMM as its only candidate.
    """

    def __init__(
        self,
        vnm: Optional[VNMSparseMatrix] = None,
        dense: Optional[np.ndarray] = None,
        name: str = "",
    ) -> None:
        if (vnm is None) == (dense is None):
            raise ValueError("an operand holds exactly one of a V:N:M or a dense matrix")
        if vnm is not None and not isinstance(vnm, VNMSparseMatrix):
            raise TypeError("vnm must be a VNMSparseMatrix")
        self.vnm = vnm
        self.name = name
        self._dense = None if dense is None else np.asarray(dense, dtype=np.float32)
        self._dense16: Optional[np.ndarray] = None
        self._sparsity: Optional[float] = None
        self.shape: Tuple[int, int] = tuple(vnm.shape if vnm is not None else self._dense.shape)

    @classmethod
    def from_vnm(cls, matrix: VNMSparseMatrix, name: str = "") -> "SpmmOperand":
        """Wrap an existing V:N:M operand (the layer-integration case)."""
        return cls(vnm=matrix, name=name)

    @property
    def pattern(self) -> Optional[Tuple[int, int, int]]:
        """The ``(V, N, M)`` pattern of a V:N:M operand (``None`` when dense)."""
        if self.vnm is None:
            return None
        return (self.vnm.v, self.vnm.n, self.vnm.m)

    @property
    def r(self) -> int:
        return self.shape[0]

    @property
    def k(self) -> int:
        return self.shape[1]

    def dense(self) -> np.ndarray:
        """The dense view (memoized; decompressed from the V:N:M matrix)."""
        if self._dense is None:
            self._dense = self.vnm.to_dense()
        return self._dense

    def dense16(self) -> np.ndarray:
        """The fp16-rounded dense view as float32 (memoized, 64-byte aligned).

        This is the first half of :func:`~repro.kernels.common.reference_matmul_fp16`
        hoisted out of the per-call path, so repeated dense-fallback
        executions (a serving loop) do not re-round the operand every call.
        With a V:N:M view it is the Spatha plan's array — the dense schedule
        and the dense fallback multiply by the same matrix, held once.
        """
        if self.vnm is not None:
            return SpmmPlan.for_matrix(self.vnm).dense16
        if self._dense16 is None:
            self._dense16 = quantize_fp16_aligned(self._dense)
        return self._dense16

    def sparsity(self) -> float:
        """Logical sparsity used by the cost models (memoized)."""
        if self._sparsity is None:
            if self.vnm is not None:
                sparsity = self.vnm.logical_sparsity
            else:
                sparsity = 1.0 - np.count_nonzero(self._dense) / float(self.r * self.k)
            self._sparsity = min(max(0.0, sparsity), _MAX_MODEL_SPARSITY)
        return self._sparsity

    def problem(self, c: int) -> GemmProblem:
        """The ``R x K x C`` problem of multiplying this operand by a C-column RHS."""
        pat = self.pattern
        return GemmProblem(
            r=self.r,
            k=self.k,
            c=c,
            sparsity=self.sparsity(),
            v=pat[0] if pat else None,
            n=pat[1] if pat else None,
            m=pat[2] if pat else None,
            name=self.name,
        )


def _validate_rhs(operand: SpmmOperand, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b)
    if b.ndim not in (2, 3) or b.shape[-2] != operand.k:
        raise ValueError(
            f"B must have shape ({operand.k}, C) or (batch, {operand.k}, C), got {b.shape}"
        )
    return b


class Backend:
    """One executable library of the dispatcher.

    Subclasses bind a perf-model estimator and the library's public
    execution entry point.  ``execute`` accepts a 2-D ``(K, C)`` or 3-D
    ``(B, K, C)`` RHS and never re-implements numerics: it forwards to the
    library function the tests invoke directly.
    """

    #: Registry name, e.g. ``"spatha-plan"``.
    name: str = ""

    def supports(self, operand: SpmmOperand) -> bool:
        """True when this backend can execute the operand."""
        raise NotImplementedError

    def estimate(self, operand: SpmmOperand, c: int, gpu: GPUSpec) -> KernelResult:
        """Modelled execution time on the simulated GPU."""
        raise NotImplementedError

    def execute(self, operand: SpmmOperand, b: np.ndarray) -> np.ndarray:
        """The library's numerical result (no bias; the dispatcher adds it)."""
        raise NotImplementedError


class SpathaPlanBackend(Backend):
    """Spatha's planned V:N:M engine, ranked by the template auto-tuner."""

    name = "spatha-plan"

    def __init__(self, tuner: Optional[SpathaTuner] = None) -> None:
        self._tuner = tuner

    def _tuner_for(self, gpu: GPUSpec) -> SpathaTuner:
        if self._tuner is None or self._tuner.gpu is not gpu:
            self._tuner = SpathaTuner(gpu=gpu)
        return self._tuner

    def supports(self, operand: SpmmOperand) -> bool:
        return operand.vnm is not None

    def estimate(self, operand: SpmmOperand, c: int, gpu: GPUSpec) -> KernelResult:
        tuner = self._tuner_for(gpu)
        problem = operand.problem(c)
        try:
            return tuner.best_result(problem)
        except UnsupportedTilingError:
            # The one expected failure: the template space only instantiates
            # warp tiles for hardware-sized V with V | R; the real library
            # pads such operands, so cost the padded launch instead.  Any
            # other error (including a plain ValueError) is a genuine model
            # bug and must propagate, not be silently re-costed as a proxy.
            v_model = 16
            r_model = -(-problem.r // v_model) * v_model
            proxy = GemmProblem(
                r=r_model,
                k=problem.k,
                c=problem.c,
                sparsity=problem.sparsity,
                n=problem.n,
                m=problem.m,
                v=v_model,
                name=problem.name,
            )
            return tuner.best_result(proxy)

    def execute(self, operand: SpmmOperand, b: np.ndarray) -> np.ndarray:
        # spatha.spmm handles 2-D and 3-D natively through the memoized
        # SpmmPlan, whose batched path is slab-bit-exact by construction.
        return spatha_spmm(operand.vnm, b)


class CublasDenseBackend(Backend):
    """Dense cuBLAS HGEMM on the decompressed operand (the safe fallback)."""

    name = "cublas-dense"

    def supports(self, operand: SpmmOperand) -> bool:
        return True

    def estimate(self, operand: SpmmOperand, c: int, gpu: GPUSpec) -> KernelResult:
        return cublas.estimate_time(operand.problem(c), gpu=gpu)

    def execute(self, operand: SpmmOperand, b: np.ndarray) -> np.ndarray:
        if operand.vnm is not None:
            # The plan's dense schedule: the GEMM below on the plan's dense16,
            # except that a slab non-finite after the fp16 rounding runs on
            # the gather schedule, which reads only the selected B rows.
            return SpmmPlan.for_matrix(operand.vnm).execute(b, strategy="dense")
        # Identical arithmetic to cublas.gemm(operand.dense(), slab) — the
        # fp16 rounding of the operand is just hoisted into the memoized
        # dense16 view — so the result stays bit-for-bit the direct call's.
        # matmul broadcasts (R, K) @ (B, K, C) into one GEMM per slab.
        return np.matmul(operand.dense16(), quantize_fp16(b))


def default_backends() -> List[Backend]:
    """Fresh instances of the two standard backends."""
    return [SpathaPlanBackend(), CublasDenseBackend()]


@dataclass
class DispatchDecision:
    """Outcome of ranking the candidate backends for one problem signature."""

    signature: Tuple
    backend: str
    #: Modelled time (us) of every supported candidate, in registry order,
    #: evaluated at the bucket's first-seen C.
    costs: Dict[str, float] = field(default_factory=dict)
    #: Failovers taken at execute time under this decision, keyed
    #: ``"failed->served"``.  The decision itself never changes — ``backend``
    #: stays the cost argmin so re-admitted backends are routed to again —
    #: this is the audit trail of which calls had to walk down the ranking.
    failovers: Dict[str, int] = field(default_factory=dict)
    _order: List[str] = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def ranking(self) -> List[Tuple[str, float]]:
        """Candidates sorted fastest first, on the modelled clock."""
        return sorted(self.costs.items(), key=lambda kv: kv[1])

    @property
    def order(self) -> List[str]:
        """``backend``, then the other candidates fastest first — ranked once
        (again only if ``backend`` is re-pointed); treat it as read-only."""
        if not self._order or self._order[0] != self.backend:
            self._order = [self.backend] + [n for n, _ in self.ranking if n != self.backend]
        return self._order

    def record_failover(self, failed: str, served: str) -> None:
        """Count one execute-time failover from ``failed`` to ``served``."""
        key = f"{failed}->{served}"
        self.failovers[key] = self.failovers.get(key, 0) + 1


class CircuitBreaker:
    """Per-backend failure streaks, quarantine countdowns and health counters.

    The failover policy of one executor, separate from what it executes:
    :meth:`walk` is the one candidate walk, and an executor only supplies
    the attempt — :class:`KernelDispatcher` runs the backend's kernel, a
    modelled engine charges the backend's modelled time.
    ``failure_threshold`` consecutive failures quarantine a backend; it then
    sits out ``probe_interval`` executes that pass it over before one probe
    attempt at its ranked position — success re-admits it, failure sends it
    back for a full interval.
    """

    def __init__(self, failure_threshold: int = 3, probe_interval: int = 4) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")
        #: Consecutive execute failures after which a backend is quarantined.
        self.failure_threshold = failure_threshold
        #: Executes a quarantined backend sits out before one probe attempt.
        self.probe_interval = probe_interval
        #: Consecutive-failure streak per backend (reset on any success).
        self._streaks: Dict[str, int] = {}
        #: Quarantined backends mapped to the number of executes remaining
        #: before a probe attempt; 0 means the next execute probes it.
        self._quarantine: Dict[str, int] = {}
        #: Cumulative health counters.
        self.failures = 0
        self.failovers = 0
        self.quarantines = 0
        self.readmissions = 0

    def is_quarantined(self, name: str) -> bool:
        """True while ``name`` is sitting out the candidate walk."""
        return name in self._quarantine

    def quarantined(self) -> Tuple[str, ...]:
        """Currently quarantined backend names (sorted)."""
        return tuple(sorted(self._quarantine))

    def candidate_order(self, decision: DispatchDecision) -> List[str]:
        """Candidates for one execute: healthy by rank, then quarantined.

        Quarantined backends tick one step closer to their probe on every
        execute that passes them over; one with an expired countdown is
        admitted at its ranked position (the probe attempt).  Quarantined
        candidates are kept at the tail as a last resort so an execute never
        fails without trying every registered candidate.  With nothing
        quarantined this is ``decision.order`` itself (read-only).
        """
        if not self._quarantine:
            return decision.order
        admitted: List[str] = []
        deferred: List[str] = []
        for name in decision.order:
            remaining = self._quarantine.get(name)
            if remaining is None or remaining <= 0:
                admitted.append(name)
            else:
                self._quarantine[name] = remaining - 1
                deferred.append(name)
        return admitted + deferred

    def record_failure(self, name: str) -> None:
        """``name`` failed one execute: extend its streak, maybe quarantine."""
        self.failures += 1
        streak = self._streaks.get(name, 0) + 1
        self._streaks[name] = streak
        if name in self._quarantine:
            # A failed probe: back to the penalty box for a full interval.
            self._quarantine[name] = self.probe_interval
        elif streak >= self.failure_threshold:
            self._quarantine[name] = self.probe_interval
            self.quarantines += 1

    def record_success(self, name: str, after_failure: bool = False) -> None:
        """``name`` served the execute; ``after_failure`` marks a failover
        (an earlier candidate of the same walk failed)."""
        self._streaks.pop(name, None)
        if name in self._quarantine:
            # A successful probe re-admits the backend immediately.
            del self._quarantine[name]
            self.readmissions += 1
        if after_failure:
            self.failovers += 1

    def walk(
        self, decision: DispatchDecision, attempt: Callable[[str], object], owner: str
    ) -> Tuple[str, Optional[str], object]:
        """One execute: ``attempt(name)`` down :meth:`candidate_order` until one returns.

        A candidate that raises :class:`BackendExecutionError` counts a
        failure against the backend the error names (else the candidate)
        and the walk moves on; the first that returns counts a success.
        Returns ``(served, first_failed, result)``, ``first_failed`` being
        ``None`` unless the walk failed over.  Raises
        :class:`BackendExecutionError` when every candidate failed.
        """
        errors: List[str] = []
        first_failed: Optional[str] = None
        for name in self.candidate_order(decision):
            try:
                result = attempt(name)
            except BackendExecutionError as exc:
                failed = exc.backend or name
                self.record_failure(failed)
                errors.append(f"{failed}: {exc}")
                if first_failed is None:
                    first_failed = name
                continue
            self.record_success(name, after_failure=first_failed is not None)
            return name, first_failed, result
        raise BackendExecutionError(
            f"{owner}: all candidate backends failed: " + "; ".join(errors)
        )

    def stats(self) -> Dict[str, object]:
        """The health counters plus who is quarantined right now."""
        return {
            "failures": self.failures,
            "failovers": self.failovers,
            "quarantines": self.quarantines,
            "readmissions": self.readmissions,
            "quarantined": list(self.quarantined()),
        }


class KernelDispatcher:
    """Ranks an operand's candidate backends per shape regime and executes
    the best one, failing over down the ranking.

    Decisions are memoized per :meth:`signature`; use a fresh dispatcher (or
    :meth:`clear_cache`) to force re-ranking.  Execution is transparent: the
    chosen backend's public entry point is invoked on the operand, so
    dispatched results are bit-for-bit the direct-call results.  Pass
    ``backends=[...]`` to run with a subset (a single backend, say).
    ``injector`` is the armed fault injector (``None`` until
    :meth:`~repro.serving.faults.FaultInjector.arm` sets it).
    """

    def __init__(
        self,
        gpu: Optional[GPUSpec] = None,
        backends: Optional[Sequence[Backend]] = None,
        name: str = "",
        failure_threshold: int = 3,
        probe_interval: int = 4,
    ) -> None:
        self.gpu = gpu or rtx3090()
        #: The registered backends, in registry order.
        self.backends: List[Backend] = list(backends if backends is not None else default_backends())
        self._by_name: Dict[str, Backend] = {b.name: b for b in self.backends}
        #: The armed :class:`~repro.serving.faults.FaultInjector`, if any.
        self.injector = None
        #: Diagnostic label (serving engines set it to "<engine>.dispatcher");
        #: prefixed onto dispatch errors so a multi-engine process can tell
        #: whose dispatcher rejected an operand.
        self.name = name
        #: Memoized :class:`DispatchDecision` per signature.  A hit is a
        #: ``dispatch`` call answered from the memo, a miss one that ranked
        #: the backends; serving engines surface the counters on ``stats()``
        #: to prove cross-request reuse.
        self._decisions = BoundedCache()
        #: Memoized :meth:`estimate` results, keyed by (signature, exact C,
        #: backend, operand name) — the cost models are pure functions of
        #: that key, the serving engines call ``estimate`` per layer per
        #: step, and a miss on a V:N:M operand is a whole tuner sweep
        #: (an array pass over every candidate plus a scalar estimate of
        #: the winner, ~0.1 ms, on the blocking path of a served request).
        self._estimates = BoundedCache()
        #: Backend health: failure streaks, quarantine and failover counters.
        self.breaker = CircuitBreaker(failure_threshold, probe_interval)

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def backend(self, name: str) -> Backend:
        """Look a backend up by registry name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no backend named {name!r}; registered: {list(self._by_name)}") from None

    # ------------------------------------------------------------------
    # Signatures and decisions
    # ------------------------------------------------------------------
    @staticmethod
    def shape_bucket(c: int) -> int:
        """The power-of-two shape-regime bucket of a C-column RHS."""
        if c <= 0:
            raise ValueError("C must be positive")
        return 1 << (int(c) - 1).bit_length()

    def signature(self, operand: SpmmOperand, c: int) -> Tuple:
        """The memoization key: pattern, R, K, shape regime and sparsity.

        The pattern is ``None`` for a dense operand, so a dense and a V:N:M
        operand never share a decision; the sparsity (rounded to 4 places,
        the only content the cost models read) keeps same-shape operands of
        different sparsity apart.  Rebuilt per call: it costs well under
        1 us of a C=1 16:2:8 ``Linear.forward`` that takes ~10 us at
        256x256 (one AMD EPYC core, one BLAS thread).
        """
        return (
            operand.pattern,
            operand.r,
            operand.k,
            self.shape_bucket(c),
            round(operand.sparsity(), 4),
        )

    def dispatch(self, operand: SpmmOperand, c: int) -> DispatchDecision:
        """Rank the operand's candidate backends for this problem (memoized).

        The first call of a signature evaluates every candidate's cost model
        at the requested ``c`` and caches the full ranking; later calls in
        the same shape bucket reuse it.
        """
        sig = self.signature(operand, c)
        decision = self._decisions.get(sig)
        if decision is not None:
            return decision
        costs: Dict[str, float] = {}
        for backend in self.backends:
            if not backend.supports(operand):
                continue
            costs[backend.name] = backend.estimate(operand, c, self.gpu).time_us
        if not costs:
            kind = "dense" if operand.vnm is None else "V:N:M"
            raise ValueError(
                f"{self.name or 'dispatcher'}: no registered backend runs a {kind} operand"
            )
        best = min(costs.items(), key=lambda kv: kv[1])[0]
        decision = DispatchDecision(signature=sig, backend=best, costs=costs)
        self._decisions.put(sig, decision)
        return decision

    def estimate(self, operand: SpmmOperand, c: int, backend: Optional[str] = None) -> KernelResult:
        """Modelled kernel result at exactly ``c`` columns (memoized).

        Uses the dispatched backend unless one is named.  Unlike
        :meth:`dispatch`, which buckets ``c`` into shape regimes, this is
        memoized at the *exact* column count — the cost models are pure
        per (content signature, C, backend), and the serving engines ask
        for the same handful of (layer, bucket-C) estimates on every step.
        Callers must treat the returned :class:`KernelResult` as read-only
        (``as_execution`` already copies ``details`` into a fresh meta).
        """
        name = backend or self.dispatch(operand, c).backend
        key = (self.signature(operand, c), int(c), name, operand.name)
        result = self._estimates.get(key)
        if result is None:
            result = self.backend(name).estimate(operand, c, self.gpu)
            self._estimates.put(key, result)
        return result

    # ------------------------------------------------------------------
    # Backend health (circuit breaker)
    # ------------------------------------------------------------------
    def health_stats(self) -> Dict[str, object]:
        """The circuit breaker's counters (separate from :meth:`cache_stats`)."""
        return self.breaker.stats()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _attempt(self, operand: SpmmOperand, b: np.ndarray, name: str) -> np.ndarray:
        """Run exactly the candidate ``name``, unless the armed injector
        fails this attempt first."""
        if self.injector is not None:
            self.injector.on_call(name).raise_if_failed()
        return self.backend(name).execute(operand, b)

    def execute(
        self,
        operand: SpmmOperand,
        b: np.ndarray,
        bias: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``A @ B (+ bias)`` through the dispatched backend, with failover.

        ``b`` may be ``(K, C)`` or a batch ``(B, K, C)``; batched execution
        is slab-bit-exact.  Without a bias the result is bit-for-bit the
        chosen backend's direct output; the bias epilogue adds
        ``bias.reshape(R, 1)`` exactly like the Spatha plan does; a
        malformed bias raises before any backend runs.

        When a candidate raises :class:`BackendExecutionError` the walk
        continues down the cost ranking; the result served by a fallback is
        bit-for-bit what invoking that fallback directly would return,
        because the fallback runs the identical public entry point.  The
        failover is recorded on the decision, the circuit breaker counts the
        failure, and only when *every* candidate fails does the call raise.
        """
        b = _validate_rhs(operand, b)
        r = operand.r
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float32)
            if bias.shape not in {(r,), (r, 1)}:
                raise ValueError(f"bias must have shape ({r},), got {bias.shape}")
        decision = self.dispatch(operand, b.shape[-1])
        served, first_failed, out = self.breaker.walk(
            decision,
            lambda name: self._attempt(operand, b, name),
            self.name or "dispatcher",
        )
        if first_failed is not None:
            decision.record_failover(first_failed, served)
        if bias is not None:
            out += bias.reshape(r, 1)
        return out

    def warm(self, operand: SpmmOperand, cs: Sequence[int] = ()) -> None:
        """Prepare the operand for serving.

        Builds the Spatha plan of a V:N:M operand and, for every
        column count in ``cs``, pre-populates the dispatch decision of its
        shape bucket — so a warmed server pays neither the plan's gather
        indices nor the cost-model ranking (including the
        tuner sweep) on its first real request.  The fp16 copy each of the
        plan's schedules reads is rounded on that schedule's first call, so
        a plan holds only the copies its traffic uses.
        """
        if operand.vnm is not None:
            SpmmPlan.for_matrix(operand.vnm)
        for c in cs:
            self.dispatch(operand, c)

    def warm_many(self, operands: Sequence[SpmmOperand], cs: Sequence[int] = ()) -> int:
        """Warm a whole model's worth of operands in one call.

        The multi-operand form of :meth:`warm`: a model serving engine hands
        over every projection of its encoder plus the token buckets
        it expects traffic on, and the dispatcher builds each operand's plan
        and pre-ranks each (operand, bucket) signature.  Returns the number
        of operands warmed.
        """
        count = 0
        for operand in operands:
            self.warm(operand, cs=cs)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def cache_size(self) -> int:
        """Number of memoized dispatch decisions."""
        return len(self._decisions)

    def cache_stats(self) -> Dict[str, int]:
        """Decision/estimate-cache counters: entries held plus cumulative traffic."""
        return {
            "size": self.cache_size(),
            "hits": self._decisions.hits,
            "misses": self._decisions.misses,
            "estimate_size": len(self._estimates),
            "estimate_hits": self._estimates.hits,
            "estimate_misses": self._estimates.misses,
        }

    def clear_cache(self) -> None:
        """Drop all memoized decisions and estimates (backends keep their
        tuner caches).

        The hit/miss counters are cumulative traffic statistics and survive
        the clear (the next ``dispatch`` of a dropped signature counts as a
        miss again).
        """
        self._decisions.clear()
        self._estimates.clear()


_DEFAULT_DISPATCHER: Optional[KernelDispatcher] = None


def default_dispatcher() -> KernelDispatcher:
    """The shared process-wide dispatcher (lazily created).

    Layer integrations route through this instance by default so that every
    sparse layer of a model shares one decision cache and one tuner.
    """
    global _DEFAULT_DISPATCHER
    if _DEFAULT_DISPATCHER is None:
        _DEFAULT_DISPATCHER = KernelDispatcher()
    return _DEFAULT_DISPATCHER

"""Multi-backend SpMM dispatch registry.

The libraries in this subpackage each consume their own storage format —
Spatha's planned V:N:M engine, Sputnik's CSR, cuSPARSE's Blocked-ELL, and
the dense cuBLAS fallback — and until now every call site hard-coded one of
them.  This module adds the missing indirection: a registry mapping
``(available formats, V:N:M pattern, shape regime)`` to the backend the
performance models rank fastest, so integration layers and the serving
engine can say "multiply by this sparse operand" and let the dispatcher
pick the library.

Design rules, enforced by the consistency tests:

* **Transparency** — ``dispatch`` only *selects*; execution calls the exact
  public entry point of the chosen backend (``spatha.spmm``,
  ``sputnik.spmm``, ``cusparse.spmm``, ``cublas.gemm``), so the dispatched
  result is bit-for-bit the result of invoking that backend directly.
* **Cost ranking** — candidates are ranked by the same tuner/perf-model
  estimates the evaluation uses (:class:`~repro.kernels.spatha.tuner.SpathaTuner`
  for Spatha, each baseline's ``estimate_time`` otherwise); the chosen
  backend is the argmin of the modelled times over the supported backends.
* **Memoization** — decisions are cached per problem *signature*
  (format set, V:N:M pattern, R, K, and the power-of-two bucket of C), so
  serving traffic that revisits a shape regime pays the ranking once; the
  memos are :class:`~repro.kernels.common.BoundedCache` instances, so a
  stream of ever-new C values cannot grow them without limit.
* **Slab-exact batching** — a 3-D ``(B, K, C)`` RHS produces, slab for
  slab, the bits of the corresponding 2-D calls (Spatha's plan and the
  dense cuBLAS fallback broadcast one ``matmul``, which runs one GEMM per
  slab; Sputnik and cuSPARSE run one 2-D call per slab).  A
  non-finite slab demotes the dense GEMM to a sparse-format schedule for
  *that slab only* (:func:`~repro.kernels.common.demote_nonfinite_slabs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import cublas, cusparse, sputnik
from .common import BoundedCache, GemmProblem, KernelResult, demote_nonfinite_slabs
from .cusparse import CusparseBlockedEllConfig
from .spatha import SpmmPlan, UnsupportedTilingError
from .spatha import spmm as spatha_spmm
from .spatha.tuner import SpathaTuner
from ..formats.base import fp16_finite, quantize_fp16
from ..formats.blocked_ell import BlockedEllMatrix
from ..formats.csr import CSRMatrix
from ..formats.vnm import VNMSparseMatrix
from ..hardware.spec import GPUSpec, rtx3090

#: Canonical format names, used both as operand keys and backend tags.
FORMAT_VNM = "vnm"
FORMAT_CSR = "csr"
FORMAT_BLOCKED_ELL = "blocked_ell"
FORMAT_DENSE = "dense"

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
        #: Registry name of the backend that failed ("" for the exhausted
        #: multi-backend case).
        self.backend = backend


class SpmmOperand:
    """One logical sparse LHS carried in one or more storage formats.

    The dispatcher chooses among the backends whose format is present.  A
    dense fallback view is always derivable (memoized on first use), so the
    cuBLAS backend is a candidate for every operand unless explicitly
    disabled with ``allow_dense=False``.
    """

    def __init__(
        self,
        vnm: Optional[VNMSparseMatrix] = None,
        csr: Optional[CSRMatrix] = None,
        blocked_ell: Optional[BlockedEllMatrix] = None,
        dense: Optional[np.ndarray] = None,
        allow_dense: bool = True,
        name: str = "",
    ) -> None:
        if vnm is not None and not isinstance(vnm, VNMSparseMatrix):
            raise TypeError("vnm must be a VNMSparseMatrix")
        if csr is not None and not isinstance(csr, CSRMatrix):
            raise TypeError("csr must be a CSRMatrix")
        if blocked_ell is not None and not isinstance(blocked_ell, BlockedEllMatrix):
            raise TypeError("blocked_ell must be a BlockedEllMatrix")
        self.vnm = vnm
        self.csr = csr
        self.blocked_ell = blocked_ell
        self.allow_dense = allow_dense
        self.name = name
        #: Names of the formats this operand can be executed from (sorted);
        #: fixed at construction, like the views themselves.
        present = {
            FORMAT_VNM: vnm is not None,
            FORMAT_CSR: csr is not None,
            FORMAT_BLOCKED_ELL: blocked_ell is not None,
            FORMAT_DENSE: allow_dense,
        }
        self.formats: Tuple[str, ...] = tuple(sorted(f for f, has in present.items() if has))
        self._dense = None if dense is None else np.asarray(dense, dtype=np.float32)
        self._dense16: Optional[np.ndarray] = None
        self._sparsity: Optional[float] = None
        self._content_signature: Optional[Tuple] = None
        shapes = {
            tuple(m.shape) for m in (vnm, csr, blocked_ell, self._dense) if m is not None
        }
        if not shapes:
            raise ValueError("operand needs at least one stored format")
        if len(shapes) > 1:
            raise ValueError(f"stored formats disagree on the logical shape: {sorted(shapes)}")
        self.shape: Tuple[int, int] = next(iter(shapes))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_vnm(cls, matrix: VNMSparseMatrix, allow_dense: bool = True, name: str = "") -> "SpmmOperand":
        """Wrap an existing V:N:M operand (the layer-integration case)."""
        return cls(vnm=matrix, allow_dense=allow_dense, name=name)

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        formats: Sequence[str] = (FORMAT_CSR,),
        v: Optional[int] = None,
        n: Optional[int] = None,
        m: Optional[int] = None,
        block_size: int = 16,
        allow_dense: bool = True,
        name: str = "",
    ) -> "SpmmOperand":
        """Materialise the requested formats from one (already pruned) matrix.

        The V:N:M format additionally needs the pattern parameters and the
        matrix must already obey the pattern (compress with
        :class:`~repro.integration.sparsifier.VNMSparsifier` otherwise).
        """
        arr = np.asarray(dense, dtype=np.float32)
        kwargs: Dict[str, object] = {}
        for fmt in formats:
            if fmt == FORMAT_VNM:
                if v is None or n is None or m is None:
                    raise ValueError("the vnm format requires v, n and m")
                kwargs["vnm"] = VNMSparseMatrix.from_dense(arr, v=v, n=n, m=m, strict=True)
            elif fmt == FORMAT_CSR:
                kwargs["csr"] = CSRMatrix.from_dense(arr)
            elif fmt == FORMAT_BLOCKED_ELL:
                kwargs["blocked_ell"] = BlockedEllMatrix.from_dense(arr, b=block_size)
            elif fmt == FORMAT_DENSE:
                pass  # the dense view is always derivable
            else:
                raise ValueError(f"unknown format {fmt!r}")
        return cls(dense=arr, allow_dense=allow_dense, name=name, **kwargs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pattern(self) -> Optional[Tuple[int, int, int]]:
        """The ``(V, N, M)`` pattern when a V:N:M view exists."""
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
        """The dense view (memoized; decompressed from a stored format)."""
        if self._dense is None:
            if self.vnm is not None:
                self._dense = self.vnm.to_dense()
            elif self.csr is not None:
                self._dense = self.csr.to_dense()
            elif self.blocked_ell is not None:
                self._dense = self.blocked_ell.to_dense()
            else:  # pragma: no cover - constructor guarantees a format
                raise ValueError("operand has no stored format")
        return self._dense

    def dense16(self) -> np.ndarray:
        """The fp16-rounded dense view as float32 (memoized).

        This is the first half of :func:`~repro.kernels.common.reference_matmul_fp16`
        hoisted out of the per-call path, so repeated dense-fallback
        executions (a serving loop) do not re-round the operand every call.
        With a V:N:M view it is the Spatha plan's array — the dense schedule
        and the dense fallback multiply by the same matrix, held once.
        """
        if self.vnm is not None:
            return SpmmPlan.for_matrix(self.vnm).dense16
        if self._dense16 is None:
            self._dense16 = quantize_fp16(self.dense())
        return self._dense16

    def sparsity(self) -> float:
        """Logical sparsity used by the cost models (memoized)."""
        if self._sparsity is None:
            if self.vnm is not None:
                sparsity = self.vnm.logical_sparsity
            else:
                nnz = self.csr.nnz if self.csr is not None else int(np.count_nonzero(self.dense()))
                sparsity = 1.0 - nnz / float(self.r * self.k)
            self._sparsity = min(max(0.0, sparsity), _MAX_MODEL_SPARSITY)
        return self._sparsity

    def content_signature(self) -> Tuple:
        """The cost-model-relevant content of this operand (memoized).

        Everything the backend estimators read beyond (R, K, C) must appear
        here, otherwise two same-shape operands with different content
        would alias to one cached dispatch decision: the sparsity, the
        CSR load imbalance, and the Blocked-ELL block size / padding.
        """
        if self._content_signature is None:
            sig: Tuple = (round(self.sparsity(), 4),)
            if self.csr is not None:
                sig += (round(float(max(1.0, self.csr.load_imbalance())), 3),)
            if self.blocked_ell is not None:
                sig += (
                    self.blocked_ell.b,
                    round(float(self.blocked_ell.padding_fraction()), 3),
                )
            self._content_signature = sig
        return self._content_signature

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


def _per_slab(fn, b: np.ndarray) -> np.ndarray:
    """Run a 2-D kernel per slab of a 3-D RHS (trivially slab-bit-exact)."""
    if b.ndim == 2:
        return fn(b)
    return np.stack([fn(b[i]) for i in range(b.shape[0])])


class Backend:
    """One executable library in the registry.

    Subclasses bind a storage format, a perf-model estimator and the
    library's public execution entry point.  ``execute`` accepts a 2-D
    ``(K, C)`` or 3-D ``(B, K, C)`` RHS and never re-implements numerics:
    it forwards to the library function the tests invoke directly.
    """

    #: Registry name, e.g. ``"spatha-plan"``.
    name: str = ""
    #: Format consumed (one of the FORMAT_* constants).
    format: str = ""

    def supports(self, operand: SpmmOperand) -> bool:
        """True when the operand carries this backend's storage format."""
        return self.format in operand.formats

    def estimate(self, operand: SpmmOperand, c: int, gpu: GPUSpec) -> KernelResult:
        """Modelled execution time on the simulated GPU."""
        raise NotImplementedError

    def execute(self, operand: SpmmOperand, b: np.ndarray) -> np.ndarray:
        """The library's numerical result (no bias; the dispatcher adds it)."""
        raise NotImplementedError


class SpathaPlanBackend(Backend):
    """Spatha's planned V:N:M engine, ranked by the template auto-tuner."""

    name = "spatha-plan"
    format = FORMAT_VNM

    def __init__(self, tuner: Optional[SpathaTuner] = None) -> None:
        self._tuner = tuner

    def _tuner_for(self, gpu: GPUSpec) -> SpathaTuner:
        if self._tuner is None or self._tuner.gpu is not gpu:
            self._tuner = SpathaTuner(gpu=gpu)
        return self._tuner

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


class SputnikCsrBackend(Backend):
    """Sputnik's unstructured CSR SpMM (CUDA cores, no SPTC)."""

    name = "sputnik-csr"
    format = FORMAT_CSR

    def estimate(self, operand: SpmmOperand, c: int, gpu: GPUSpec) -> KernelResult:
        csr = operand.csr
        return sputnik.estimate_time(
            operand.problem(c), gpu=gpu, load_imbalance=max(1.0, csr.load_imbalance())
        )

    def execute(self, operand: SpmmOperand, b: np.ndarray) -> np.ndarray:
        return _per_slab(lambda slab: sputnik.spmm(operand.csr, slab), b)


class CusparseBlockedEllBackend(Backend):
    """cuSPARSE Blocked-ELL SpMM (dense tensor cores over stored blocks)."""

    name = "cusparse-blocked-ell"
    format = FORMAT_BLOCKED_ELL

    def estimate(self, operand: SpmmOperand, c: int, gpu: GPUSpec) -> KernelResult:
        ell = operand.blocked_ell
        return cusparse.estimate_time(
            operand.problem(c),
            gpu=gpu,
            config=CusparseBlockedEllConfig(block_size=ell.b),
            padding_fraction=ell.padding_fraction(),
        )

    def execute(self, operand: SpmmOperand, b: np.ndarray) -> np.ndarray:
        return _per_slab(lambda slab: cusparse.spmm(operand.blocked_ell, slab), b)


class CublasDenseBackend(Backend):
    """Dense cuBLAS HGEMM on the decompressed operand (the safe fallback)."""

    name = "cublas-dense"
    format = FORMAT_DENSE

    def estimate(self, operand: SpmmOperand, c: int, gpu: GPUSpec) -> KernelResult:
        return cublas.estimate_time(operand.problem(c), gpu=gpu)

    def execute(self, operand: SpmmOperand, b: np.ndarray) -> np.ndarray:
        # Identical arithmetic to cublas.gemm(operand.dense(), slab) — the
        # fp16 rounding of the operand is just hoisted into the memoized
        # dense16 view — so the result stays bit-for-bit the direct call's.
        # matmul broadcasts (R, K) @ (B, K, C) into one GEMM per slab, the
        # call the Spatha plan's dense schedule makes.
        return np.matmul(operand.dense16(), quantize_fp16(b))


def default_backends() -> List[Backend]:
    """Fresh instances of the four standard backends."""
    return [
        SpathaPlanBackend(),
        SputnikCsrBackend(),
        CusparseBlockedEllBackend(),
        CublasDenseBackend(),
    ]


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
    """Registry mapping (formats, pattern, shape regime) to the best backend.

    Decisions are memoized per :meth:`signature`; use a fresh dispatcher (or
    :meth:`clear_cache`) to force re-ranking.  Execution is transparent: the
    chosen backend's public entry point is invoked on the operand's stored
    format, so dispatched results are bit-for-bit the direct-call results.
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
        self.backends = backends if backends is not None else default_backends()
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
        #: (milliseconds, on the blocking path of a served request).
        self._estimates = BoundedCache()
        #: Backend health: failure streaks, quarantine and failover counters.
        self.breaker = CircuitBreaker(failure_threshold, probe_interval)

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    @property
    def backends(self) -> List[Backend]:
        """The registered backends in registry order (assign to replace them)."""
        return self._backends

    @backends.setter
    def backends(self, backends: Sequence[Backend]) -> None:
        self._backends: List[Backend] = list(backends)
        self._by_name: Dict[str, Backend] = {b.name: b for b in self._backends}

    def register(self, backend: Backend, prepend: bool = False) -> None:
        """Add a backend (its ``name`` must be unique)."""
        if backend.name in self._by_name:
            raise ValueError(f"backend {backend.name!r} is already registered")
        self.backends = [backend] + self.backends if prepend else self.backends + [backend]
        self._decisions.clear()
        self._estimates.clear()

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
        """The memoization key: formats, pattern, shape regime and content.

        Includes :meth:`SpmmOperand.content_signature` so same-shape
        operands with different sparsity/structure never alias to one
        cached decision (distinct layers of a model may legitimately
        dispatch to different backends).  Rebuilt per call: it costs about
        0.24 us of a C=1 16:2:8 ``Linear.forward`` that takes ~10 us at
        256x256 and ~19 us at 1024x256 or 256x1024 (one AMD EPYC core,
        one BLAS thread).
        """
        return (
            operand.formats,
            operand.pattern,
            operand.r,
            operand.k,
            self.shape_bucket(c),
            operand.content_signature(),
        )

    def dispatch(self, operand: SpmmOperand, c: int) -> DispatchDecision:
        """Rank the supported backends for this problem (memoized).

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
            raise ValueError(
                f"{self.name or 'dispatcher'}: no registered backend supports "
                f"formats {operand.formats}"
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
    def _attempt(self, operand: SpmmOperand, b: np.ndarray, name: str, decision: DispatchDecision) -> np.ndarray:
        """Run one candidate backend, honouring the non-finite demotion."""
        backend = self.backend(name)
        if name != CublasDenseBackend.name or len(decision.costs) == 1 or fp16_finite(b):
            return backend.execute(operand, b)
        # The dense fallback with a sparse-format candidate beside it: the
        # fastest of those serves any slab that is non-finite after the
        # kernels' fp16 rounding.
        sparse = self.backend(next(n for n, _ in decision.ranking if n != name))
        return demote_nonfinite_slabs(
            b,
            lambda rhs: backend.execute(operand, rhs),
            lambda rhs: sparse.execute(operand, rhs),
        )

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
        ``bias.reshape(R, 1)`` exactly like the Spatha plan does.  A
        non-finite RHS demotes the dense fallback to the fastest
        sparse-format backend (see :meth:`_attempt`).

        When a candidate raises :class:`BackendExecutionError` the walk
        continues down the cost ranking; the result served by a fallback is
        bit-for-bit what invoking that fallback directly would return,
        because the fallback runs the identical public entry point.  The
        failover is recorded on the decision, the circuit breaker counts the
        failure, and only when *every* candidate fails does the call raise.
        """
        b = _validate_rhs(operand, b)
        decision = self.dispatch(operand, b.shape[-1])
        served, first_failed, out = self.breaker.walk(
            decision,
            lambda name: self._attempt(operand, b, name, decision),
            self.name or "dispatcher",
        )
        if first_failed is not None:
            decision.record_failover(first_failed, served)
        if bias is not None:
            r = operand.r
            bias = np.asarray(bias, dtype=np.float32)
            if bias.shape not in {(r,), (r, 1)}:
                raise ValueError(f"bias must have shape ({r},), got {bias.shape}")
            out += bias.reshape(r, 1)
        return out

    def warm(self, operand: SpmmOperand, cs: Sequence[int] = ()) -> None:
        """Prepare the operand for serving.

        Builds the Spatha plan (when a V:N:M view exists) and, for every
        column count in ``cs``, pre-populates the dispatch decision of its
        shape bucket — so a warmed server pays neither the plan's gather
        indices and metadata nor the cost-model ranking (including the
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

    # ------------------------------------------------------------------
    # The sharded surface at tp_degree=1
    # ------------------------------------------------------------------
    # :class:`~repro.serving.sharded.ShardedDispatcher` subclasses this with
    # a shard placement; one device is the degenerate topology — nothing to
    # place, no traffic — so the serving engines call the same methods
    # on either and never ask which one they hold.
    def bind_encoder(self, encoder) -> None:
        """Nothing to place on a single device."""

    def attribute_modelled(self, operand: SpmmOperand, time_us: float) -> None:
        """One device owns every operand: nothing to attribute."""

    def comm_kernels(self, tokens: int, batch_size: int = 1) -> List:
        """No shard boundary, no modelled collectives."""
        return []

    def sharding_stats(self) -> Dict[str, object]:
        """The sharded dispatcher's stats schema, zeroed."""
        return {
            "tp_degree": 1,
            "placement_policy": None,
            "per_shard_calls": [],
            "per_shard_modelled_us": [],
            "load_balance": None,
            "cut_bytes_per_token": 0.0,
            "comm_time_us": 0.0,
            "comm_events": 0,
        }


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

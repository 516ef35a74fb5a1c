"""Shape-bucketing dynamic batcher.

Inference traffic arrives as independent requests with ragged shapes (a
translation request is 17 tokens, the next one 243).  GPUs want one big
batched kernel.  The batcher bridges the two with the standard serving
trick (e.g. Triton's dynamic batcher): token counts are rounded up to a
small set of *bucket boundaries*, requests that land in the same bucket are
zero-padded to the boundary and stacked into one ``(B, K, C_bucket)`` RHS,
and the padding columns are trimmed away after execution.

This module holds the window-oriented batchers (whole-queue drains and the
async arrival-deadline :class:`AsyncWindowBatcher`); the window-free
continuous policy lives in :mod:`repro.serving.continuous` and reuses the
bucketing defined here.

Determinism is a design requirement, not an accident: within a drain, the
requests of a bucket are ordered by ``request_id`` (not arrival order), so
the same set of requests produces the same stacked operands — and therefore
bit-identical outputs — no matter how they were interleaved on arrival.
Zero-padding never perturbs a request's own numbers because every request
is *always* executed at its bucket shape, alone or batched; combined with
the dispatcher's slab-bit-exact batched execution this makes "batched ==
sequential" an exact identity, which the serving tests assert bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Token-count boundaries of the default bucket ladder (powers of two up to
#: a BERT-style maximum sequence length; larger requests get exact-shape
#: buckets of their own).
DEFAULT_TOKEN_BUCKETS: Tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class Request:
    """One inference request: an activation matrix awaiting the sparse op.

    ``activations`` has shape ``(tokens, features)`` — the layer-facing
    layout; the batcher transposes into the kernel's ``(K, C)`` RHS form.
    ``deadline_us``, when set, is the last engine-clock instant at which
    the request may still complete; a request scheduled later than that is
    reported ``timed_out`` instead of executing.  ``priority_class`` is the
    request's tenant tier for SLO-aware scheduling — larger is more urgent
    (class 0 = best-effort); FCFS scheduling ignores it entirely.
    """

    request_id: str
    activations: np.ndarray
    arrival_us: float = 0.0
    deadline_us: Optional[float] = None
    priority_class: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.activations, dtype=np.float32)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError(
                f"activations must be (tokens >= 1, features), got {np.shape(self.activations)}"
            )
        if self.deadline_us is not None and self.deadline_us < self.arrival_us:
            raise ValueError(
                f"request {self.request_id!r}: deadline_us ({self.deadline_us}) precedes "
                f"arrival_us ({self.arrival_us})"
            )
        if not isinstance(self.priority_class, int) or self.priority_class < 0:
            raise ValueError(
                f"request {self.request_id!r}: priority_class must be a non-negative "
                f"int, got {self.priority_class!r}"
            )
        object.__setattr__(self, "activations", arr)

    def expired_at(self, now_us: float) -> bool:
        """True when the deadline has passed at ``now_us``.

        A request scheduled exactly at its deadline still completes on
        time, so expiry is strict: ``deadline_us < now_us``.
        """
        return self.deadline_us is not None and self.deadline_us < now_us

    @property
    def tokens(self) -> int:
        return self.activations.shape[0]

    @property
    def features(self) -> int:
        return self.activations.shape[1]


def _reject_non_finite(request: Request) -> None:
    """Refuse NaN/Inf payloads at intake, naming the offending request.

    One non-finite value would otherwise poison every batchmate's rows of
    the batched forward; rejecting at ``submit`` keeps the queue clean.
    (Values that only overflow under the kernels' fp16 rounding are still
    screened at execute time by the engines' poison isolation.)
    """
    if not np.isfinite(request.activations).all():
        raise ValueError(
            f"request {request.request_id!r} has non-finite activations (NaN/Inf); "
            f"rejected at submit to protect its batchmates"
        )


@dataclass(frozen=True)
class BucketKey:
    """Identity of a shape bucket: feature width x padded token count."""

    features: int
    token_bucket: int


@dataclass
class MicroBatch:
    """A bucket's worth of requests, ready for one batched kernel call."""

    key: BucketKey
    requests: List[Request] = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        return len(self.requests)

    @property
    def padded_tokens(self) -> int:
        """Total padded token count (``B * token_bucket``) — the batched C."""
        return self.batch_size * self.key.token_bucket

    @property
    def valid_lengths(self) -> Tuple[int, ...]:
        """Per-request true token counts, in batch order.

        The padded model-serving path turns these into the additive
        attention mask (:func:`~repro.models.functional.padding_mask`)
        that keeps padded key rows at exactly zero attention weight.
        """
        return tuple(req.tokens for req in self.requests)

    @property
    def valid_tokens(self) -> int:
        """Total true token count (``sum(valid_lengths)``)."""
        return sum(req.tokens for req in self.requests)

    def stacked_rhs(self) -> np.ndarray:
        """The batched RHS: ``(B, features, token_bucket)``.

        Each request's activations are transposed to ``(K, C)`` and padded
        with zero columns up to the bucket boundary.  Zero columns produce
        zero output columns that :meth:`split_output` trims away; they never
        touch the real columns (GEMM columns are independent).
        """
        key = self.key
        rhs = np.zeros((self.batch_size, key.features, key.token_bucket), dtype=np.float32)
        for i, req in enumerate(self.requests):
            rhs[i, :, : req.tokens] = req.activations.T
        return rhs

    def stacked_activations(self) -> np.ndarray:
        """The batched layer-facing activations: ``(B, token_bucket, features)``.

        The model-serving layout (sequences stay un-transposed): each
        request's ``(tokens, features)`` activations occupy the leading rows
        of its slab, zero-padded down to the bucket boundary.  In
        exact-length mode no padding rows exist at all; in padded
        (``"ladder"``) mode the engine pairs this tensor with the
        :attr:`valid_lengths` attention mask, because bare zero rows would
        *not* be numerics-neutral through attention's softmax.
        """
        key = self.key
        out = np.zeros((self.batch_size, key.token_bucket, key.features), dtype=np.float32)
        for i, req in enumerate(self.requests):
            out[i, : req.tokens] = req.activations
        return out

    def split_hidden(self, out: np.ndarray) -> Dict[str, np.ndarray]:
        """Split a batched ``(B, token_bucket, features_out)`` result per request.

        The model-serving inverse of :meth:`stacked_activations`: trims the
        padding rows and returns ``{request_id: (tokens, features_out)}``.
        """
        out = np.asarray(out)
        if out.ndim != 3 or out.shape[:2] != (self.batch_size, self.key.token_bucket):
            raise ValueError(
                f"expected a ({self.batch_size}, {self.key.token_bucket}, F) batched output, "
                f"got {out.shape}"
            )
        return {
            req.request_id: out[i, : req.tokens].copy()
            for i, req in enumerate(self.requests)
        }

    def split_output(self, out: np.ndarray) -> Dict[str, np.ndarray]:
        """Split a batched ``(B, R, token_bucket)`` result back per request.

        Returns ``{request_id: (tokens, R)}`` with the padding trimmed and
        the layer-facing orientation restored.
        """
        out = np.asarray(out)
        if out.ndim != 3 or out.shape[0] != self.batch_size:
            raise ValueError(
                f"expected a ({self.batch_size}, R, {self.key.token_bucket}) batched output, "
                f"got {out.shape}"
            )
        return {
            req.request_id: out[i, :, : req.tokens].T.copy()
            for i, req in enumerate(self.requests)
        }


class ShapeBucketBatcher:
    """Queue requests, drain them as deterministic shape-bucketed batches."""

    def __init__(
        self,
        token_buckets: Tuple[int, ...] = DEFAULT_TOKEN_BUCKETS,
        max_batch_size: int = 64,
    ) -> None:
        buckets = tuple(int(b) for b in token_buckets)
        if not buckets or any(b <= 0 for b in buckets):
            raise ValueError("token_buckets must be positive")
        if any(a >= b for a, b in zip(buckets, buckets[1:])):
            raise ValueError("token_buckets must be strictly increasing")
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.token_buckets = buckets
        self.max_batch_size = max_batch_size
        self._pending: List[Request] = []
        self._seen_ids: set = set()

    @classmethod
    def exact_length(cls, max_batch_size: int = 64, **kwargs) -> "ShapeBucketBatcher":
        """A batcher that only stacks requests of *identical* token counts.

        With the ladder collapsed to ``(1,)`` every token count above 1 is
        its own exact singleton bucket, so no request is ever padded.  This
        is the conservative policy for model-level serving: an encoder's
        attention mixes information *across* the tokens of a sequence, so
        zero-padding is only safe behind an explicit attention mask (the
        engine's ``padding="ladder"`` mode); without one, exact-length
        buckets are the only bit-exact choice.  Works for subclasses too
        (``AsyncWindowBatcher.exact_length(window_us=...)``).
        """
        return cls(token_buckets=(1,), max_batch_size=max_batch_size, **kwargs)

    @classmethod
    def ladder(
        cls, min_rung: int = 8, max_rung: int = 4096, max_batch_size: int = 64, **kwargs
    ) -> "ShapeBucketBatcher":
        """A powers-of-two bucket ladder from ``min_rung`` up to ``max_rung``.

        The padded-bucket policy: token counts round *up* to the next rung
        (doubling steps bound padding waste at <2x while keeping the rung
        count logarithmic), requests above the top rung get exact singleton
        buckets as usual.  This is what ``padding="ladder"`` model serving
        batches with — ragged lengths that exact-length bucketing would
        scatter into near-empty buckets share a rung instead, and the
        attention mask keeps the padded rows at exactly zero weight.
        """
        if min_rung <= 0 or max_rung < min_rung:
            raise ValueError(f"need 0 < min_rung <= max_rung, got {min_rung}..{max_rung}")
        rungs = []
        rung = int(min_rung)
        while rung <= max_rung:
            rungs.append(rung)
            rung *= 2
        return cls(token_buckets=tuple(rungs), max_batch_size=max_batch_size, **kwargs)

    # ------------------------------------------------------------------
    # Bucketing
    # ------------------------------------------------------------------
    def token_bucket(self, tokens: int) -> int:
        """The padded token count for a request of ``tokens`` tokens.

        The smallest bucket boundary >= ``tokens``; requests longer than
        the last boundary are served at their exact length (an unpadded
        singleton bucket per length).
        """
        if tokens <= 0:
            raise ValueError("tokens must be positive")
        for boundary in self.token_buckets:
            if tokens <= boundary:
                return boundary
        return tokens

    def bucket_key(self, request: Request) -> BucketKey:
        """The bucket a request lands in."""
        return BucketKey(features=request.features, token_bucket=self.token_bucket(request.tokens))

    # ------------------------------------------------------------------
    # Queue
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> Optional[BucketKey]:
        """Enqueue one request; returns the bucket it will batch into.

        Validation (type, duplicate id, finiteness — the expensive scan)
        happens exactly once, here; admission itself goes through
        :meth:`_admit` so subclasses can add queue policy (bounded queues,
        shedding) without re-scanning the payload.
        """
        if not isinstance(request, Request):
            raise TypeError("submit expects a Request")
        if request.request_id in self._seen_ids:
            raise ValueError(f"duplicate request_id {request.request_id!r} in this window")
        _reject_non_finite(request)
        return self._admit(request)

    def submit_many(self, requests) -> None:
        """Enqueue several requests atomically.

        Validates the whole batch (types, finiteness, duplicate ids — among
        themselves and against the queue) before enqueueing anything, so a
        rejected request never leaves earlier ones stranded in the queue.
        Each payload is scanned for non-finite values exactly once.
        """
        batch = list(requests)
        for request in batch:
            if not isinstance(request, Request):
                raise TypeError("submit_many expects Request instances")
            _reject_non_finite(request)
        ids = [r.request_id for r in batch]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate request_ids within the submitted batch")
        clashes = self._seen_ids.intersection(ids)
        if clashes:
            raise ValueError(f"duplicate request_ids in this window: {sorted(clashes)}")
        for request in batch:
            self._admit(request)

    def _admit(self, request: Request) -> Optional[BucketKey]:
        """Admit an already-validated request into the queue.

        The single admission choke point: ``submit`` and ``submit_many``
        validate, then hand over here.  Subclasses override this (not the
        submit methods) to layer queue policy on top — the continuous
        batcher's bounded-queue shedding returns ``None`` for a request it
        refuses.
        """
        self._seen_ids.add(request.request_id)
        self._pending.append(request)
        return self.bucket_key(request)

    @property
    def pending(self) -> int:
        """Number of queued requests."""
        return len(self._pending)

    def expire_due(self, now_us: float) -> List[Request]:
        """Remove and return queued requests whose deadline passed at ``now_us``.

        Deterministic (returned in ``request_id`` order); the evicted ids
        become reusable.  Deadline-less requests never expire.  Drivers
        call this before scheduling so an expired request neither occupies
        a batch slot nor holds its rung open.
        """
        expired = [r for r in self._pending if r.expired_at(now_us)]
        if expired:
            gone = {r.request_id for r in expired}
            self._pending = [r for r in self._pending if r.request_id not in gone]
            self._seen_ids -= gone
        return sorted(expired, key=lambda r: r.request_id)

    # The admission surface every driver reads.  A window batcher admits
    # everything, so it sheds and evicts nothing and its counters are zero;
    # :class:`~repro.serving.continuous.ContinuousBatcher` overrides all three.
    def take_shed(self) -> List[Request]:
        """Requests refused admission since the last call (never any here)."""
        return []

    def take_expired(self) -> List[Request]:
        """Requests evicted by drop-expired shedding (never any here)."""
        return []

    def admission_stats(self) -> Dict[str, object]:
        """The zeroed admission schema: same keys as the continuous
        batcher's, ``shed_policy: None`` marking admission control absent."""
        return {
            "max_queue_depth": None,
            "shed_policy": None,
            "shed": 0,
            "expired": 0,
            "pending": self.pending,
            "kv_budget_blocks": None,
            "kv_reserved": 0,
            "occupied_slots": 0,
            "policy": None,
            "per_class": {0: {"shed": 0, "expired": 0, "pending": 0}},
        }

    def drain(self) -> List[MicroBatch]:
        """Group everything queued into micro-batches and clear the queue.

        Deterministic (see :meth:`_micro_batches`): the same request set
        always drains identically, regardless of arrival order.
        """
        pending = self._pending
        self._pending = []
        self._seen_ids = set()
        return self._micro_batches(pending)

    def _micro_batches(self, requests: List[Request]) -> List[MicroBatch]:
        """The window batching policy: group by bucket, order each group by
        ``request_id``, chunk at ``max_batch_size``, emit in bucket-key
        order — the same request set always batches identically."""
        by_bucket: Dict[BucketKey, List[Request]] = {}
        for req in requests:
            by_bucket.setdefault(self.bucket_key(req), []).append(req)
        batches: List[MicroBatch] = []
        for key in sorted(by_bucket, key=lambda k: (k.features, k.token_bucket)):
            members = sorted(by_bucket[key], key=lambda r: r.request_id)
            for lo in range(0, len(members), self.max_batch_size):
                batches.append(MicroBatch(key=key, requests=members[lo : lo + self.max_batch_size]))
        return batches


class AsyncWindowBatcher(ShapeBucketBatcher):
    """Shape-bucketing batcher with arrival-deadline window closing.

    The fixed-window policy closes every bucket at multiples of the window
    length regardless of when its requests actually arrived.  This batcher
    closes each *bucket* asynchronously instead: a bucket's window opens
    when its oldest pending request arrives (``Request.arrival_us``) and the
    whole bucket closes once that request has waited ``window_us`` of
    simulated wall-clock time — deadlines track arrivals, not batch counts
    or a global grid, so a lone straggler is never held hostage to traffic
    in other buckets.

    The serving engines drive it with ``poll(now_us)``; numerics are
    untouched — a closed bucket drains through the exact same deterministic
    :meth:`ShapeBucketBatcher.drain` policy, so per-request outputs
    stay invariant to arrival order *and* to the window size (the async
    property test pins this bit for bit).
    """

    def __init__(
        self,
        token_buckets: Tuple[int, ...] = DEFAULT_TOKEN_BUCKETS,
        max_batch_size: int = 64,
        window_us: float = 1000.0,
    ) -> None:
        super().__init__(token_buckets=token_buckets, max_batch_size=max_batch_size)
        if window_us < 0:
            raise ValueError("window_us must be non-negative")
        self.window_us = float(window_us)

    def due_keys(self, now_us: float) -> List[BucketKey]:
        """Buckets whose oldest request's deadline has passed at ``now_us``."""
        oldest: Dict[BucketKey, float] = {}
        for req in self._pending:
            key = self.bucket_key(req)
            oldest[key] = min(oldest.get(key, float("inf")), req.arrival_us)
        return sorted(
            (k for k, arrival in oldest.items() if arrival + self.window_us <= now_us),
            key=lambda k: (k.features, k.token_bucket),
        )

    def drain_due(self, now_us: float) -> List[MicroBatch]:
        """Drain only the buckets that are due at ``now_us``.

        Requests in buckets whose deadline has not yet passed stay queued
        (and keep their window-unique ids); a full :meth:`drain` at shutdown
        flushes whatever remains.
        """
        due = set(self.due_keys(now_us))
        if not due:
            return []
        taken = [r for r in self._pending if self.bucket_key(r) in due]
        self._pending = [r for r in self._pending if self.bucket_key(r) not in due]
        for req in taken:
            self._seen_ids.discard(req.request_id)
        return self._micro_batches(taken)

    def next_deadline_us(self) -> Optional[float]:
        """The earliest pending close time (``None`` when the queue is empty).

        ``serve_arrivals`` polls each of these instants in turn, so windows
        close exactly on schedule.
        """
        if not self._pending:
            return None
        return min(r.arrival_us for r in self._pending) + self.window_us

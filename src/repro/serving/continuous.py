"""Continuous batching: the one batcher, scheduled per engine step.

Requests are bucketed by shape (token counts rounded up a ladder of
boundaries, or exact lengths) and every engine drives the same
``step(now_us)`` loop over them (the iteration-level scheduling of
Orca/vLLM, adapted to encoder workloads where one request is one forward
pass):

* **admission happens between steps** — a request that arrived while the
  previous step was executing joins a compatible open bucket immediately,
  even though its new batchmates have been queued since earlier steps;
* each step executes **one** micro-batch: the single most urgent
  bucket chunk among everything arrived (oldest first across rungs
  under FCFS; by class, then earliest deadline, under the strict-priority
  policy of :class:`SchedulingConfig`);
* completed sequences leave at the end of their step without blocking the
  rung — requests of the same rung that did not fit the chunk stay queued
  and are eligible again at the very next step, merged with whatever
  arrived meanwhile.

Dynamic batching in the Triton sense is a **hold rule** on top of the same
loop, not a second scheduler: with ``window_us > 0`` a bucket waits until
its oldest request has waited ``window_us`` or its arrived requests fill
the rung's free slots, whichever comes first.  ``window_us = 0`` (the
default) holds nothing.  A whole window (``serve``) is the step loop run
until the queue is empty.

Both policies are planned by one pass over the batcher's per-bucket queues,
kept sorted by ``(arrival_us, request_id)`` at admission: FCFS compares the
bucket heads (O(non-empty buckets) plus the chunk), strict priority
collects each bucket's arrived prefix (O(arrived)).  A bucket's key is known
from its queue, so no request is re-bucketed per step.
:func:`plan_slo_batch_reference` spells the same policies out over a flat
item list, and the chunk-sequence property test in
``tests/serving/test_slo.py`` pins the batcher to it across randomized
schedules, cadences, holds, shed policies and held rung slots.

Scheduling is the *only* thing that changes.  Execution still runs through
the engines' ``_execute_batch`` (a ladder micro-batch runs as equal-length
groups), where every sequence executes at its true shape — so continuous
serving of N requests stays bit-for-bit N sequential ``encoder.forward``
calls, regardless of arrival interleaving, hold or step cadence.  The
property tests in ``tests/serving/test_continuous.py`` pin this across
arrival orders, step cadences and exact/ladder modes, together with the
determinism of the per-request :class:`CompletionRecord` metadata.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter, is_
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .batcher import DEFAULT_TOKEN_BUCKETS, BucketKey, MicroBatch, Request

#: Admission-control shedding policies.
SHED_REJECT_NEWEST = "reject-newest"
SHED_DROP_EXPIRED = "drop-expired"
SHED_POLICIES: Tuple[str, ...] = (SHED_REJECT_NEWEST, SHED_DROP_EXPIRED)

#: SLO-aware chunk-selection policies (cross-class arbitration).
POLICY_FCFS = "fcfs"
POLICY_PRIORITY = "priority"
SCHEDULING_POLICIES: Tuple[str, ...] = (POLICY_FCFS, POLICY_PRIORITY)

_NO_DEADLINE = float("inf")


@dataclass(frozen=True)
class SchedulingConfig:
    """SLO-aware scheduling knobs (:class:`ContinuousBatcher` and the
    engines' :class:`~repro.serving.config.ServingConfig`).

    ``policy`` arbitrates *across* priority classes:

    * ``"fcfs"`` (default) — classes and deadlines are ignored: the
      bucket whose head has the oldest ``(arrival_us, request_id)`` runs,
      its arrived members oldest first.
    * ``"priority"`` — strict priority: the highest populated class with
      schedulable work always wins (larger ``priority_class`` = more
      urgent; a steady stream of high-class work can starve class 0), and
      *within* it earliest-deadline-first (requests without a deadline
      rank last, then oldest arrival, ties by id).

    ``class_weights[c]`` is class ``c``'s proportional slice of the
    ``max_queue_depth`` admission bound.  Classes beyond the tuple get
    weight 1; without ``class_weights`` no class has a dedicated bound.
    """

    policy: str = POLICY_FCFS
    class_weights: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"policy must be one of {SCHEDULING_POLICIES}, got {self.policy!r}"
            )
        if not isinstance(self.class_weights, tuple):
            object.__setattr__(self, "class_weights", tuple(self.class_weights))
        for weight in self.class_weights:
            if not isinstance(weight, int) or weight < 1:
                raise ValueError(f"class_weights must be ints >= 1, got {self.class_weights!r}")

    @property
    def num_classes(self) -> int:
        """Classes the config explicitly names (≥ 1; class 0 always exists)."""
        return max(len(self.class_weights), 1)

    def weight_of(self, priority_class: int) -> int:
        """Queue-bound share of one class (1 beyond ``class_weights``)."""
        if priority_class < len(self.class_weights):
            return self.class_weights[priority_class]
        return 1

    def queue_bound_of(
        self, priority_class: int, max_queue_depth: Optional[int] = None
    ) -> Optional[int]:
        """One class's admission bound (``None`` = no dedicated bound).

        When both ``max_queue_depth`` and ``class_weights`` are set, the
        global bound is split proportionally to the weights (rounded up, so
        every weighted class can queue at least one request) — the
        class-weighted bounded queues of the SLO admission controller.
        """
        if max_queue_depth is not None and self.class_weights:
            share = self.weight_of(priority_class)
            return -(-max_queue_depth * share // sum(self.class_weights))  # ceil
        return None


@dataclass(frozen=True)
class CompletionRecord:
    """Where and when one request completed in a continuous-serving run.

    Deterministic serving metadata: for a fixed arrival schedule and step
    cadence, every field is reproducible run to run (the scheduler has no
    hidden state and breaks every tie by ``request_id``).  Outputs are
    stronger still — bit-identical across *different* cadences and
    arrival interleavings — but the records describe scheduling, which
    legitimately depends on both.
    """

    #: The request this record describes.
    request_id: str
    #: Engine-wide index of the executed step that completed the request
    #: (idle polls do not count; ``step == 0`` is the first executed batch).
    step: int
    #: The engine clock (``now_us``) at the completing step.
    completed_us: float
    #: The bucket rung the request executed at (its padded token count).
    rung: int
    #: How many requests shared the completing micro-batch.
    batch_size: int
    #: The request's own arrival time, copied for convenience.
    arrival_us: float

    @property
    def wait_us(self) -> float:
        """Queueing delay: engine clock at completion minus arrival."""
        return self.completed_us - self.arrival_us


def plan_slo_batch_reference(
    items,
    key_of,
    arrival_of,
    id_of,
    max_batch_size: int,
    class_of=None,
    deadline_of=None,
    policy: str = POLICY_FCFS,
    capacity_of=None,
    window_us: float = 0.0,
    now_us: Optional[float] = None,
    need_of=None,
    kv_room: Optional[int] = None,
) -> Optional[Tuple[object, List]]:
    """Chunk selection for every policy as an executable specification.

    The loop-form ``*_reference`` sibling of
    :meth:`ContinuousBatcher.next_batch`, which must emit the identical
    chunk sequence (property-tested in ``tests/serving/test_slo.py``).
    Items are grouped by ``key_of(item)`` (the bucket identity), and:

    1. **Rung capacity.** ``capacity_of(key)``, when given, is the number
       of free slots on a rung; buckets at zero capacity are skipped
       entirely (their queues wait for a released slot) and a chunk is
       capped at ``min(max_batch_size, capacity_of(key))``.
    2. **Hold** (``window_us > 0``): ``items`` are the items arrived by
       ``now_us``; a bucket with free capacity is schedulable only once
       its oldest item has waited ``window_us`` (``arrival + window_us <=
       now_us``) or its items fill that capacity.  ``window_us == 0``
       holds nothing.
    3. **Cross-class arbitration** (``policy``): ``"fcfs"`` ignores
       classes — the schedulable item with the oldest ``(arrival, id)``
       picks the winning bucket, and the chunk is that bucket oldest
       first (ids are unique, so the rank is total and the plan
       deterministic).
       ``"priority"`` restricts candidates to the highest schedulable
       class.
    4. **EDF within the class**: candidates are ranked by
       ``(deadline_us or +inf, arrival_us, id)`` — tightest deadline
       first, deadline-free requests fall back to FCFS order.  The winning
       bucket is the one whose most urgent member wins, and its chunk is
       its candidates in that same urgency order, capped per (1).
    5. **KV cut** (``kv_room`` given): ``need_of(item)`` is the KV blocks
       an item reserves when it is scheduled.  Walking a bucket's
       candidates in chunk order, an item whose need exceeds the blocks
       left of ``kv_room`` cuts the chunk — no later item joins it — and a
       bucket whose chunk is empty is not a candidate.  Under
       ``"priority"`` a class none of whose buckets has a non-empty chunk
       drops out and the next class is arbitrated.

    A ``"priority"`` chunk is **class-pure** (only the winning class's
    members), keeping strictness strict.
    Returns ``(key, chunk)`` or ``None`` when nothing is schedulable.
    """
    if policy not in SCHEDULING_POLICIES:
        raise ValueError(f"policy must be one of {SCHEDULING_POLICIES}, got {policy!r}")
    if window_us > 0 and now_us is None:
        raise ValueError("a hold (window_us > 0) needs now_us")
    class_of = class_of if class_of is not None else (lambda item: 0)
    deadline_of = deadline_of if deadline_of is not None else (lambda item: None)

    def capacity(key) -> int:
        cap = max_batch_size if capacity_of is None else min(max_batch_size, capacity_of(key))
        return max(cap, 0)

    def kv_cut(members, cap):
        if kv_room is None:
            return members[:cap]
        room, chunk = kv_room, []
        for item in members:
            need = need_of(item)
            if need > room:
                break
            room -= need
            chunk.append(item)
            if len(chunk) == cap:
                break
        return chunk

    def best_chunk(candidates, rank):
        by_bucket = {}
        for item in candidates:
            by_bucket.setdefault(key_of(item), []).append(item)
        best = None
        for key, members in by_bucket.items():
            chunk = kv_cut(sorted(members, key=rank), capacity(key))
            if chunk and (best is None or rank(chunk[0]) < best[0]):
                best = (rank(chunk[0]), key, chunk)
        return best

    def schedulable_bucket(key, members) -> bool:
        cap = capacity(key)
        if cap <= 0:
            return False
        if window_us <= 0:
            return True
        oldest = min(arrival_of(item) for item in members)
        return oldest + window_us <= now_us or len(members) >= cap

    by_key = {}
    for item in items:
        by_key.setdefault(key_of(item), []).append(item)
    schedulable = [
        item
        for key, members in by_key.items()
        if schedulable_bucket(key, members)
        for item in members
    ]
    if not schedulable:
        return None

    if policy == POLICY_FCFS:
        best = best_chunk(schedulable, lambda item: (arrival_of(item), id_of(item)))
        return (best[1], best[2]) if best is not None else None

    def rank(item):
        deadline = deadline_of(item)
        return (
            deadline if deadline is not None else _NO_DEADLINE,
            arrival_of(item),
            id_of(item),
        )

    classes = {class_of(item) for item in schedulable}
    while classes:
        winner = max(classes)
        best = best_chunk([item for item in schedulable if class_of(item) == winner], rank)
        if best is not None:
            return best[1], best[2]
        classes.discard(winner)
    return None


def _arrival_rank(request: Request) -> Tuple[float, str]:
    """In-bucket scheduling order: oldest arrival first, ties by id."""
    return (request.arrival_us, request.request_id)


def _edf_rank(request: Request) -> Tuple[float, float, str]:
    """Within-class order of ``"priority"``: tightest deadline first,
    deadline-free requests last, then oldest arrival, ties by id."""
    deadline = request.deadline_us
    return (
        deadline if deadline is not None else _NO_DEADLINE,
        request.arrival_us,
        request.request_id,
    )


_arrival_us = attrgetter("arrival_us")


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


class ContinuousBatcher:
    """The shape-bucketing batcher every serving engine schedules through.

    **Bucketing.** A request's token count rounds up to the smallest
    ``token_buckets`` boundary that holds it (longer requests get an exact
    singleton bucket of their own length); requests of one bucket — same
    feature width, same padded count — stack into one micro-batch.
    :meth:`ladder` builds the powers-of-two ladder; ``token_buckets=(1,)``
    makes every length its own exact bucket.

    **Intake.** ``submit`` / ``submit_many`` validate once (type,
    finiteness, duplicate id against the queue; ``submit_many`` atomically
    for the whole batch), then admit.

    **Scheduling.** The engine asks for **one** micro-batch per step
    (:meth:`next_batch`): the most urgent chunk among the requests that
    have *arrived* by ``now_us``.  Everything else stays queued with its id
    reserved — including same-rung requests beyond ``max_batch_size``,
    which become the oldest members of the rung's next chunk, merged with
    any later arrivals (the "join an open bucket mid-flight" behaviour
    continuous batching exists for).  With ``window_us > 0`` a bucket is
    **held** until its oldest request has waited ``window_us`` or its
    arrived requests fill the rung's free slots (Triton's maximum queue
    delay and preferred batch size); :meth:`next_event_us` names the
    instant the next bucket opens.

    Each bucket's queue is kept sorted by ``(arrival_us, request_id)`` at
    admission, so a bucket's arrived members are a prefix of its queue and
    its head is its oldest request.  One planner, :meth:`_plan`, serves
    every :class:`SchedulingConfig` policy from those queues: FCFS compares
    the heads of the schedulable buckets, strict priority picks the highest
    class over the arrived prefixes and then ranks by deadline.  Deadlines live in
    a lazy heap (so :meth:`expire_due` is a no-op when nothing carries a
    deadline).  The emitted chunk sequence is identical to the
    :func:`plan_slo_batch_reference` specification, property-tested.

    Numerics are untouched: a chunk executes through the engines' one
    ``MicroBatch`` path, so per-request outputs are invariant to arrival
    interleaving, to the hold *and* to the step cadence, bit for bit.

    Admission control (overload shedding) is opt-in: with
    ``max_queue_depth`` set, a submit that would push the queue past the
    bound is shed deterministically.  ``shed_policy="reject-newest"``
    refuses the incoming request outright; ``"drop-expired"`` first evicts
    queued requests whose deadline has already passed at the incoming
    request's arrival time (they were doomed anyway) and only sheds the
    newcomer if the queue is still full.  A shed request is still validated
    (type, finiteness, id clash) — shedding can never mask a malformed
    submission; it just never enters the queue.  Shed and evicted requests
    land in :meth:`take_shed` / :meth:`take_expired` so drivers can report
    their outcomes; the cumulative brownout counters are on
    :meth:`admission_stats`.

    Multi-step (decode) serving adds two opt-in dimensions.  **Rung
    occupancy**: a decode request keeps executing on its rung for many
    steps after it is popped; the driving engine marks the slot held with
    :meth:`acquire_slot` and returns it with :meth:`release_slot`, and
    :meth:`next_batch` admits into a rung only up to ``max_batch_size``
    minus its held slots (a full rung's queue simply waits — other rungs
    stay schedulable).  **KV-memory budget**: with ``kv_budget_blocks``
    set, a request's projected KV footprint (``kv_cost(request)`` blocks,
    default 1) is reserved when it is scheduled, not when it is submitted
    — vLLM's rule: a sequence runs only when its blocks can be had, and
    the rest wait.  A chunk is cut at the first request whose footprint
    does not fit the blocks left unreserved (a bucket whose chunk is cut
    to nothing waits, like a full rung), so nothing is ever shed for KV;
    only a request whose footprint exceeds the whole budget is refused at
    submit (:meth:`take_failed`).  Reservations are returned by
    :meth:`release_kv` when the engine frees the sequence's blocks.  Both default off,
    leaving single-step engines untouched.
    """

    def __init__(
        self,
        token_buckets: Tuple[int, ...] = DEFAULT_TOKEN_BUCKETS,
        max_batch_size: int = 64,
        max_queue_depth: Optional[int] = None,
        shed_policy: str = SHED_REJECT_NEWEST,
        kv_budget_blocks: Optional[int] = None,
        kv_cost: Optional[Callable[[Request], int]] = None,
        scheduling: Optional[SchedulingConfig] = None,
        window_us: float = 0.0,
    ) -> None:
        buckets = tuple(int(b) for b in token_buckets)
        if not buckets or any(b <= 0 for b in buckets):
            raise ValueError("token_buckets must be positive")
        if any(a >= b for a, b in zip(buckets, buckets[1:])):
            raise ValueError("token_buckets must be strictly increasing")
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if window_us < 0:
            raise ValueError("window_us must be non-negative")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None for unbounded)")
        if shed_policy not in SHED_POLICIES:
            raise ValueError(f"shed_policy must be one of {SHED_POLICIES}, got {shed_policy!r}")
        if kv_budget_blocks is not None and kv_budget_blocks < 1:
            raise ValueError("kv_budget_blocks must be >= 1 (or None for unbudgeted)")
        if scheduling is not None and not isinstance(scheduling, SchedulingConfig):
            raise TypeError(f"scheduling must be a SchedulingConfig, got {type(scheduling)}")
        self.token_buckets = buckets
        self.max_batch_size = max_batch_size
        #: The hold: how long a bucket may wait for company (0 = never).
        self.window_us = float(window_us)
        self.max_queue_depth = max_queue_depth
        self.shed_policy = shed_policy
        self.kv_budget_blocks = kv_budget_blocks
        self._kv_cost_fn = kv_cost
        #: SLO-aware scheduling knobs (default: plain FCFS, classes ignored).
        self.scheduling = scheduling if scheduling is not None else SchedulingConfig()
        #: KV blocks reserved by scheduled-but-not-yet-released requests.
        self.kv_reserved = 0
        self._kv_cost_by_id: Dict[str, int] = {}
        #: Footprints of queued requests that hold no reservation yet.
        self._kv_need: Dict[str, int] = {}
        #: Rung slots held by in-flight multi-step sequences: per-rung list
        #: of holder request ids.
        self._holders: Dict[BucketKey, List[str]] = {}
        #: Requests shed/evicted since the last take_*; drivers drain these
        #: into RequestOutcomes.
        self.shed_log: List[Request] = []
        self.expired_log: List[Request] = []
        #: Requests refused at submit because their KV footprint exceeds
        #: the whole budget, each with the cause.
        self.failed_log: List[Tuple[Request, str]] = []
        #: Cumulative brownout counters (never reset by take_*).
        self.total_shed = 0
        self.total_expired = 0
        #: Per-priority-class brownout counters (same never-reset contract).
        self.total_shed_by_class: Dict[int, int] = {}
        self.total_expired_by_class: Dict[int, int] = {}
        #: Live queue depth per class (admission bookkeeping).
        self._pending_by_class: Dict[int, int] = {}
        #: non-empty per-bucket queues, each sorted by (arrival_us, request_id).
        self._buckets: Dict[BucketKey, List[Request]] = {}
        #: live queued requests by id (the queue depth and the duplicate-id
        #: check both read it).
        self._by_id: Dict[str, Request] = {}
        #: admission sequence number per live id — deadline-heap entries
        #: carry the seq they were pushed with, so entries for departed (or
        #: re-used) ids are recognised as stale and pruned lazily.
        self._live_seq: Dict[str, int] = {}
        self._admit_seq = 0
        #: expiry: min-heap of (deadline_us, request_id, seq); only fed by
        #: requests that actually carry a deadline.
        self._deadline_heap: List[Tuple[float, str, int]] = []

    @classmethod
    def ladder(
        cls, min_rung: int = 8, max_rung: int = 4096, max_batch_size: int = 64, **kwargs
    ) -> "ContinuousBatcher":
        """A powers-of-two bucket ladder from ``min_rung`` up to ``max_rung``.

        Token counts round *up* to the next rung (doubling steps bound the
        modelled padding at <2x while keeping the rung count logarithmic);
        requests above the top rung get exact singleton buckets as usual.
        The defaults are ``DEFAULT_TOKEN_BUCKETS``, what ``padding="ladder"``
        model serving batches with: ragged lengths that exact-length
        bucketing would scatter into near-empty buckets share a rung, and
        the engine runs each length at its true shape.
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
    # Intake
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> Optional[BucketKey]:
        """Validate and admit one request; returns its bucket (``None``
        when admission control shed it).  The finiteness scan runs exactly
        once, here."""
        if not isinstance(request, Request):
            raise TypeError("submit expects a Request")
        if request.request_id in self._by_id:
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
        clashes = sorted(rid for rid in ids if rid in self._by_id)
        if clashes:
            raise ValueError(f"duplicate request_ids in this window: {clashes}")
        for request in batch:
            self._admit(request)

    # ------------------------------------------------------------------
    # Admission control (validation happened in submit/submit_many)
    # ------------------------------------------------------------------
    def _kv_cost_of(self, request: Request) -> int:
        """Projected KV-block footprint of one request (0 when unbudgeted)."""
        if self.kv_budget_blocks is None:
            return 0
        cost = self._kv_cost_fn(request) if self._kv_cost_fn is not None else 1
        if cost < 1:
            raise ValueError(f"kv_cost must be >= 1 block, got {cost} for {request.request_id!r}")
        return cost

    def class_queue_bound(self, priority_class: int) -> Optional[int]:
        """The admission bound of one priority class (``None`` = unbounded);
        see :meth:`SchedulingConfig.queue_bound_of`."""
        return self.scheduling.queue_bound_of(priority_class, self.max_queue_depth)

    def _over_capacity(self, priority_class: int = 0) -> bool:
        if self.max_queue_depth is not None and self.pending >= self.max_queue_depth:
            return True
        bound = self.class_queue_bound(priority_class)
        return bound is not None and self._pending_by_class.get(priority_class, 0) >= bound

    def _admit(self, request: Request) -> Optional[BucketKey]:
        """Admit, shed or refuse one validated request (``None`` unless admitted)."""
        kv_cost = self._kv_cost_of(request)
        if self.kv_budget_blocks is not None and kv_cost > self.kv_budget_blocks:
            self.failed_log.append(
                (
                    request,
                    f"KV footprint of {kv_cost} blocks exceeds the budget of "
                    f"{self.kv_budget_blocks} blocks",
                )
            )
            return None
        cls = request.priority_class
        if self._over_capacity(cls):
            if self.shed_policy == SHED_DROP_EXPIRED:
                expired = self.expire_due(request.arrival_us)
                self.expired_log.extend(expired)
                self.total_expired += len(expired)
                for victim in expired:
                    victim_cls = victim.priority_class
                    self.total_expired_by_class[victim_cls] = (
                        self.total_expired_by_class.get(victim_cls, 0) + 1
                    )
            if self._over_capacity(cls):
                self.shed_log.append(request)
                self.total_shed += 1
                self.total_shed_by_class[cls] = self.total_shed_by_class.get(cls, 0) + 1
                return None
        return self._enqueue(request, kv_cost)

    def _enqueue(self, request: Request, kv_cost: int = 0) -> BucketKey:
        key = self.bucket_key(request)
        insort(self._buckets.setdefault(key, []), request, key=_arrival_rank)
        if kv_cost:
            self._kv_need[request.request_id] = kv_cost
        self._admit_seq += 1
        seq = self._admit_seq
        rid = request.request_id
        self._by_id[rid] = request
        self._live_seq[rid] = seq
        cls = request.priority_class
        self._pending_by_class[cls] = self._pending_by_class.get(cls, 0) + 1
        if request.deadline_us is not None:
            heappush(self._deadline_heap, (request.deadline_us, rid, seq))
        return key

    def _forget(self, request: Request) -> None:
        """Drop a departed request's liveness: its deadline-heap entry turns
        stale (pruned lazily) and its id becomes reusable."""
        rid = request.request_id
        del self._by_id[rid]
        del self._live_seq[rid]
        cls = request.priority_class
        left = self._pending_by_class.get(cls, 0) - 1
        if left > 0:
            self._pending_by_class[cls] = left
        else:
            self._pending_by_class.pop(cls, None)

    def _take(self, key: BucketKey, requests: List[Request]) -> None:
        """Remove queued ``requests`` from bucket ``key``, dropping the
        bucket once empty; the caller settles their KV footprints.  A
        prefix of the queue (every FCFS chunk) is one slice deletion,
        anything else one filtering pass by identity."""
        bucket = self._buckets[key]
        if all(map(is_, bucket, requests)):
            del bucket[: len(requests)]
        else:
            taken = set(map(id, requests))
            bucket[:] = [r for r in bucket if id(r) not in taken]
        for request in requests:
            self._forget(request)
        if not bucket:
            del self._buckets[key]

    def _evict(self, request: Request) -> None:
        """Remove one queued request for good (expiry/shedding eviction)."""
        self._take(self.bucket_key(request), [request])
        self._kv_need.pop(request.request_id, None)

    def take_shed(self) -> List[Request]:
        """Drain the shed log (requests refused admission since last call)."""
        out = self.shed_log
        self.shed_log = []
        return out

    def take_expired(self) -> List[Request]:
        """Drain the expiry log (requests evicted by drop-expired shedding)."""
        out = self.expired_log
        self.expired_log = []
        return out

    def take_failed(self) -> List[Tuple[Request, str]]:
        """Drain the refusal log: ``(request, cause)`` for each request whose
        KV footprint exceeds the whole budget."""
        out = self.failed_log
        self.failed_log = []
        return out

    def per_class_stats(self) -> Dict[int, Dict[str, int]]:
        """Per-priority-class admission counters, normalized.

        Always covers class 0 and every class the scheduling config names
        (zeroed when unused), plus any class actually observed queued, shed
        or expired — so a default FCFS engine reports
        ``{0: {"shed": 0, "expired": 0, "pending": 0}}`` and the schema
        never changes shape at runtime.
        """
        classes = set(range(self.scheduling.num_classes))
        classes.update(self._pending_by_class)
        classes.update(self.total_shed_by_class)
        classes.update(self.total_expired_by_class)
        return {
            cls: {
                "shed": self.total_shed_by_class.get(cls, 0),
                "expired": self.total_expired_by_class.get(cls, 0),
                "pending": self._pending_by_class.get(cls, 0),
            }
            for cls in sorted(classes)
        }

    def admission_stats(self) -> Dict[str, object]:
        """Brownout counters for the engines' ``stats()``."""
        return {
            "max_queue_depth": self.max_queue_depth,
            "shed_policy": self.shed_policy,
            "shed": self.total_shed,
            "expired": self.total_expired,
            "pending": self.pending,
            "kv_budget_blocks": self.kv_budget_blocks,
            "kv_reserved": self.kv_reserved,
            "occupied_slots": sum(len(holders) for holders in self._holders.values()),
            "policy": self.scheduling.policy,
            "per_class": self.per_class_stats(),
        }

    # ------------------------------------------------------------------
    # Multi-step occupancy (decode engines)
    # ------------------------------------------------------------------
    def acquire_slot(self, key: BucketKey, request: Request) -> None:
        """Mark one rung slot held by ``request``, an in-flight multi-step
        sequence."""
        self._holders.setdefault(key, []).append(request.request_id)

    def release_slot(self, key: BucketKey, request_id: str) -> None:
        """Return the rung slot ``request_id`` holds (sequence completed or
        failed)."""
        holders = self._holders.get(key, [])
        if request_id not in holders:
            raise RuntimeError(f"{request_id!r} holds no slot on rung {key}")
        holders.remove(request_id)
        if not holders:
            del self._holders[key]

    def occupied_slots(self, key: BucketKey) -> int:
        """Slots currently held on one rung."""
        return len(self._holders.get(key, ()))

    def release_kv(self, request_id: str) -> int:
        """Return a request's KV-budget reservation; returns the blocks freed.

        Engines call this when the sequence's cache blocks are actually
        freed (completion or failure).  Unknown ids are a harmless no-op
        (the request never reserved)."""
        cost = self._kv_cost_by_id.pop(request_id, 0)
        self.kv_reserved -= cost
        return cost

    # ------------------------------------------------------------------
    # Queue views
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queued requests."""
        return len(self._by_id)

    def is_queued(self, request_id: str) -> bool:
        """Whether ``request_id`` is currently waiting in the queue."""
        return request_id in self._by_id

    def expire_due(self, now_us: float) -> List[Request]:
        """Remove and return queued requests whose deadline passed at ``now_us``.

        Returned in ``request_id`` order; evicted ids become reusable (a
        queued request holds no KV reservation); expiry is strict
        ``deadline_us < now_us`` and deadline-less requests never expire.
        Driven off the lazy deadline heap: when nothing queued carries a
        deadline — the common case — this is a constant-time no-op instead
        of a full queue scan per step.
        """
        heap = self._deadline_heap
        expired: List[Request] = []
        while heap:
            deadline, rid, seq = heap[0]
            if self._live_seq.get(rid) != seq:
                heappop(heap)
                continue
            if deadline >= now_us:
                break
            heappop(heap)
            request = self._by_id[rid]
            self._evict(request)
            expired.append(request)
        return sorted(expired, key=lambda r: r.request_id)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _plan(self, now_us: float) -> Optional[Tuple[BucketKey, List[Request]]]:
        """The policy's chunk at ``now_us`` as ``(key, requests)``, or ``None``.

        A bucket is a candidate when its head has arrived (inclusive:
        ``arrival_us <= now_us``), its rung has a free slot
        (``max_batch_size`` minus the slots :meth:`acquire_slot` holds) and
        the hold lets it go: no hold (``window_us == 0``), or its head has
        waited ``window_us``, or its arrived prefix fills the free slots.  A
        chunk never exceeds its rung's free slots.

        * FCFS: the candidate whose head ranks first by ``(arrival_us,
          request_id)`` wins, and its chunk is its arrived prefix.
        * Priority: the highest class among every candidate's arrived
          members wins; among that class's members the bucket holding the
          best EDF rank wins, and its chunk is its class members in EDF
          order — class-pure.

        Under a KV budget every chunk is :meth:`_kv_cut`; a bucket whose
        chunk is cut to nothing is not a candidate, and a class with no
        candidate bucket drops out of the arbitration.
        """
        policy = self.scheduling.policy
        holders = self._holders
        hold = self.window_us
        room = self._kv_room()
        best = None
        arrived = []
        for key, bucket in self._buckets.items():
            if bucket[0].arrival_us > now_us:
                continue
            free = self.max_batch_size
            if holders:  # skips hashing the key when no slot is held
                free -= len(holders.get(key, ()))
                if free <= 0:
                    continue
            if hold and bucket[0].arrival_us + hold > now_us and (
                len(bucket) < free or bucket[free - 1].arrival_us > now_us
            ):
                continue  # held: the head is inside its window, slots unfilled
            if policy == POLICY_FCFS:
                head = bucket[0]
                if room is not None and self._kv_need[head.request_id] > room:
                    continue  # the head's blocks cannot be had: the chunk is empty
                rank = _arrival_rank(head)
                if best is None or rank < best[0]:
                    best = (rank, key, bucket, free)
            else:
                cut = bisect_right(bucket, now_us, key=_arrival_us)
                arrived.append((key, bucket[:cut], free))
        if policy == POLICY_FCFS:
            if best is None:
                return None
            _, key, bucket, free = best
            cut = bisect_right(bucket, now_us, key=_arrival_us)
            return key, self._kv_cut(bucket[:cut], free, room)
        classes = {r.priority_class for _, members, _ in arrived for r in members}
        while classes:
            winner = max(classes)
            for key, members, free in arrived:
                members = [r for r in members if r.priority_class == winner]
                if not members:
                    continue
                chunk = self._kv_cut(sorted(members, key=_edf_rank), free, room)
                if chunk:
                    head = _edf_rank(chunk[0])
                    if best is None or head < best[0]:
                        best = (head, key, chunk)
            if best is not None:
                return best[1], best[2]
            classes.discard(winner)  # KV holds every chunk of this class
        return None

    def _kv_room(self) -> Optional[int]:
        """KV blocks left unreserved (``None`` when unbudgeted)."""
        if self.kv_budget_blocks is None:
            return None
        return self.kv_budget_blocks - self.kv_reserved

    def _kv_cut(
        self, members: List[Request], free: int, room: Optional[int]
    ) -> List[Request]:
        """The chunk: the first ``free`` of ``members`` (arrived, in the
        policy's order) the KV budget lets run.

        Unbudgeted (``room`` is ``None``), simply the first ``free``.
        Otherwise a request whose footprint exceeds the ``room`` still
        unreserved cuts the chunk: no later request joins it this step.
        """
        if room is None:
            return members[:free]
        need_of = self._kv_need
        chunk: List[Request] = []
        for request in members:
            need = need_of[request.request_id]
            if need > room:
                break
            room -= need
            chunk.append(request)
            if len(chunk) == free:
                break
        return chunk

    def _kv_start(self, bucket: List[Request], opens: float, room: int) -> Optional[float]:
        """The earliest instant from ``opens`` on at which ``bucket``'s
        chunk is not KV-cut to nothing (``None``: only a release opens it).

        FCFS: ``opens``, if the head fits the ``room``.  ``"priority"``: a
        class's chunk starts at its EDF-first member *among those arrived*,
        which a later, tighter deadline can replace with one that does not
        fit — so ``opens`` and each later arrival are tried in turn.
        """
        need_of = self._kv_need
        if self.scheduling.policy == POLICY_FCFS:
            return opens if need_of[bucket[0].request_id] <= room else None
        heads: Dict[int, Request] = {}
        fitting = set()
        instant = opens
        for request in bucket:  # arrival order
            if request.arrival_us > instant:
                if fitting:
                    return instant
                instant = request.arrival_us
            cls = request.priority_class
            head = heads.get(cls)
            if head is None or _edf_rank(request) < _edf_rank(head):
                heads[cls] = request
                if need_of[request.request_id] <= room:
                    fitting.add(cls)
                else:
                    fitting.discard(cls)
        return instant if fitting else None

    def next_batch(self, now_us: float) -> Optional[MicroBatch]:
        """Pop the single most urgent micro-batch at ``now_us`` (or ``None``).

        The chunk :meth:`_plan` picks leaves the queue (its ids become
        reusable) and reserves its KV footprint; everything else — later
        same-rung members included — stays queued for the next step.  Rungs
        whose slots are all held by in-flight multi-step sequences
        (:meth:`acquire_slot`) are skipped: their queued heads wait for a
        released slot while other rungs keep scheduling.
        """
        planned = self._plan(now_us)
        if planned is None:
            return None
        key, chunk = planned
        self._take(key, chunk)
        need_of = self._kv_need
        for request in chunk:
            need = need_of.pop(request.request_id, 0)
            if need:
                self._kv_cost_by_id[request.request_id] = need
                self.kv_reserved += need
        return MicroBatch(key=key, requests=chunk)

    def next_event_us(self) -> Optional[float]:
        """The earliest instant any queued bucket becomes a candidate.

        Per bucket with a free slot: its head's arrival plus the hold,
        or the arrival of the member that fills the free slots if that is
        sooner (without a hold, simply the head's arrival) — and, under a
        KV budget, :meth:`_kv_start` from there.  ``None`` when no
        bucket can open by the clock alone (empty queue, or every queued
        rung fully held or KV-cut until a release).  After a step that
        found nothing to run at ``now``, this is strictly later than
        ``now`` — drivers advance their clock here.
        """
        hold = self.window_us
        holders = self._holders
        room = self._kv_room()
        event = None
        for key, bucket in self._buckets.items():
            free = self.max_batch_size
            if holders:
                free -= len(holders.get(key, ()))
                if free <= 0:
                    continue
            opens = bucket[0].arrival_us
            if hold:
                opens += hold
                if len(bucket) >= free:
                    opens = min(opens, bucket[free - 1].arrival_us)
            if room is not None:
                opens = self._kv_start(bucket, opens, room)
                if opens is None:
                    continue
            if event is None or opens < event:
                event = opens
        return event

    def drain(self) -> List[MicroBatch]:
        """Everything queued as micro-batches, and an empty queue.

        Each bucket (in bucket-key order) sliced into ``max_batch_size``
        chunks in its ``(arrival_us, request_id)`` order — no clock, no
        hold, no KV reservation (a queued request holds none).  All queue
        state is reset: ids become reusable.
        """
        size = self.max_batch_size
        batches = [
            MicroBatch(key=key, requests=bucket[lo : lo + size])
            for key, bucket in sorted(
                self._buckets.items(), key=lambda kv: (kv[0].features, kv[0].token_bucket)
            )
            for lo in range(0, len(bucket), size)
        ]
        self._kv_need.clear()
        self._buckets.clear()
        self._by_id.clear()
        self._live_seq.clear()
        self._pending_by_class.clear()
        self._deadline_heap.clear()
        return batches

"""Continuous batching: requests join and leave buckets between engine steps.

The windowed policies (fixed grid, async arrival deadlines) are
*closed-world*: a window drains, a batch runs, the next window opens —
a request arriving one microsecond after its bucket closed waits a full
window before it can execute.  Continuous batching removes the window
entirely (the iteration-level scheduling of Orca/vLLM, adapted to
encoder workloads where one request is one forward pass):

* the engine runs a ``step(now_us)`` loop; **admission happens between
  steps** — a request that arrived while the previous step was executing
  joins a compatible open bucket immediately, even though its new
  batchmates have been queued since earlier steps;
* each step executes **one** batched (masked) forward: the single most
  urgent bucket chunk among everything arrived, oldest first (FCFS across
  rungs), under the deterministic ladder/exact grouping of
  :class:`~repro.serving.batcher.ShapeBucketBatcher`;
* completed sequences leave at the end of their step without blocking the
  rung — requests of the same rung that did not fit the chunk stay queued
  and are eligible again at the very next step, merged with whatever
  arrived meanwhile.

The scheduler state is *incremental*: per-bucket queues are kept sorted at
admission (insort by ``(arrival_us, request_id)``), urgency across rungs is
a lazily-pruned min-heap fed at admission, and taking a chunk is an O(chunk)
prefix removal.  A step therefore costs proportional to what it schedules,
not to what is queued — the earlier implementation re-bucketed and re-sorted
the whole pending list every step, which is what
:func:`plan_continuous_batch` (kept as the executable reference policy)
still spells out; the equivalence property test in
``tests/serving/test_continuous.py`` pins the two to the same chunk
sequence across randomized schedules, cadences and shed policies.

Scheduling is the *only* thing that changes.  Execution still runs through
the engines' ``_execute_batch`` (exact-length stacking, or the padded
ladder behind the additive attention mask), where every sequence executes
at its true shape — so continuous serving of N requests stays bit-for-bit
N sequential ``encoder.forward`` calls, regardless of arrival
interleaving or step cadence.  The property tests in
``tests/serving/test_continuous.py`` pin this across arrival orders, step
cadences and exact/ladder modes, together with the determinism of the
per-request :class:`CompletionRecord` metadata.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from heapq import heappop, heappush, nsmallest
from typing import Callable, Dict, List, Optional, Tuple

from .batcher import (
    DEFAULT_TOKEN_BUCKETS,
    BucketKey,
    MicroBatch,
    Request,
    ShapeBucketBatcher,
)

#: Admission-control shedding policies.
SHED_REJECT_NEWEST = "reject-newest"
SHED_DROP_EXPIRED = "drop-expired"
SHED_POLICIES: Tuple[str, ...] = (SHED_REJECT_NEWEST, SHED_DROP_EXPIRED)

#: SLO-aware chunk-selection policies (cross-class arbitration).
POLICY_FCFS = "fcfs"
POLICY_PRIORITY = "priority"
POLICY_WEIGHTED_FAIR = "weighted-fair"
SCHEDULING_POLICIES: Tuple[str, ...] = (POLICY_FCFS, POLICY_PRIORITY, POLICY_WEIGHTED_FAIR)

_NO_DEADLINE = float("inf")


@dataclass(frozen=True)
class SchedulingConfig:
    """SLO-aware scheduling knobs (:class:`ContinuousBatcher` and the
    engines' :class:`~repro.serving.config.ServingConfig`).

    ``policy`` arbitrates *across* priority classes; *within* the chosen
    class, chunk selection is always earliest-deadline-first (requests
    without a deadline rank last, then oldest arrival, ties by id):

    * ``"fcfs"`` (default) — classes are ignored entirely; the scheduler
      is exactly the :func:`plan_continuous_batch` policy of PR 5/7.
    * ``"priority"`` — strict priority: the highest populated class with
      schedulable work always wins (larger ``priority_class`` = more
      urgent; a steady stream of high-class work can starve class 0).
    * ``"weighted-fair"`` — deficit-style weighted fairness: the class
      with the smallest served-requests-to-weight ratio wins (ties go to
      the higher class), so best-effort traffic keeps a guaranteed share
      under sustained high-class load.  Requires ``class_weights``.

    ``preemption`` lets a higher class evict lower-class holders of a
    *full* rung (multi-step decode sequences): the victim releases its
    slot but keeps its KV blocks and re-queues at its original
    ``(arrival_us, request_id)`` rank, so it resumes deterministically and
    bit-exactly once a slot frees up.

    ``class_weights[c]`` is class ``c``'s weighted-fair share (and, with
    ``max_queue_depth``, its proportional slice of the admission bound);
    ``class_queue_depths[c]`` bounds class ``c``'s queue outright (``None``
    entries inherit the weighted split).  Classes beyond either tuple get
    weight 1 and no dedicated bound.
    """

    policy: str = POLICY_FCFS
    preemption: bool = False
    class_weights: Tuple[int, ...] = ()
    class_queue_depths: Tuple[Optional[int], ...] = ()

    def __post_init__(self) -> None:
        if self.policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"policy must be one of {SCHEDULING_POLICIES}, got {self.policy!r}"
            )
        if not isinstance(self.class_weights, tuple):
            object.__setattr__(self, "class_weights", tuple(self.class_weights))
        if not isinstance(self.class_queue_depths, tuple):
            object.__setattr__(self, "class_queue_depths", tuple(self.class_queue_depths))
        for weight in self.class_weights:
            if not isinstance(weight, int) or weight < 1:
                raise ValueError(f"class_weights must be ints >= 1, got {self.class_weights!r}")
        for depth in self.class_queue_depths:
            if depth is not None and (not isinstance(depth, int) or depth < 1):
                raise ValueError(
                    f"class_queue_depths entries must be None or ints >= 1, "
                    f"got {self.class_queue_depths!r}"
                )
        if self.policy == POLICY_WEIGHTED_FAIR and not self.class_weights:
            raise ValueError("weighted-fair scheduling requires class_weights")

    @property
    def active(self) -> bool:
        """True when any knob departs from plain FCFS scheduling."""
        return (
            self.policy != POLICY_FCFS
            or self.preemption
            or bool(self.class_weights)
            or bool(self.class_queue_depths)
        )

    @property
    def num_classes(self) -> int:
        """Classes the config explicitly names (≥ 1; class 0 always exists)."""
        return max(len(self.class_weights), len(self.class_queue_depths), 1)

    def weight_of(self, priority_class: int) -> int:
        """Weighted-fair share of one class (1 beyond ``class_weights``)."""
        if priority_class < len(self.class_weights):
            return self.class_weights[priority_class]
        return 1

    def queue_bound_of(
        self, priority_class: int, max_queue_depth: Optional[int] = None
    ) -> Optional[int]:
        """One class's admission bound (``None`` = no dedicated bound).

        An explicit ``class_queue_depths`` entry wins; otherwise, when both
        ``max_queue_depth`` and ``class_weights`` are set, the global bound
        is split proportionally to the weights (rounded up, so every
        weighted class can queue at least one request) — the class-weighted
        bounded queues of the SLO admission controller.
        """
        depths = self.class_queue_depths
        if priority_class < len(depths) and depths[priority_class] is not None:
            return depths[priority_class]
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


def plan_continuous_batch(
    items, key_of, arrival_of, id_of, max_batch_size: int
) -> Optional[Tuple[object, List]]:
    """Pick the single most urgent bucket chunk from ``items`` (FCFS).

    The continuous scheduling policy as an executable specification — the
    *reference* sibling of the incremental :class:`ContinuousBatcher`
    (which must emit the identical chunk sequence; property-tested):

    1. group items by ``key_of(item)`` (the bucket identity);
    2. order each bucket by ``(arrival_of(item), id_of(item))`` — oldest
       first, ties broken by id so the plan is deterministic;
    3. chunk each bucket at ``max_batch_size`` (later members stay queued
       for the next step — they leave the rung open, not blocked);
    4. return the chunk whose oldest member has waited longest, breaking
       arrival ties by the oldest member's id (ids are unique across the
       candidate set, so the ``(arrival, id)`` rank is always total).

    Returns ``(key, chunk)``, or ``None`` when ``items`` is empty.
    """
    by_bucket = {}
    for item in items:
        by_bucket.setdefault(key_of(item), []).append(item)
    best = None
    for key, bucket_members in by_bucket.items():
        members = sorted(bucket_members, key=lambda it: (arrival_of(it), id_of(it)))
        chunk = members[:max_batch_size]
        rank = (arrival_of(chunk[0]), id_of(chunk[0]))
        if best is None or rank < best[0]:
            best = (rank, key, chunk)
    if best is None:
        return None
    return best[1], best[2]


#: Explicit alias for the reference policy (the incremental batcher's
#: equivalence partner in the property tests).
plan_continuous_batch_reference = plan_continuous_batch


def _wf_wins(challenger, incumbent, served_by_class, weights) -> bool:
    """Deficit-style weighted-fair arbitration between two classes.

    The class with the smaller ``served / weight`` ratio wins (compared by
    cross-multiplication so the decision is exact integer arithmetic, never
    float division); ties go to the *higher* class.  ``incumbent is None``
    always loses.
    """
    if incumbent is None:
        return True
    if challenger == incumbent:
        return False
    lhs = served_by_class.get(challenger, 0) * weights(incumbent)
    rhs = served_by_class.get(incumbent, 0) * weights(challenger)
    if lhs != rhs:
        return lhs < rhs
    return challenger > incumbent


def plan_slo_batch_reference(
    items,
    key_of,
    arrival_of,
    id_of,
    max_batch_size: int,
    class_of=None,
    deadline_of=None,
    policy: str = POLICY_FCFS,
    class_weights: Tuple[int, ...] = (),
    served_by_class=None,
    capacity_of=None,
) -> Optional[Tuple[object, List]]:
    """SLO-aware chunk selection as an executable specification (loop form).

    The :func:`plan_continuous_batch` contract grown three ways — this is
    the ``*_reference`` sibling of :func:`plan_slo_batch` (identical chunk
    sequences, property-tested in ``tests/serving/test_slo.py``):

    1. **Rung capacity.** ``capacity_of(key)``, when given, is the number
       of free slots on a rung; buckets at zero capacity are skipped
       entirely (their queues wait for a released slot) and a chunk is
       capped at ``min(max_batch_size, capacity_of(key))``.
    2. **Cross-class arbitration** (``policy``): ``"fcfs"`` ignores
       classes — the schedulable item with the oldest ``(arrival, id)``
       picks the winning bucket, exactly the continuous reference.
       ``"priority"`` restricts candidates to the highest schedulable
       class.  ``"weighted-fair"`` restricts to the class with the
       smallest ``served_by_class[c] / class_weights[c]`` ratio (exact
       integer comparison, ties to the higher class) — ``served_by_class``
       is the caller's cumulative served counter, read-only here.
    3. **EDF within the class**: candidates are ranked by
       ``(deadline_us or +inf, arrival_us, id)`` — tightest deadline
       first, deadline-free requests fall back to FCFS order.  The winning
       bucket is the one whose most urgent member wins, and its chunk is
       its candidates in that same urgency order, capped per (1).

    A non-FCFS chunk is **class-pure** (only the winning class's members),
    keeping strictness strict and the weighted-fair accounting exact.
    Returns ``(key, chunk)`` or ``None`` when nothing is schedulable.
    """
    if policy not in SCHEDULING_POLICIES:
        raise ValueError(f"policy must be one of {SCHEDULING_POLICIES}, got {policy!r}")
    class_of = class_of if class_of is not None else (lambda item: 0)
    deadline_of = deadline_of if deadline_of is not None else (lambda item: None)
    served_by_class = served_by_class if served_by_class is not None else {}

    def capacity(key) -> int:
        cap = max_batch_size if capacity_of is None else min(max_batch_size, capacity_of(key))
        return max(cap, 0)

    schedulable = [item for item in items if capacity(key_of(item)) > 0]
    if not schedulable:
        return None

    if policy == POLICY_FCFS:
        candidates = schedulable

        def rank(item):
            return (arrival_of(item), id_of(item))

    else:
        if policy == POLICY_PRIORITY:
            winner = max(class_of(item) for item in schedulable)
        else:  # weighted-fair

            def weight(cls: int) -> int:
                return class_weights[cls] if cls < len(class_weights) else 1

            winner = None
            for cls in {class_of(item) for item in schedulable}:
                if _wf_wins(cls, winner, served_by_class, weight):
                    winner = cls
        candidates = [item for item in schedulable if class_of(item) == winner]

        def rank(item):
            deadline = deadline_of(item)
            return (
                deadline if deadline is not None else _NO_DEADLINE,
                arrival_of(item),
                id_of(item),
            )

    by_bucket = {}
    for item in candidates:
        by_bucket.setdefault(key_of(item), []).append(item)
    best = None
    for key, bucket_members in by_bucket.items():
        members = sorted(bucket_members, key=rank)
        chunk = members[: capacity(key)]
        head = rank(chunk[0])
        if best is None or head < best[0]:
            best = (head, key, chunk)
    return (best[1], best[2]) if best is not None else None


def plan_slo_batch(
    items,
    key_of,
    arrival_of,
    id_of,
    max_batch_size: int,
    class_of=None,
    deadline_of=None,
    policy: str = POLICY_FCFS,
    class_weights: Tuple[int, ...] = (),
    served_by_class=None,
    capacity_of=None,
) -> Optional[Tuple[object, List]]:
    """Single-pass implementation of :func:`plan_slo_batch_reference`.

    Same contract, cheaper work: one scan memoizes per-rung capacity and
    settles the winning class, a second scan tracks each bucket's most
    urgent head without sorting, and only the winning bucket's candidates
    are ordered — a partial sort capped at the chunk size
    (``heapq.nsmallest``) instead of the reference's full sort of every
    bucket.  Chunk sequences are pinned identical by the property test in
    ``tests/serving/test_slo.py``.
    """
    if policy not in SCHEDULING_POLICIES:
        raise ValueError(f"policy must be one of {SCHEDULING_POLICIES}, got {policy!r}")
    class_of = class_of if class_of is not None else (lambda item: 0)
    deadline_of = deadline_of if deadline_of is not None else (lambda item: None)
    served_by_class = served_by_class if served_by_class is not None else {}

    caps: Dict[object, int] = {}

    def capacity(key) -> int:
        cap = caps.get(key)
        if cap is None:
            cap = max_batch_size if capacity_of is None else min(max_batch_size, capacity_of(key))
            caps[key] = cap = max(cap, 0)
        return cap

    if policy == POLICY_FCFS:

        def eligible(item) -> bool:
            return capacity(key_of(item)) > 0

        def rank(item):
            return (arrival_of(item), id_of(item))

    else:
        winner = None
        if policy == POLICY_PRIORITY:
            for item in items:
                cls = class_of(item)
                if (winner is None or cls > winner) and capacity(key_of(item)) > 0:
                    winner = cls
        else:  # weighted-fair

            def weight(cls: int) -> int:
                return class_weights[cls] if cls < len(class_weights) else 1

            for item in items:
                cls = class_of(item)
                if _wf_wins(cls, winner, served_by_class, weight) and capacity(key_of(item)) > 0:
                    winner = cls
        if winner is None:
            return None
        chosen = winner

        def eligible(item) -> bool:
            return class_of(item) == chosen and capacity(key_of(item)) > 0

        def rank(item):
            deadline = deadline_of(item)
            return (
                deadline if deadline is not None else _NO_DEADLINE,
                arrival_of(item),
                id_of(item),
            )

    members: Dict[object, List] = {}
    heads: Dict[object, Tuple] = {}
    best_key = None
    for item in items:
        if not eligible(item):
            continue
        key = key_of(item)
        item_rank = rank(item)
        members.setdefault(key, []).append(item)
        if key not in heads or item_rank < heads[key]:
            heads[key] = item_rank
        if best_key is None or heads[key] < heads[best_key]:
            best_key = key
    if best_key is None:
        return None
    chunk = nsmallest(capacity(best_key), members[best_key], key=rank)
    return best_key, chunk


def _arrival_rank(request: Request) -> Tuple[float, str]:
    """In-bucket scheduling order: oldest arrival first, ties by id."""
    return (request.arrival_us, request.request_id)


def _bucket_rank(key: BucketKey) -> Tuple[int, int]:
    """Deterministic bucket-key order (unique per key — it *is* the key)."""
    return (key.features, key.token_bucket)


class ContinuousBatcher(ShapeBucketBatcher):
    """Shape-bucketing batcher scheduled per engine step, not per window.

    Requests queue exactly as on the parent (``submit`` / ``submit_many``,
    which validate once and admit through :meth:`_admit`), but instead of
    draining whole windows the engine asks for **one** micro-batch per step
    (:meth:`next_batch`): the most urgent chunk among the requests that
    have *arrived* by ``now_us``.  Everything else stays queued with its id
    reserved — including same-rung requests beyond ``max_batch_size``,
    which become the oldest members of the rung's next chunk, merged with
    any later arrivals (the "join an open bucket mid-flight" behaviour
    continuous batching exists for).

    Scheduling state is incremental so the per-step cost tracks the chunk,
    not the queue: each bucket's queue is kept sorted by
    ``(arrival_us, request_id)`` at admission, cross-rung urgency is a
    lazily-pruned min-heap of arrival times fed at admission, deadlines
    live in a second lazy heap (so :meth:`expire_due` is a no-op when
    nothing carries a deadline), and taking a chunk is an O(chunk) prefix
    removal.  The emitted chunk sequence is identical to the
    :func:`plan_continuous_batch` reference, property-tested.

    Construct with :meth:`ShapeBucketBatcher.ladder` for padded-rung
    serving (``ContinuousBatcher.ladder()``, the common case) or
    :meth:`ShapeBucketBatcher.exact_length` for exact-length-only
    stacking; both classmethods are inherited.

    Numerics are untouched: a chunk executes through the very same
    ``MicroBatch`` path as a windowed drain, so per-request outputs are
    invariant to arrival interleaving *and* to the step cadence, bit for
    bit.

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
    set, admission also sheds a request whose projected KV footprint
    (``kv_cost(request)`` blocks, default 1) would push the total reserved
    past the budget; reservations are returned by :meth:`release_kv` when
    the engine frees the sequence's blocks (or immediately, for requests
    expired while still queued).  Both default off, leaving single-step
    engines untouched.
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
    ) -> None:
        super().__init__(token_buckets=token_buckets, max_batch_size=max_batch_size)
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None for unbounded)")
        if shed_policy not in SHED_POLICIES:
            raise ValueError(f"shed_policy must be one of {SHED_POLICIES}, got {shed_policy!r}")
        if kv_budget_blocks is not None and kv_budget_blocks < 1:
            raise ValueError("kv_budget_blocks must be >= 1 (or None for unbudgeted)")
        if scheduling is not None and not isinstance(scheduling, SchedulingConfig):
            raise TypeError(f"scheduling must be a SchedulingConfig, got {type(scheduling)}")
        self.max_queue_depth = max_queue_depth
        self.shed_policy = shed_policy
        self.kv_budget_blocks = kv_budget_blocks
        self._kv_cost_fn = kv_cost
        #: SLO-aware scheduling knobs (default: plain FCFS, classes ignored).
        self.scheduling = scheduling if scheduling is not None else SchedulingConfig()
        #: KV blocks reserved by admitted-but-not-yet-released requests.
        self.kv_reserved = 0
        self._kv_cost_by_id: Dict[str, int] = {}
        #: Rung slots held by in-flight multi-step sequences.
        self._occupancy: Dict[BucketKey, int] = {}
        #: Slot holders with their identity, for preemption arbitration:
        #: per-rung list of ``(priority_class, request_id)``.  Only fed when
        #: :meth:`acquire_slot` is told who is holding (decode engines).
        self._holders: Dict[BucketKey, List[Tuple[int, str]]] = {}
        #: Requests shed/evicted since the last take_*; drivers drain these
        #: into RequestOutcomes.
        self.shed_log: List[Request] = []
        self.expired_log: List[Request] = []
        #: Cumulative brownout counters (never reset by take_*).
        self.total_shed = 0
        self.total_expired = 0
        #: Per-priority-class brownout counters (same never-reset contract).
        self.total_shed_by_class: Dict[int, int] = {}
        self.total_expired_by_class: Dict[int, int] = {}
        #: Live queue depth per class (admission bookkeeping).
        self._pending_by_class: Dict[int, int] = {}
        #: Cumulative requests scheduled per class — the weighted-fair
        #: deficit state :func:`plan_slo_batch` arbitrates on.
        self._served_by_class: Dict[int, int] = {}
        # Incremental scheduler state.  The parent's flat ``_pending`` list
        # stays empty — these structures replace it (``_seen_ids`` is still
        # maintained for the parent's duplicate-id validation):
        #: per-bucket queues, each sorted by (arrival_us, request_id).
        self._buckets: Dict[BucketKey, List[Request]] = {}
        #: the bucket keys of ``_buckets`` kept sorted by ``_bucket_rank``:
        #: insort on bucket creation, binary-search removal on bucket drain,
        #: so :meth:`arrived` never re-sorts the key set per step.
        self._sorted_keys: List[BucketKey] = []
        #: live queued requests by id (also the queue-depth source of truth).
        self._by_id: Dict[str, Request] = {}
        #: admission sequence number per live id — heap entries carry the
        #: seq they were pushed with, so entries for departed (or re-used)
        #: ids are recognised as stale and pruned lazily.
        self._live_seq: Dict[str, int] = {}
        self._admit_seq = 0
        #: cross-rung urgency: min-heap of (arrival_us, request_id, seq, key).
        self._arrival_heap: List[Tuple[float, str, int, BucketKey]] = []
        #: expiry: min-heap of (deadline_us, request_id, seq); only fed by
        #: requests that actually carry a deadline.
        self._deadline_heap: List[Tuple[float, str, int]] = []

    # ------------------------------------------------------------------
    # Admission (validation happened in submit/submit_many)
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

    def _over_capacity(self, kv_cost: int, priority_class: int = 0) -> bool:
        if self.max_queue_depth is not None and self.pending >= self.max_queue_depth:
            return True
        bound = self.class_queue_bound(priority_class)
        if bound is not None and self._pending_by_class.get(priority_class, 0) >= bound:
            return True
        return (
            self.kv_budget_blocks is not None
            and self.kv_reserved + kv_cost > self.kv_budget_blocks
        )

    def _admit(self, request: Request) -> Optional[BucketKey]:
        """Admit or shed one validated request (``None`` when shed)."""
        kv_cost = self._kv_cost_of(request)
        cls = request.priority_class
        if self._over_capacity(kv_cost, cls):
            if self.shed_policy == SHED_DROP_EXPIRED:
                expired = self.expire_due(request.arrival_us)
                self.expired_log.extend(expired)
                self.total_expired += len(expired)
                for victim in expired:
                    victim_cls = victim.priority_class
                    self.total_expired_by_class[victim_cls] = (
                        self.total_expired_by_class.get(victim_cls, 0) + 1
                    )
            if self._over_capacity(kv_cost, cls):
                self.shed_log.append(request)
                self.total_shed += 1
                self.total_shed_by_class[cls] = self.total_shed_by_class.get(cls, 0) + 1
                return None
        return self._enqueue(request, kv_cost)

    def _enqueue(self, request: Request, kv_cost: int = 0) -> BucketKey:
        key = self.bucket_key(request)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = []
            insort(self._sorted_keys, key, key=_bucket_rank)
        insort(bucket, request, key=_arrival_rank)
        if kv_cost:
            self._kv_cost_by_id[request.request_id] = kv_cost
            self.kv_reserved += kv_cost
        self._admit_seq += 1
        seq = self._admit_seq
        rid = request.request_id
        self._seen_ids.add(rid)
        self._by_id[rid] = request
        self._live_seq[rid] = seq
        cls = request.priority_class
        self._pending_by_class[cls] = self._pending_by_class.get(cls, 0) + 1
        heappush(self._arrival_heap, (request.arrival_us, rid, seq, key))
        if request.deadline_us is not None:
            heappush(self._deadline_heap, (request.deadline_us, rid, seq))
        return key

    def _forget(self, request: Request) -> None:
        """Drop a departed request's liveness: its heap entries turn stale
        (pruned lazily on the next top access) and its id becomes reusable."""
        rid = request.request_id
        del self._by_id[rid]
        del self._live_seq[rid]
        self._seen_ids.discard(rid)
        cls = request.priority_class
        left = self._pending_by_class.get(cls, 0) - 1
        if left > 0:
            self._pending_by_class[cls] = left
        else:
            self._pending_by_class.pop(cls, None)

    def _remove_queued(self, request: Request) -> None:
        """Remove one queued request from the middle of its bucket (binary
        search on the sort key; ids are unique, so the found slot is the
        request itself), keeping any KV reservation it holds."""
        key = self.bucket_key(request)
        bucket = self._buckets[key]
        del bucket[bisect_left(bucket, _arrival_rank(request), key=_arrival_rank)]
        if not bucket:
            self._drop_bucket(key)
        self._forget(request)

    def _evict(self, request: Request) -> None:
        """Remove one queued request for good (expiry/shedding eviction)."""
        self._remove_queued(request)
        self.release_kv(request.request_id)  # never ran; reservation returns now

    def _drop_bucket(self, key: BucketKey) -> None:
        """Forget an emptied bucket (and its slot in the sorted key order)."""
        del self._buckets[key]
        del self._sorted_keys[bisect_left(self._sorted_keys, _bucket_rank(key), key=_bucket_rank)]

    def _live_arrival_top(self) -> Optional[Tuple[float, str, int, BucketKey]]:
        """The heap's oldest *live* entry — the globally most urgent queued
        request (and, the bucket queues being sorted on the same rank, the
        head of its bucket).  Stale entries are pruned on the way."""
        heap = self._arrival_heap
        while heap:
            entry = heap[0]
            if self._live_seq.get(entry[1]) == entry[2]:
                return entry
            heappop(heap)
        return None

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
            "occupied_slots": sum(self._occupancy.values()),
            "policy": self.scheduling.policy,
            "per_class": self.per_class_stats(),
        }

    # ------------------------------------------------------------------
    # Multi-step occupancy (decode engines)
    # ------------------------------------------------------------------
    def acquire_slot(self, key: BucketKey, request: Optional[Request] = None) -> None:
        """Mark one rung slot held by an in-flight multi-step sequence.

        Passing the holding ``request`` records who holds the slot, which
        is what preemption arbitrates on (:meth:`preemption_victim`);
        anonymous holders (the legacy call shape) can never be preempted.
        """
        self._occupancy[key] = self._occupancy.get(key, 0) + 1
        if request is not None:
            self._holders.setdefault(key, []).append(
                (request.priority_class, request.request_id)
            )

    def release_slot(self, key: BucketKey, request_id: Optional[str] = None) -> None:
        """Return a held rung slot (sequence completed, failed or evicted)."""
        held = self._occupancy.get(key, 0)
        if held <= 0:
            raise RuntimeError(f"no held slot to release on rung {key}")
        if held == 1:
            del self._occupancy[key]
        else:
            self._occupancy[key] = held - 1
        holders = self._holders.get(key)
        if holders and request_id is not None:
            holders[:] = [h for h in holders if h[1] != request_id]
            if not holders:
                del self._holders[key]

    def preemption_victim(self, key: BucketKey, priority_class: int) -> Optional[str]:
        """The id of the slot holder a ``priority_class`` arrival may evict.

        Deterministic choice among holders of strictly lower class: lowest
        class first, ties by smallest request id.  ``None`` when every
        holder is at least as important (no preemption).
        """
        candidates = [h for h in self._holders.get(key, ()) if h[0] < priority_class]
        return min(candidates)[1] if candidates else None

    def preemption_target(self, now_us: float) -> Optional[Tuple[BucketKey, Request]]:
        """The queued request that preemption should make room for, if any.

        With preemption enabled, plans the policy's chunk *ignoring* slot
        occupancy; when that chunk's rung is in fact fully held, its most
        urgent member is returned with the rung key — the driving engine
        then asks :meth:`preemption_victim` whom to evict.  ``None`` when
        preemption is off, nothing is queued, or the chosen rung has a free
        slot anyway (normal scheduling will take it).
        """
        if not self.scheduling.preemption:
            return None
        planned = self._plan_slo(now_us, capacity_of=None)  # ignoring occupancy
        if planned is None:
            return None
        key, chunk = planned
        if self.max_batch_size - self._occupancy.get(key, 0) > 0:
            return None
        return key, chunk[0]

    def _plan_slo(self, now_us: float, capacity_of) -> Optional[Tuple[BucketKey, List[Request]]]:
        """One :func:`plan_slo_batch` pass over what has arrived by ``now_us``."""
        arrived = self.arrived(now_us)
        if not arrived:
            return None
        return plan_slo_batch(
            arrived,
            self.bucket_key,
            lambda r: r.arrival_us,
            lambda r: r.request_id,
            self.max_batch_size,
            class_of=lambda r: r.priority_class,
            deadline_of=lambda r: r.deadline_us,
            policy=self.scheduling.policy,
            class_weights=self.scheduling.class_weights,
            served_by_class=self._served_by_class,
            capacity_of=capacity_of,
        )

    def requeue(self, request: Request) -> BucketKey:
        """Re-admit preempted work, bypassing admission control entirely.

        A preempted sequence was already admitted once (and still holds its
        KV reservation, tracked by the engine), so it must never be shed on
        the way back in.  It re-enters its bucket at its original
        ``(arrival_us, request_id)`` rank — the deterministic re-queue the
        preemption golden cells pin.
        """
        if request.request_id in self._seen_ids:
            raise ValueError(f"duplicate request_id {request.request_id!r}")
        return self._enqueue(request, 0)

    def occupied_slots(self, key: BucketKey) -> int:
        """Slots currently held on one rung."""
        return self._occupancy.get(key, 0)

    def release_kv(self, request_id: str) -> int:
        """Return a request's KV-budget reservation; returns the blocks freed.

        Engines call this when the sequence's cache blocks are actually
        freed (completion or failure); queued-request expiry calls it
        internally.  Unknown ids are a harmless no-op (the request was
        admitted unbudgeted)."""
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

    def arrived(self, now_us: float) -> List[Request]:
        """The queued requests whose ``arrival_us`` has passed at ``now_us``
        (inclusive: a request arriving exactly at ``now_us`` is eligible).

        Arrived members form a prefix of each sorted bucket and the bucket
        keys are kept sorted incrementally (``_sorted_keys``), so this costs
        O(buckets log + arrived) — no per-call re-sort of the key set, which
        used to make every idle step O(B log B).  Returned in deterministic
        (bucket key, then (arrival, id)) order.
        """
        out: List[Request] = []
        for key in self._sorted_keys:
            bucket = self._buckets[key]
            out.extend(bucket[: bisect_right(bucket, now_us, key=lambda r: r.arrival_us)])
        return out

    def expire_due(self, now_us: float) -> List[Request]:
        """Remove and return queued requests whose deadline passed at ``now_us``.

        Same contract as the parent (``request_id`` order, evicted ids
        become reusable, expiry is strict ``deadline_us < now_us``), driven
        off the lazy deadline heap: when nothing queued carries a deadline
        — the common case — this is a constant-time no-op instead of a full
        queue scan per step.
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
    def next_batch(self, now_us: float) -> Optional[MicroBatch]:
        """Pop the single most urgent micro-batch at ``now_us`` (or ``None``).

        The :func:`plan_continuous_batch` policy, computed incrementally:
        the arrival heap's live top is the oldest arrived request overall —
        and therefore the head of its (sorted) bucket, whose arrived prefix,
        capped at ``max_batch_size``, is exactly the reference chunk.  The
        chunk's requests leave the queue (their ids become reusable);
        everything else — later same-rung members included — stays queued
        for the next step.  O(chunk) plus amortized heap maintenance.

        Rungs whose slots are all held by in-flight multi-step sequences
        (:meth:`acquire_slot`) are skipped — their queued heads wait for a
        released slot while other rungs keep scheduling; with no held slots
        (every single-step engine) the policy is exactly the reference.

        Under a non-FCFS :class:`SchedulingConfig` the chunk instead comes
        from :func:`plan_slo_batch` over the arrived set (priority or
        weighted-fair across classes, EDF within) — the policies share one
        planner, so the batcher can never drift from the property-tested
        reference.
        """
        if self.scheduling.policy != POLICY_FCFS:
            return self._next_batch_slo(now_us)
        deferred: List[Tuple[float, str, int, BucketKey]] = []
        result: Optional[MicroBatch] = None
        while True:
            top = self._live_arrival_top()
            if top is None or top[0] > now_us:
                break
            key = top[3]
            free = self.max_batch_size - self._occupancy.get(key, 0)
            if free <= 0:
                # Full rung: park its head entry aside and look at the next
                # most urgent request (possibly the same rung — parked one
                # at a time until another rung's head, or nothing, remains).
                deferred.append(heappop(self._arrival_heap))
                continue
            bucket = self._buckets[key]
            limit = min(free, len(bucket))
            cut = 0
            while cut < limit and bucket[cut].arrival_us <= now_us:
                cut += 1
            chunk = bucket[:cut]
            del bucket[:cut]
            if not bucket:
                self._drop_bucket(key)
            for request in chunk:
                self._forget(request)
            result = MicroBatch(key=key, requests=chunk)
            break
        for entry in deferred:
            heappush(self._arrival_heap, entry)
        if result is not None:
            for request in result.requests:  # FCFS chunks may mix classes
                cls = request.priority_class
                self._served_by_class[cls] = self._served_by_class.get(cls, 0) + 1
        return result

    def _next_batch_slo(self, now_us: float) -> Optional[MicroBatch]:
        """Non-FCFS scheduling: one :func:`plan_slo_batch` call per step.

        The SLO policies re-rank the whole arrived set (deadlines and the
        weighted-fair deficit both move between steps), so this path trades
        the FCFS fast path's O(chunk) incrementality for a planner pass
        over what has arrived — scheduling only; execution is untouched.
        """
        planned = self._plan_slo(
            now_us, lambda key: self.max_batch_size - self._occupancy.get(key, 0)
        )
        if planned is None:
            return None
        key, chunk = planned
        for request in chunk:
            self._remove_queued(request)
        cls = chunk[0].priority_class  # non-FCFS chunks are class-pure
        self._served_by_class[cls] = self._served_by_class.get(cls, 0) + len(chunk)
        return MicroBatch(key=key, requests=chunk)

    def next_event_us(self) -> Optional[float]:
        """The earliest instant any queued request becomes schedulable.

        ``None`` when the queue is empty; otherwise the minimum pending
        ``arrival_us`` (the arrival heap's live top).  Drivers advance
        their clock here when a step finds nothing arrived yet.
        """
        top = self._live_arrival_top()
        return None if top is None else top[0]

    def drain(self) -> List[MicroBatch]:
        """Group everything queued into micro-batches and clear the queue.

        The parent's deterministic window-drain plan (bucket-key order, ids
        within a bucket), over the incremental state; all scheduler state is
        reset, ids become reusable.
        """
        items = list(self._by_id.values())
        self._buckets.clear()
        self._sorted_keys.clear()
        self._by_id.clear()
        self._live_seq.clear()
        self._pending_by_class.clear()
        self._arrival_heap.clear()
        self._deadline_heap.clear()
        self._seen_ids = set()
        for request in items:
            self.release_kv(request.request_id)
        return self._micro_batches(items)

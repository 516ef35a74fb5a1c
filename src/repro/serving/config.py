"""Typed serving configuration and the engine factory.

The serving engines grew one keyword at a time — padding mode on the model
engine, KV geometry on the decoder, admission control on the continuous
batcher — until constructing a server meant threading the same
half-dozen knobs through three different signatures.
:class:`ServingConfig` consolidates them into one frozen dataclass accepted
by both engines and the simulator (``config=...``), with :func:`create_engine` as the
one-call front door.  The config is the only path: the engines take no
``padding=`` / ``block_size=`` / ``capacity_blocks=`` / ``kv_budget_blocks=``
/ ``batcher=`` keywords of their own, and every engine builds its one batcher
with :meth:`ServingConfig.build_batcher`.

Scheduling is part of the config: every engine builds one
:class:`~repro.serving.continuous.ContinuousBatcher` and drives it with one
step loop; ``scheduling="async"`` adds the ``window_us`` hold (a bucket
waits for company up to ``window_us`` after its oldest arrival), and the
admission-control knobs (``max_queue_depth`` / ``shed_policy`` /
``kv_budget_blocks``) and ``scheduling_policy`` bind to it under either
mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from .batcher import DEFAULT_TOKEN_BUCKETS
from .continuous import (
    SHED_POLICIES,
    SHED_REJECT_NEWEST,
    ContinuousBatcher,
    SchedulingConfig,
)

#: Scheduling modes of the default batcher: no hold, or the window_us hold.
SCHEDULING_MODES = ("async", "continuous")

#: What an engine serves: one-shot encoder requests, or multi-step decodes.
ENGINE_KINDS = ("encoder", "decoder")

@dataclass(frozen=True)
class ServingConfig:
    """One typed home for every serving-engine knob.

    Attributes
    ----------
    name:
        Engine label (``None`` keeps each engine class's default).
    scheduling:
        ``"continuous"`` (default: a bucket runs as soon as it has
        arrived work) or ``"async"`` (the same step loop with the
        ``window_us`` hold).
    padding:
        Model-engine batching policy: ``"exact"`` buckets by exact length;
        ``"ladder"`` shares a ladder rung between lengths (each length
        still runs at its true shape).
    max_batch_size:
        Per-micro-batch size cap.
    window_us:
        The hold of ``scheduling="async"``: the longest a bucket waits for
        its free slots to fill after its oldest arrival.
    step_us:
        Step cadence of ``serve`` / ``serve_continuous`` replays.
    max_queue_depth / shed_policy:
        Admission control: the queue bound and how a full queue sheds.
    kv_budget_blocks:
        The decoder's KV budget, in blocks (``None``: ``capacity_blocks``).
        A request's footprint is reserved when it is scheduled; one that
        does not fit waits, and one larger than the budget fails at submit.
    block_size / capacity_blocks:
        Decoder paged-KV-cache geometry.
    warm / warm_buckets:
        Eager plan building and the bucket sizes pre-ranked at
        construction.
    scheduling_policy:
        SLO-aware scheduling knobs
        (:class:`~repro.serving.continuous.SchedulingConfig`): cross-class
        arbitration (``"fcfs"`` / ``"priority"``) and per-class queue
        bounds.
    """

    name: Optional[str] = None
    scheduling: str = "continuous"
    padding: str = "exact"
    max_batch_size: int = 64
    window_us: float = 1000.0
    step_us: float = 0.0
    max_queue_depth: Optional[int] = None
    shed_policy: str = SHED_REJECT_NEWEST
    kv_budget_blocks: Optional[int] = None
    block_size: int = 16
    capacity_blocks: int = 512
    warm: bool = True
    warm_buckets: Tuple[int, ...] = ()
    scheduling_policy: SchedulingConfig = field(default_factory=SchedulingConfig)

    def __post_init__(self) -> None:
        if self.scheduling not in SCHEDULING_MODES:
            raise ValueError(
                f"scheduling must be one of {SCHEDULING_MODES}, got {self.scheduling!r}"
            )
        if self.padding not in ("exact", "ladder"):
            raise ValueError(f"padding must be 'exact' or 'ladder', got {self.padding!r}")
        object.__setattr__(self, "warm_buckets", tuple(int(b) for b in self.warm_buckets))
        if self.window_us < 0:
            raise ValueError("window_us must be non-negative")
        if self.step_us < 0:
            raise ValueError("step_us must be non-negative")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, got {self.shed_policy!r}"
            )
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.block_size < 1 or self.capacity_blocks < 1:
            raise ValueError("block_size and capacity_blocks must be >= 1")
        if not isinstance(self.scheduling_policy, SchedulingConfig):
            raise TypeError("scheduling_policy must be a SchedulingConfig")

    # ------------------------------------------------------------------
    # Derived builders the engines call
    # ------------------------------------------------------------------
    def build_batcher(self, kind: str = "encoder", kv_cost: Optional[Callable] = None):
        """The :class:`ContinuousBatcher` of an engine of ``kind``.

        ``kind`` is ``"encoder"`` (model engine and simulator) or
        ``"decoder"`` (``kv_cost`` prices the KV budget).  The buckets are
        ``(1,)`` for an encoder with ``padding="exact"`` (every longer
        length is its own exact bucket), else the default powers-of-two
        ladder.
        ``scheduling="async"`` sets the ``window_us`` hold; admission
        control and the scheduling policy bind under either mode.  Only a
        decoder holds KV: its budget is ``kv_budget_blocks``, else the
        whole cache, and any other kind rejects a ``kv_budget_blocks``.
        """
        if kind not in ENGINE_KINDS:
            raise ValueError(f"unknown engine kind {kind!r}")
        kv_budget = self.kv_budget_blocks
        if kind == "decoder":
            kv_budget = self.capacity_blocks if kv_budget is None else kv_budget
        elif kv_budget is not None:
            raise ValueError(
                f"kv_budget_blocks is decode admission; {kind!r} requests hold no KV"
            )
        exact_lengths = kind == "encoder" and self.padding == "exact"
        return ContinuousBatcher(
            (1,) if exact_lengths else DEFAULT_TOKEN_BUCKETS,
            max_batch_size=self.max_batch_size,
            max_queue_depth=self.max_queue_depth,
            shed_policy=self.shed_policy,
            kv_budget_blocks=kv_budget,
            kv_cost=kv_cost,
            scheduling=self.scheduling_policy,
            window_us=self.window_us if self.scheduling == "async" else 0.0,
        )


def create_engine(target, config: Optional[ServingConfig] = None, kind: str = "encoder", **kwargs):
    """Build the serving engine of ``kind`` for the encoder ``target``.

    ``kind="encoder"`` (default) is the :class:`ModelServingEngine`,
    ``kind="decoder"`` the KV-cache decode engine.  Extra keyword arguments
    (``dispatcher=``) pass through to the engine constructor; without one
    the engine builds its own private dispatcher.
    """
    # Late imports: the engine modules import this one for the config type.
    from .decoder import DecoderServingEngine
    from .model_engine import ModelServingEngine
    from ..models.transformer import TransformerEncoder

    if kind not in ENGINE_KINDS:
        raise ValueError(f"unknown engine kind {kind!r}; expected one of {ENGINE_KINDS}")
    if not isinstance(target, TransformerEncoder):
        raise TypeError(f"kind={kind!r} needs a TransformerEncoder target, got {type(target).__name__}")
    config = config if config is not None else ServingConfig()
    if kind == "encoder":
        return ModelServingEngine(target, config=config, **kwargs)
    return DecoderServingEngine(target, config=config, **kwargs)

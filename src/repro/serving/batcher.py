"""The request and micro-batch types of the shape-bucketing batcher.

Inference traffic arrives as independent requests with ragged shapes (a
translation request is 17 tokens, the next one 243).  GPUs want one big
batched kernel.  The batcher bridges the two with the standard serving
trick (e.g. Triton's dynamic batcher): token counts are rounded up to a
small set of *bucket boundaries* (ladder rungs), and requests that land in
the same bucket share a micro-batch.  Nothing is padded: the model engine
runs each equal-length group of a micro-batch as its own forward at its
true shape (:mod:`repro.serving.model_engine`), so the rung only decides
which requests share a step and what the modelled kernel costs.

This module holds what a scheduled batch is made of — :class:`Request`,
:class:`BucketKey` and :class:`MicroBatch`; the one batcher that buckets
and schedules them is :class:`~repro.serving.continuous.ContinuousBatcher`.

Determinism is a design requirement, not an accident: within a bucket,
requests are ordered by ``(arrival_us, request_id)``, so the same arrival
schedule produces the same micro-batches.  Every operator of the encoder
is slab-exact over the batch dimension, so "batched == sequential" is an
exact identity, which the serving tests assert bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Tuple

import numpy as np

#: Token-count boundaries of the default bucket ladder (powers of two up to
#: a BERT-style maximum sequence length; larger requests get exact-shape
#: buckets of their own).
DEFAULT_TOKEN_BUCKETS: Tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class Request:
    """One inference request: an activation sequence awaiting the model.

    ``activations`` has shape ``(tokens, features)`` — the layer-facing
    layout.
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
    #: Positions generated past ``activations``: what a decoder's KV
    #: footprint adds to the prompt.  A decode job carries its own; any
    #: other request is priced as a one-token decode (a decoder refuses it
    #: when it is scheduled).
    new_tokens: ClassVar[int] = 1

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

    @property
    def tokens(self) -> int:
        return self.activations.shape[0]

    @property
    def features(self) -> int:
        return self.activations.shape[1]


@dataclass(frozen=True)
class BucketKey:
    """Identity of a shape bucket: feature width x padded token count."""

    features: int
    token_bucket: int


@dataclass
class MicroBatch:
    """A bucket's worth of requests, scheduled as one engine step."""

    key: BucketKey
    requests: List[Request] = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        return len(self.requests)

    @property
    def padded_tokens(self) -> int:
        """Rung-rounded token count (``B * token_bucket``) — the C the
        live modelled trace charges."""
        return self.batch_size * self.key.token_bucket

    @property
    def valid_tokens(self) -> int:
        """Total true token count (the sum of the requests' ``tokens``)."""
        return sum(req.tokens for req in self.requests)

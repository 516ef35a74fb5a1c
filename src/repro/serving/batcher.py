"""The request and micro-batch types of the shape-bucketing batcher.

Inference traffic arrives as independent requests with ragged shapes (a
translation request is 17 tokens, the next one 243).  GPUs want one big
batched kernel.  The batcher bridges the two with the standard serving
trick (e.g. Triton's dynamic batcher): token counts are rounded up to a
small set of *bucket boundaries*, requests that land in the same bucket are
zero-padded to the boundary and stacked into one ``(B, K, C_bucket)`` RHS,
and the padding columns are trimmed away after execution.  That is the
single-operator path (:meth:`MicroBatch.stacked_rhs`), where GEMM columns
are independent.  A whole encoder mixes tokens in attention, so the model
engine never pads: it runs each equal-length group of a micro-batch as
its own forward (:mod:`repro.serving.model_engine`), and the rung only
decides which requests share a step and what the modelled kernel costs.

This module holds what a scheduled batch is made of — :class:`Request`,
:class:`BucketKey` and :class:`MicroBatch`; the one batcher that buckets
and schedules them is :class:`~repro.serving.continuous.ContinuousBatcher`.

Determinism is a design requirement, not an accident: within a bucket,
requests are ordered by ``(arrival_us, request_id)``, so the same arrival
schedule produces the same stacked operands.  Zero-padding never perturbs
a request's own numbers because every request is *always* executed at its
bucket shape, alone or batched; combined with the dispatcher's
slab-bit-exact batched execution this makes "batched == sequential" an
exact identity, which the serving tests assert bit for bit.
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
    def valid_tokens(self) -> int:
        """Total true token count (the sum of the requests' ``tokens``)."""
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

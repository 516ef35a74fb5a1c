"""Decoder serving: multi-step continuous batching over a paged KV cache.

The other engines serve *one-shot* requests — a request occupies its batch
slot for exactly one step.  Autoregressive decoding is different: a request
generates ``new_tokens`` positions one step at a time, each step attending
to every earlier position of its own sequence.  ``DecoderServingEngine``
serves that shape of traffic on top of the continuous-batching scheduler:

* **intake** queues the decode job itself: :meth:`DecodeRequest.as_request`
  carries ``new_tokens`` on the queued request, so the batcher prices the
  KV footprint from the queue alone, with no side table to keep in step;
* **admission** pops queued prompts off the
  :class:`~repro.serving.continuous.ContinuousBatcher` exactly as the
  single-step engines do, but a popped request becomes a *resident*: it
  holds its ladder-rung slot (:meth:`ContinuousBatcher.acquire_slot`)
  across steps, so :meth:`ContinuousBatcher.next_batch` never over-admits
  a rung whose slots are occupied by in-flight decodes;
* **prefill** runs the prompt through
  :meth:`~repro.models.transformer.TransformerEncoder.forward_steps`
  layer-major — its positions are the slabs of one stack against one
  cache — into the engine's shared
  :class:`~repro.models.kv_cache.PagedKVCache` — block tables under
  explicit alloc/free and reference counting (``cache_stats()``), rows in
  K/V extents the sequence owns, sized once from ``prompt + new_tokens``;
* **prefix sharing**: the first request of a prompt registers its prompt
  blocks (and the prompt's final-position output) under the prompt's
  content fingerprint, its rows read from the owner's extent; later
  requests submitted with the *same* prompt attach to those blocks, copy
  the rows once and skip prefill entirely (``prefix_hits``); the first
  append into the shared partial block takes a private block id for it
  (``cow_copies``).  The entry outlives its owner, with its own copy of
  the rows, only if it was attached to or the prompt recurs;
* **decode**: every engine step advances every resident by one token —
  one ``forward_steps`` call on the ``(residents, 1, hidden)`` stack of
  their feeds, so each projection, LayerNorm and GELU runs once per step
  and only attention runs per resident (``stats()["stacking"]``) —
  the newest output feeds back as the next input (this substrate has no
  vocabulary, so "the generated token" is the hidden-state row itself);
  a resident that reaches ``new_tokens`` leaves its step with a
  :class:`~repro.serving.continuous.CompletionRecord`, frees its KV
  blocks, returns its rung slot and releases its KV-budget reservation.
  A resident is never preempted: it keeps its slot and blocks until it
  completes or fails, and queued work of any class waits for a free slot
  and for its whole KV footprint.

Bit-exactness is inherited, not re-proven.  The causal forward of a
sequence is *defined* as per-position true-shape execution:
``encoder.forward_step`` over a fresh reference KV store, which
:func:`decode_reference` recomputes from scratch at every step.
``forward_step`` against the paged cache runs the very same operations at
the very same shapes (the cache only skips recomputing values
recomputation would reproduce identically), and slab ``i`` of
``forward_steps`` is ``forward_step`` on slab ``i`` by the slab-exactness
of every token-wise operator (stacked along the slab axis, never the
column axis).  So cached decoding is bit-for-bit the per-step full
recompute, at every step, under any arrival interleaving, step cadence
and bucket policy — the golden matrix in ``tests/serving/test_decoder.py``
pins the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from .batcher import BucketKey, Request
from .config import ServingConfig
from .continuous import CompletionRecord
from .engine import EngineCore
from .faults import OUTCOME_FAILED, OUTCOME_OK
from ..kernels.dispatch import BackendExecutionError, KernelDispatcher
from ..models.kv_cache import KVCacheExhausted, PagedKVCache, prompt_fingerprint
from ..models.transformer import TransformerEncoder

__all__ = ["DecodeRequest", "DecoderServingEngine", "decode_reference"]


@dataclass(frozen=True)
class DecodeRequest:
    """One decode job: a prompt and how many positions to generate.

    ``prompt`` is the ``(prompt_tokens, hidden)`` activation sequence that
    seeds the decode (prompt_tokens >= 1); ``new_tokens`` is how many
    further positions to generate autoregressively.  The result delivered
    for the request has shape ``(new_tokens, hidden)``.
    """

    request_id: str
    prompt: np.ndarray
    new_tokens: int
    arrival_us: float = 0.0
    deadline_us: Optional[float] = None
    priority_class: int = 0

    def __post_init__(self) -> None:
        prompt = np.asarray(self.prompt, dtype=np.float32)
        if prompt.ndim != 2 or prompt.shape[0] == 0:
            raise ValueError(
                f"prompt must be (tokens >= 1, hidden), got {np.shape(self.prompt)}"
            )
        if self.new_tokens < 1:
            raise ValueError(f"new_tokens must be >= 1, got {self.new_tokens}")
        object.__setattr__(self, "prompt", prompt)

    def as_request(self) -> Request:
        """The scheduler-facing request: the prompt is what gets bucketed,
        and the decode length rides along for the KV footprint."""
        return _DecodeJob(
            request_id=self.request_id,
            activations=self.prompt,
            arrival_us=self.arrival_us,
            deadline_us=self.deadline_us,
            priority_class=self.priority_class,
            new_tokens=self.new_tokens,
        )


@dataclass(frozen=True)
class _DecodeJob(Request):
    """A queued decode: the prompt as a :class:`Request`, plus how many
    positions it generates, so the length lives and dies with the request."""

    new_tokens: int = field(kw_only=True)


def decode_reference(
    encoder: TransformerEncoder, prompt: np.ndarray, new_tokens: int
) -> np.ndarray:
    """Cache-free decoding: full causal recompute of the sequence every step.

    The reference sibling of :class:`DecoderServingEngine`'s cached path
    (and the slow side of the decoder bench): step ``i`` re-runs the whole
    sequence so far — prompt plus every generated row — position by
    position through ``encoder.forward_step`` over a fresh
    ``encoder.new_sequence_kv()``, and takes the final position's output as
    the next generated row.  Returns the ``(new_tokens, hidden)`` stack of
    generated rows, bit-for-bit what the KV-cached engine delivers.
    """
    prompt = np.asarray(prompt, dtype=np.float32)
    if prompt.ndim != 2 or prompt.shape[0] == 0:
        raise ValueError(f"prompt must be (tokens >= 1, hidden), got {prompt.shape}")
    if new_tokens < 1:
        raise ValueError(f"new_tokens must be >= 1, got {new_tokens}")

    def last_row(xs: np.ndarray) -> np.ndarray:
        kv = encoder.new_sequence_kv()
        for x in xs:
            out = encoder.forward_step(x[None], kv)
        return out[0]

    xs = prompt
    feed = last_row(xs)
    generated: List[np.ndarray] = []
    for _ in range(new_tokens):
        xs = np.concatenate([xs, feed[None]], axis=0)
        feed = last_row(xs)
        generated.append(feed)
    return np.stack(generated)


@dataclass
class _Resident:
    """One in-flight decode: rung slot held, KV sequence live."""

    request: _DecodeJob
    key: BucketKey
    #: The next step's input row, ``(1, hidden)`` — the prompt's final
    #: output after prefill, then each step's own output.
    feed: np.ndarray
    #: The sequence's paged-cache handle (``extend``/``view``).
    handle: object
    generated: List[np.ndarray] = field(default_factory=list)


class DecoderServingEngine(EngineCore):
    """Continuous-batching decode server over one shared paged KV cache.

    Drive it like the other continuous engines — ``submit`` between steps,
    ``step(now_us)`` in a loop, or :meth:`serve_continuous` /
    :meth:`serve` to replay a whole request set — but submissions are
    :class:`DecodeRequest`\\ s and a request spans many steps:

    * a ``step`` first admits newly schedulable prompts (at most one
      micro-batch, exactly the single-step policy), prefilling each into
      the paged cache (or attaching to a registered prefix — see below)
      and pinning its rung slot;
    * then every *previously admitted* resident advances by one token;
      residents that reach their ``new_tokens`` complete, free their KV
      blocks and return their slot and KV-budget reservation.  The step
      returns the completed requests' ``(new_tokens, hidden)`` outputs.
      Only completion or failure ends a residency: the scheduler's
      policy decides which queued prompt gets the next free slot, never
      which resident leaves.

    Prefix sharing: requests submitted with a byte-identical prompt share
    the prompt's cache blocks.  The first registers them (plus the
    prompt's final-position output) under the prompt's fingerprint; later
    ones attach, copy the prompt's rows once and skip prefill entirely;
    their divergent decode tails never meet.  A prompt nobody attached to
    and seen for the first time is dropped when its request ends, so
    unique prompts hold no cache memory past their requests.  Because cached decode equals full
    recompute bit for bit, sharers' outputs are unchanged by the sharing —
    only ``cache_stats()['prefix_hits']`` tells them apart.

    A backend failure mid-prefill or mid-decode fails only that request
    (``outcomes`` records it; its blocks, slot and budget return
    immediately); batchmates advance undisturbed, bits intact, because
    residents never share mutable state — each owns its rows.

    Parameters
    ----------
    encoder:
        The model decoded with.  Its projections are re-routed through
        this engine's dispatcher.
    config:
        A :class:`~repro.serving.config.ServingConfig` holding the shared
        :class:`~repro.models.kv_cache.PagedKVCache` geometry
        (``block_size`` / ``capacity_blocks``), the batcher and its
        admission control and warming knobs; the defaults apply
        without one.  A request's KV footprint is ``ceil((prompt +
        new_tokens) / block_size)`` blocks (the config's decoder batcher
        reads it off the queued job), reserved against
        ``kv_budget_blocks`` (default: the whole cache) when it is
        scheduled: a request that does not fit waits for blocks to return,
        and one whose footprint exceeds the budget fails at submit.
    """

    def __init__(
        self,
        encoder: TransformerEncoder,
        dispatcher: Optional[KernelDispatcher] = None,
        config: Optional[ServingConfig] = None,
    ) -> None:
        if not isinstance(encoder, TransformerEncoder):
            raise TypeError("encoder must be a TransformerEncoder")
        super().__init__("decoder", "decoder-serving", config, dispatcher)
        self.encoder = encoder
        self.hidden_size = encoder.config.hidden_size
        encoder.set_dispatcher(self.dispatcher)
        self.kv = PagedKVCache(
            num_layers=len(encoder.layers),
            num_heads=encoder.config.num_heads,
            head_dim=encoder.config.head_dim,
            block_size=self.config.block_size,
            capacity_blocks=self.config.capacity_blocks,
        )
        #: ``_residents`` (from the core) holds the in-flight decodes, in
        #: admission order — the advance order.
        self.total_decode_steps = 0
        self.prefills = 0
        self.prefills_skipped = 0
        #: What ran as a slab stack: decode steps and the slabs (residents)
        #: in them, prompt positions prefilled layer-major, and decode steps
        #: that rolled back to the per-resident loop after a stack raised.
        self.stacking = dict.fromkeys(
            ("stacked_steps", "stacked_slabs", "prefill_slabs", "fallback_steps"), 0
        )
        if self.config.warm:
            self.dispatcher.warm_many(
                [lin.operand for _, lin in encoder.named_linear_layers()], cs=(1,)
            )

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def submit(self, request: DecodeRequest) -> Optional[BucketKey]:
        """Queue one decode job; returns its rung (``None`` when shed)."""
        if not isinstance(request, DecodeRequest):
            raise TypeError("submit expects a DecodeRequest")
        rid = request.request_id
        # The batcher forgets an id once it is popped, so it cannot see a
        # resident; checked before any state changes.
        if rid in self._residents or self.batcher.is_queued(rid):
            raise ValueError(
                f"{self.name}: duplicate request_id {rid!r}: the engine still holds "
                f"a request with that id (queued or decoding)"
            )
        return super().submit(request.as_request())

    # ------------------------------------------------------------------
    # The multi-step loop
    # ------------------------------------------------------------------
    def _run_step(self, now_us: float) -> Dict[str, np.ndarray]:
        """Admit at most one micro-batch, then advance every resident.

        Newly admitted requests prefill this step and start decoding on
        the *next* one (prefill writes their prompt positions; decode
        appends generated positions).  Returns the requests completed at
        this step: ``{request_id: (new_tokens, hidden)}``.
        """
        step_index = self.steps_executed
        batch = self.batcher.next_batch(now_us)
        unsettled = list(batch.requests) if batch is not None else []
        newly: List[_Resident] = []
        try:
            while unsettled:
                resident = self._admit_resident(unsettled[0], batch.key, now_us)
                unsettled.pop(0)
                if resident is not None:
                    newly.append(resident)
            results = self._advance_residents(now_us, step_index)
        except Exception as exc:
            # A non-backend error escapes the step, but no popped request
            # vanishes: the one it hit and those after hold a reservation only.
            for req in unsettled:
                self.batcher.release_kv(req.request_id)
                self._record_outcome(
                    req.request_id, OUTCOME_FAILED, f"{type(exc).__name__}: {exc}", now_us
                )
            raise
        finally:
            for resident in newly:
                self._residents[resident.request.request_id] = resident
        if batch is not None and step_index == self.steps_executed:
            # _advance_residents counts itself; an admission-only step
            # (prefill, nothing yet decoding) is still executed work.
            self.steps_executed += 1
        return results

    def _admit_resident(
        self, req: Request, key: BucketKey, now_us: float
    ) -> Optional[_Resident]:
        """Prefill (or prefix-attach) one popped request; pin its rung slot.

        Any error frees the sequence created here.  A backend failure or KV
        exhaustion then fails the request alone (``None``); any other error
        propagates, and :meth:`_run_step` settles the request.
        """
        rid = req.request_id
        if not isinstance(req, _DecodeJob):
            raise ValueError(
                f"{self.name}: request {rid!r} was queued without a decode length; "
                f"submit DecodeRequests through DecoderServingEngine.submit()"
            )
        fingerprint = prompt_fingerprint(req.activations)
        # Sized once for the whole sequence, the footprint the batcher charges.
        handle = self.kv.create(rid, tokens=req.tokens + req.new_tokens)
        try:
            entry = self.kv.attach_prefix(fingerprint, rid)
            if entry is not None:
                # Shared prompt: blocks attached, prefill skipped outright;
                # decoding seeds from the registered final-position output.
                feed = np.array(entry.last_output, dtype=np.float32, copy=True)
                self.prefills_skipped += 1
            else:
                # Layer-major prefill: the prompt's positions are the slabs
                # of one stack against one cache.  Copied, so the resident's
                # feed does not pin the whole (tokens, 1, hidden) output.
                feed = self.encoder.forward_steps(
                    req.activations[:, None, :], [handle] * req.tokens
                )[-1].copy()
                self.kv.register_prefix(fingerprint, rid, feed)
                self.prefills += 1
                self.stacking["prefill_slabs"] += req.tokens
        except Exception as exc:
            self.kv.free(rid)
            if not isinstance(exc, (BackendExecutionError, KVCacheExhausted)):
                raise
            self.batcher.release_kv(rid)
            self._record_outcome(rid, OUTCOME_FAILED, str(exc), now_us)
            return None
        self.batcher.acquire_slot(key, req)
        self.total_requests += 1
        return _Resident(request=req, key=key, feed=feed, handle=handle)

    def _advance_residents(self, now_us: float, step_index: int) -> Dict[str, np.ndarray]:
        """One decode token for every resident; returns the completions.

        The feeds run as one ``(residents, 1, hidden)`` slab stack through
        ``forward_steps`` (a lone resident too: a one-slab stack) and the
        rows scatter back as copies, not views that pin the stack.  Any
        error the stack raises rolls every sequence back to its pre-step
        length; any but a backend failure or KV exhaustion then propagates.
        Those two do not say *whose* they are, so the step re-runs resident
        by resident through ``forward_step``,
        where the error fails exactly the request that hits it — in
        admission order, so a resident retiring earlier in the step still
        frees its blocks for the ones after it.
        """
        if not self._residents:
            return {}
        advancing = list(self._residents.values())
        batch_size = len(advancing)
        results: Dict[str, np.ndarray] = {}
        lengths = [resident.handle.length for resident in advancing]
        try:
            outs = self.encoder.forward_steps(
                np.stack([resident.feed for resident in advancing]),
                [resident.handle for resident in advancing],
            )
            self.stacking["stacked_steps"] += 1
            self.stacking["stacked_slabs"] += batch_size
        except Exception as exc:
            for resident, length in zip(advancing, lengths):
                resident.handle.truncate(length)
            if not isinstance(exc, (BackendExecutionError, KVCacheExhausted)):
                raise
            outs = None
            self.stacking["fallback_steps"] += 1
        for i, resident in enumerate(advancing):
            rid = resident.request.request_id
            if outs is not None:
                out = outs[i].copy()
            else:
                try:
                    out = self.encoder.forward_step(resident.feed, resident.handle)
                except (BackendExecutionError, KVCacheExhausted) as exc:
                    self._retire(resident, OUTCOME_FAILED, str(exc), now_us)
                    continue
            resident.feed = out
            resident.generated.append(out[0])
            self.total_decode_steps += 1
            if len(resident.generated) == resident.request.new_tokens:
                results[rid] = np.stack(resident.generated)
                self._retire(resident, OUTCOME_OK, "", now_us)
                self.completions[rid] = CompletionRecord(
                    request_id=rid,
                    step=step_index,
                    completed_us=float(now_us),
                    rung=resident.key.token_bucket,
                    batch_size=batch_size,
                    arrival_us=resident.request.arrival_us,
                )
        self.steps_executed += 1
        return results

    def _retire(
        self, resident: _Resident, status: str, detail: str, now_us: float
    ) -> None:
        """Tear one resident down: blocks, rung slot, budget, outcome."""
        rid = resident.request.request_id
        del self._residents[rid]
        self.kv.free(rid)
        self.batcher.release_slot(resident.key, rid)
        self.batcher.release_kv(rid)
        self._record_outcome(rid, status, detail, now_us)

    # ------------------------------------------------------------------
    # Replay drivers
    # ------------------------------------------------------------------
    def serve(self, requests: Iterable[DecodeRequest]) -> Dict[str, np.ndarray]:
        """Convenience: replay a whole window at the config's step cadence
        (back to back by default).  The replay loop is the core's
        ``serve_continuous``; it keeps stepping while residents decode."""
        return self.serve_continuous(requests)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """The shared paged cache's block-table accounting."""
        return self.kv.cache_stats()

    def stats(self) -> Dict[str, object]:
        """Counters, normalized admission/continuous schemas, cache accounting."""
        return {
            "requests": self.total_requests,
            "decode_steps": self.total_decode_steps,
            "prefills": self.prefills,
            "prefills_skipped": self.prefills_skipped,
            "residents": len(self._residents),
            # Nothing preempts; the key stays while bench/ reads it (ROADMAP 2(a0)).
            "preemptions": 0,
            "stacking": dict(self.stacking),
            **self._shared_stats(),
            "cache": self.cache_stats(),
        }

"""The two decode workloads, both closed loop with eight clients.

``dec_prefill`` sends unique long prompts and asks for few tokens, so nearly
every forward step is prefill and the prefix registry fills until LRU
eviction runs.  ``dec_shared`` draws Zipf from four byte-identical prompts
and asks for many tokens; the four prefills are paid in set-up, so every
timed request skips prefill and the time goes to the decode loop, KV gather
and copy-on-write.  An
optimisation of one path predicts *no change* on the other workload.

TTFT and TPOT are read from the outside: a request is admitted on the step
where ``batcher.is_queued(id)`` turns false without a terminal outcome, and
from then on it gains exactly one token per ``step()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serving import DecodeRequest, ServingConfig, create_engine, decode_reference

from . import layers
from .common import LIMITS_MS, Samples, TracedRun, Workload, activations, build_encoder, flops_per_token, modelled_speedup
from .instrument import instrument_decoder_engine
from .trace import Tracer

CLIENTS = 8
VERIFY_SAMPLE = 32
KV_CONFIG = dict(block_size=16, capacity_blocks=512, kv_budget_blocks=512)


@dataclass
class _Flight:
    """One request the driver is waiting on."""

    request: DecodeRequest
    client: int
    submitted: float
    admitted_step: int = -1
    first_token: float = 0.0
    last_token: float = 0.0
    tokens: int = 0


def reference_rows(encoder, prompt: np.ndarray, new_tokens: int) -> np.ndarray:
    """Cache-free oracle in O(n): the per-position forward over the
    *reference* KV store, which ``decode_reference`` is defined to equal."""
    kv = encoder.new_sequence_kv()
    for t in range(prompt.shape[0]):
        feed = encoder.forward_step(prompt[t][None], kv)
    rows = []
    for _ in range(new_tokens):
        feed = encoder.forward_step(feed, kv)
        rows.append(feed[0].copy())
    return np.stack(rows)


class _DecodeWorkload(Workload):
    """The closed-loop decode driver both workloads share."""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.verify_sample = 8 if smoke else VERIFY_SAMPLE
        self.verify_rng = np.random.default_rng([seed, 12])
        self.next_request = 0
        #: ``{sequence id: prompt tokens}`` for the tracer's prefill/decode split.
        self.prompt_lengths: Dict[str, int] = {}
        self.finished: List[Tuple[DecodeRequest, np.ndarray]] = []
        self.residency: List[Tuple[int, int, int]] = []

    # -- inputs (subclasses) -------------------------------------------
    def make_request(self, index: int) -> DecodeRequest:
        raise NotImplementedError

    def warm_requests(self) -> List[DecodeRequest]:
        raise NotImplementedError

    # -- system ----------------------------------------------------------
    def setup(self) -> None:
        self.encoder = build_encoder()
        self.engine = create_engine(
            self.encoder, kind="decoder", config=ServingConfig(name=self.name, **KV_CONFIG)
        )
        self.flops_per_token = flops_per_token(self.encoder)

    def warm_up(self) -> None:
        self.engine.serve(self.warm_requests())

    def instrument(self, tracer: Tracer) -> None:
        instrument_decoder_engine(tracer, self.engine, self.prompt_lengths)

    # -- the timed loop --------------------------------------------------
    def run(self, seconds: float, tracer: Optional[Tracer] = None) -> Samples:
        samples = Samples()
        limits = LIMITS_MS[self.name]
        engine, batcher = self.engine, self.engine.batcher
        stats_before = engine.stats()
        idle = list(range(CLIENTS))
        flights: Dict[str, _Flight] = {}
        prompt_tokens = 0
        step_index = 0
        started = perf_counter()

        def settle(flight: _Flight, ok: bool) -> None:
            del flights[flight.request.request_id]
            idle.append(flight.client)
            if not ok:
                samples.failed += 1

        while True:
            accepting = perf_counter() - started < seconds
            while accepting and idle:
                request = self.make_request(self.next_request)
                self.next_request += 1
                self.prompt_lengths[request.request_id] = request.prompt.shape[0]
                samples.attempted += 1
                flight = _Flight(request, idle.pop(), perf_counter())
                flights[request.request_id] = flight
                try:
                    if engine.submit(request) is None:  # shed at admission
                        settle(flight, ok=False)
                except Exception as exc:  # noqa: BLE001 - one refused operation
                    samples.note_error(exc)
                    settle(flight, ok=False)
            if not flights:
                break
            if tracer is not None:
                tracer.tag = step_index
            try:
                out = engine.step((perf_counter() - started) * 1e6)
            except Exception as exc:  # noqa: BLE001 - e.g. "KV cache exhausted" (ROADMAP item 4)
                # The engine leaves its residents wedged after this, so every
                # request in flight is lost; count them and stop the phase.
                samples.note_error(exc)
                for flight in list(flights.values()):
                    settle(flight, ok=False)
                break
            returned = perf_counter()
            residents = 0
            for rid, flight in list(flights.items()):
                if flight.admitted_step < 0:
                    if batcher.is_queued(rid):
                        continue
                    outcome = engine.outcomes.get(rid)
                    if outcome is not None and outcome.status != "ok":
                        settle(flight, ok=False)
                        continue
                    flight.admitted_step = step_index
                    prompt_tokens += flight.request.prompt.shape[0]
                    continue
                residents += 1
                flight.tokens += 1
                if flight.tokens == 1:
                    flight.first_token = returned
                    samples.ttft_ms.append((returned - flight.submitted) * 1e3)
                else:
                    samples.tpot_ms.append((returned - flight.last_token) * 1e3)
                flight.last_token = returned
                rows = out.get(rid)
                if rows is not None:
                    samples.latency_ms.append((returned - flight.submitted) * 1e3)
                    samples.tokens += rows.shape[0]
                    # Goodput holds a request to its TTFT and to its *mean*
                    # inter-token gap (the per-request TPOT of vLLM's goodput).
                    ttft_ms = (flight.first_token - flight.submitted) * 1e3
                    mean_gap_ms = (returned - flight.first_token) * 1e3 / max(flight.tokens - 1, 1)
                    samples.good += ttft_ms <= limits["ttft"] and mean_gap_ms <= limits["tpot"]
                    self.finished.append((flight.request, rows))
                    settle(flight, ok=True)
                elif rid in engine.outcomes:  # retired without output: failed mid-decode
                    settle(flight, ok=False)
            if tracer is not None:
                self.residency.append((residents, batcher.kv_reserved, engine.kv.blocks_in_use))
            step_index += 1
        samples.wall_s = perf_counter() - started
        stats = engine.stats()
        prefills = stats["prefills"] - stats_before["prefills"]
        skipped = stats["prefills_skipped"] - stats_before["prefills_skipped"]
        # Prompts that hit the prefix registry ran no prefill steps; both
        # workloads make the split exact (all-unique, or all-equal lengths).
        prefill_steps = prompt_tokens * prefills / max(prefills + skipped, 1)
        decode_steps = stats["decode_steps"] - stats_before["decode_steps"]
        samples.flops = (prefill_steps + decode_steps) * self.flops_per_token
        return samples

    # -- checks ------------------------------------------------------------
    def verify(self) -> Tuple[int, int]:
        raise NotImplementedError

    def modelled_speedup(self) -> float:
        operands = [lin.operand for _, lin in self.encoder.named_sparse_layers()]
        return modelled_speedup(self.engine.dispatcher, operands, [1])

    def counters(self) -> Dict[str, object]:
        stats = self.engine.stats()
        return {
            "engine": stats,
            "dispatch_cache": self.engine.dispatcher.cache_stats(),
            "dispatch_health": stats["dispatch_health"],
        }

    def layer_metrics(self, run: TracedRun) -> Dict[str, float]:
        return layers.decoder_metrics(self, run)


class DecPrefill(_DecodeWorkload):
    """Unique prompts of 48-96 tokens, 3-5 (mean 4) new tokens each."""

    name = "dec_prefill"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        # Every run of 49 requests uses each length 48..96 once and every
        # run of 3 each decode length 3..5 once (seeded orders), so the
        # offered load does not depend on the seed.  Short, unequal decode
        # lengths keep the eight clients out of lock-step and put a prefill
        # in nearly every step (about 1.6 requests finish per step): the
        # inter-token gap is then one population, prefill beside decode,
        # not a mix of two whose median would sit on the gap between them.
        rng = np.random.default_rng([seed, 9])
        self.lengths = rng.permutation(np.arange(48, 97))
        self.decode_lengths = rng.permutation(np.arange(3, 6))

    def make_request(self, index: int) -> DecodeRequest:
        rng = np.random.default_rng([self.seed, 10, index])
        prompt = activations(rng, self.lengths[index % len(self.lengths)])
        new_tokens = int(self.decode_lengths[index % len(self.decode_lengths)])
        return DecodeRequest(f"pf-{index:05d}", prompt, new_tokens)

    def warm_requests(self) -> List[DecodeRequest]:
        rng = np.random.default_rng([self.seed, 11])
        return [
            DecodeRequest(f"warm-{i}", activations(rng, tokens), 2)
            for i, tokens in enumerate((48, 96))
        ]

    def verify(self) -> Tuple[int, int]:
        count = min(self.verify_sample, len(self.finished))
        picks = self.verify_rng.choice(len(self.finished), size=count, replace=False)
        bad = 0
        for j, i in enumerate(picks):
            request, rows = self.finished[int(i)]
            want = reference_rows(self.encoder, request.prompt, request.new_tokens)
            if j == 0:
                # One full-recompute oracle per run; the O(n) one above is
                # defined to equal it and is what makes 32 checks affordable.
                head = decode_reference(self.encoder, request.prompt, 1)
                bad += not np.array_equal(head, rows[:1])
            bad += not np.array_equal(want, rows)
        self.finished = []
        return count, bad


class DecShared(_DecodeWorkload):
    """Zipf over four byte-identical 120-token prompts, 56-72 (mean 64) new tokens each."""

    name = "dec_shared"
    PROMPTS = 4
    PROMPT_TOKENS = 120  # 7.5 blocks of 16: the tail block is partial, so sharers copy-on-write

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        rng = np.random.default_rng([seed, 20])
        self.prompts = [activations(rng, self.PROMPT_TOKENS) for _ in range(self.PROMPTS)]
        weights = 1.0 / np.arange(1, self.PROMPTS + 1)
        self.choices = rng.choice(self.PROMPTS, size=4096, p=weights / weights.sum())
        # Unequal decode lengths (each of 56..72 once per 17 requests) keep
        # the clients out of lock-step, so every request is its own TTFT
        # sample instead of eight sharing one cohort's.
        self.decode_lengths = rng.permutation(np.arange(56, 73))

    def make_request(self, index: int) -> DecodeRequest:
        prompt = self.prompts[int(self.choices[index % len(self.choices)])]
        new_tokens = int(self.decode_lengths[index % len(self.decode_lengths)])
        return DecodeRequest(f"sh-{index:05d}", prompt, new_tokens)

    def warm_requests(self) -> List[DecodeRequest]:
        # Every timed prompt once, the first one twice: set-up pays the four
        # prefills and the first copy-on-write, so the timed phase is
        # decode-only and its TTFT tail is not a cold-start artefact.
        order = list(range(self.PROMPTS)) + [0]
        return [DecodeRequest(f"warm-{i}", self.prompts[p], 2) for i, p in enumerate(order)]

    def verify(self) -> Tuple[int, int]:
        # One oracle per prompt at the longest decode; shorter requests of
        # the same prompt must equal its leading rows.
        longest = int(self.decode_lengths.max())
        wants = [reference_rows(self.encoder, p, longest) for p in self.prompts]
        head = decode_reference(self.encoder, self.prompts[0], 1)
        bad = int(not np.array_equal(head, wants[0][:1]))
        for request, rows in self.finished:
            which = next(i for i, p in enumerate(self.prompts) if p is request.prompt)
            bad += not np.array_equal(wants[which][: request.new_tokens], rows)
        count = len(self.finished)
        self.finished = []
        return count, bad

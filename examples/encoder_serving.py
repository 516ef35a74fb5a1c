#!/usr/bin/env python3
"""Quickstart: end-to-end encoder serving on the BERT-large configuration.

The longer tour after ``examples/serving_throughput.py`` (one layer at
16:2:8): the whole transformer encoder is the served unit.  The
walk-through:

1. instantiate a BERT-large-configured encoder (two of the 24 layers, the
   same trick the paper uses to fit the GPT-3 study on one GPU) and
   sparsify **every** projection to the paper's flagship 64:2:8 pattern,
2. stand up a :class:`~repro.serving.model_engine.ModelServingEngine` — an
   engine-scoped kernel dispatcher is injected into all twelve sparse
   projections, and one warmed SpMM plan per projection is shared across
   every request the engine will ever serve,
3. serve a window of ragged requests through exact-length dynamic batching
   and verify batched == sequential ``encoder.forward``, bit for bit,
4. replay the same traffic through the step loop with a 500 us hold
   (``ServingConfig(scheduling="async", window_us=500.0)``: a bucket waits
   for company until its oldest request has waited the window) — same bits,
5. re-serve the same ragged window in padded-bucket mode
   (``padding="ladder"``): lengths round up a powers-of-two ladder, each
   still run at its true shape, consolidating the near-empty exact-length
   buckets into a few full ones at — again — the same bits,
6. serve the same traffic **continuously**
   (:class:`~repro.serving.continuous.ContinuousBatcher` +
   ``serve_continuous``): no windows at all — requests join open ladder
   rungs between engine steps and leave as they complete, with
   deterministic per-request completion metadata and, once more, the same
   bits, and
7. sweep exact vs padded bucketing x held (async) vs continuous
   scheduling on the modelled GPU for the capacity view: the simulator
   replays the encoder just served.

Run with::

    PYTHONPATH=src python examples/encoder_serving.py
"""

from __future__ import annotations

import numpy as np

from repro.evaluation.reporting import format_table
from repro.integration import VNMSparsifier, sparsify_encoder
from repro.models import BERT_LARGE, TransformerEncoder
from repro.serving import (
    ModelServingEngine,
    Request,
    ServingConfig,
    SimulatedRequest,
    simulate,
)


def main() -> None:
    rng = np.random.default_rng(0)

    # ------------------------------------------------------------------
    # 1. A BERT-large-configured encoder, fully sparsified to 64:2:8.
    # ------------------------------------------------------------------
    num_layers = 2
    encoder = TransformerEncoder.init(BERT_LARGE, num_layers=num_layers, seed=0)
    replaced = sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=64))
    print(
        f"model: {BERT_LARGE.name} (hidden {BERT_LARGE.hidden_size}, "
        f"FFN {BERT_LARGE.intermediate_size}), {num_layers} of "
        f"{BERT_LARGE.num_layers} layers instantiated"
    )
    print(f"sparsified {len(replaced)} projections to 64:2:8 (75% sparsity)")

    # ------------------------------------------------------------------
    # 2. The model serving engine: engine-scoped dispatcher + plan registry.
    # ------------------------------------------------------------------
    lengths = [9, 17, 17, 17, 33, 33, 64, 64, 64, 17]
    engine = ModelServingEngine(
        encoder,
        config=ServingConfig(warm_buckets=sorted(set(lengths)), name="bert-large-server"),
    )
    print(
        f"warmed {len(engine.plans)} SpMM plans, "
        f"{engine.dispatcher.cache_size()} dispatch signatures pre-ranked"
    )

    # ------------------------------------------------------------------
    # 3. Serve a ragged window; prove batched == sequential, bit for bit.
    # ------------------------------------------------------------------
    requests = [
        Request(f"req-{i:03d}", rng.normal(size=(t, BERT_LARGE.hidden_size)).astype(np.float32))
        for i, t in enumerate(lengths)
    ]
    batched = engine.serve(requests)
    identical = all(
        np.array_equal(batched[r.request_id], encoder.forward(r.activations[None])[0])
        for r in requests
    )
    stats = engine.stats()
    print(
        f"\nserved {stats['requests']} ragged requests in {stats['batches']} batched "
        f"encoder forwards (mean batch {stats['mean_batch_size']:.1f})"
    )
    print(f"batched == per-request encoder.forward, bit for bit: {identical}")
    print(
        f"plan cache: {stats['plan_cache']['hits']} hits / "
        f"{stats['plan_cache']['misses']} misses across "
        f"{stats['plan_cache']['size']} projection plans"
    )
    per_layer = sorted(stats["per_layer_time_us"].items(), key=lambda kv: -kv[1])[:4]
    print("modelled per-layer hotspots (us):")
    for name, time_us in per_layer:
        print(f"  {name:44s} {time_us:10.1f}")

    # ------------------------------------------------------------------
    # 4. A hold on the step loop: timing changes, bits do not.
    # ------------------------------------------------------------------
    async_encoder = TransformerEncoder.init(BERT_LARGE, num_layers=num_layers, seed=0)
    sparsify_encoder(async_encoder, VNMSparsifier(n=2, m=8, v=64))
    async_engine = ModelServingEngine(
        async_encoder,
        config=ServingConfig(
            scheduling="async",
            window_us=500.0,
            warm_buckets=sorted(set(lengths)),
            name="bert-large-async",
        ),
    )
    timed = [
        Request(r.request_id, r.activations, arrival_us=i * 120.0)
        for i, r in enumerate(requests)
    ]
    async_results = async_engine.serve_continuous(timed)
    async_identical = all(
        np.array_equal(async_results[r.request_id], batched[r.request_id]) for r in requests
    )
    print(
        f"\nheld buckets (500 us window): {async_engine.total_batches} batches, "
        f"outputs bit-identical to the one-window serve: {async_identical}"
    )

    # ------------------------------------------------------------------
    # 5. Padded-bucket serving: ragged lengths share ladder rungs, each
    #    run at its true shape — fuller buckets, identical bits.
    # ------------------------------------------------------------------
    padded_encoder = TransformerEncoder.init(BERT_LARGE, num_layers=num_layers, seed=0)
    sparsify_encoder(padded_encoder, VNMSparsifier(n=2, m=8, v=64))
    padded_engine = ModelServingEngine(
        padded_encoder, config=ServingConfig(padding="ladder", name="bert-large-padded")
    )
    padded_results = padded_engine.serve(requests)
    padded_identical = all(
        np.array_equal(padded_results[r.request_id], batched[r.request_id])
        for r in requests
    )
    padded_stats = padded_engine.stats()
    print(
        f"\npadded ladder: the same {padded_stats['requests']} ragged requests close in "
        f"{padded_stats['batches']} padded buckets (exact-length needed {stats['batches']}), "
        f"bucket fill {padded_stats['padding']['fill']:.2f}"
    )
    print(f"padded outputs bit-identical to exact-length serving: {padded_identical}")

    # ------------------------------------------------------------------
    # 6. Continuous batching: no windows — requests join open rungs
    #    between engine steps, completions stream out deterministically.
    # ------------------------------------------------------------------
    cont_encoder = TransformerEncoder.init(BERT_LARGE, num_layers=num_layers, seed=0)
    sparsify_encoder(cont_encoder, VNMSparsifier(n=2, m=8, v=64))
    cont_engine = ModelServingEngine(
        cont_encoder,
        config=ServingConfig(padding="ladder", step_us=100.0, name="bert-large-continuous"),
    )
    cont_results = cont_engine.serve_continuous(timed)
    cont_identical = all(
        np.array_equal(cont_results[r.request_id], batched[r.request_id])
        for r in requests
    )
    print(
        f"\ncontinuous: {cont_engine.steps_executed} engine steps served "
        f"{len(cont_engine.completions)} requests (no window waits), "
        f"outputs bit-identical to the one-window serve: {cont_identical}"
    )
    sample = cont_engine.completions[requests[-1].request_id]
    print(
        f"completion metadata (deterministic), e.g. {sample.request_id}: "
        f"step {sample.step}, rung {sample.rung}, batch of {sample.batch_size}, "
        f"waited {sample.wait_us:.0f} us"
    )

    # ------------------------------------------------------------------
    # 7. Exact vs padded bucketing x held (async) vs continuous
    #    scheduling on the modelled GPU: the simulator replays the encoder
    #    just served, call for call, on the engine's warm dispatcher.
    # ------------------------------------------------------------------
    sim_requests = [
        SimulatedRequest(f"sim-{i:05d}", tokens=lengths[i % len(lengths)], arrival_us=i * 40.0)
        for i in range(256)
    ]
    windows = [200.0, 1000.0, 5000.0]
    rows = []
    for bucketing in ("exact", "ladder"):
        for policy in ("async", "continuous"):
            for report in (
                simulate(
                    encoder,
                    sim_requests,
                    ServingConfig(scheduling=policy, padding=bucketing, window_us=w),
                    dispatcher=engine.dispatcher,
                )
                for w in windows
            ):
                s = report.summary()
                rows.append(
                    [
                        bucketing,
                        policy,
                        f"{report.config.window_us:.0f} us",
                        s["batches"],
                        s["mean_batch_size"],
                        s["throughput_rps"],
                        s["p95_latency_us"],
                        s["p99_latency_us"],
                    ]
                )
    print()
    print(
        format_table(
            [
                "bucketing", "policy", "window", "micro-batches", "mean batch",
                "req/s", "p95 lat (us)", "p99 lat (us)",
            ],
            rows,
            title="Bucketing x scheduling policy (RTX 3090 model; continuous ignores the window)",
        )
    )


if __name__ == "__main__":
    main()

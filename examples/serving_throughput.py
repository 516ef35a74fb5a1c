#!/usr/bin/env python3
"""Quickstart: Spatha dispatch + dynamic batching on a BERT-large encoder.

This walks the serving subsystem end to end on the paper's flagship
workload shape — a BERT-large-configured encoder (hidden 1024, FFN 4096,
from :data:`repro.models.config.BERT_LARGE`), one of its 24 layers
instantiated:

1. prune every projection to V:N:M (16:2:8, 75% sparsity),
2. let the kernel dispatcher rank the FFN output projection's two
   candidates — Spatha's V:N:M plan and the dense cuBLAS fallback — with
   the tuner/perf-model estimates and pick the faster,
3. serve a window of ragged requests through the shape-bucketing dynamic
   batcher — verifying that batched execution is bit-identical to serving
   every request alone,
4. sweep the batch window (the hold: a bucket waits for company until
   its oldest request has waited the window, or its rung is full) with the
   serving simulator, which replays the same encoder on the modelled
   clock, and report the requests/s-vs-window curve on the modelled
   RTX 3090 against per-request dispatch.

Run with::

    PYTHONPATH=src python examples/serving_throughput.py

For the longer tour — two layers at 64:2:8, plan-cache reuse, held,
padded and continuous scheduling on the step loop — see
``examples/encoder_serving.py``.
"""

from __future__ import annotations

from dataclasses import replace

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
    # 1. One BERT-large layer, every projection pruned to 16:2:8 (75%).
    # ------------------------------------------------------------------
    encoder = TransformerEncoder.init(BERT_LARGE, num_layers=1, seed=0)
    replaced = sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
    hidden = BERT_LARGE.hidden_size
    print(f"model: {BERT_LARGE.name}, 1 of {BERT_LARGE.num_layers} layers, "
          f"{len(replaced)} projections at 16:2:8 (75% sparsity)")

    # ------------------------------------------------------------------
    # 2. Dispatch: rank the FFN output projection's candidates at C=128.
    # ------------------------------------------------------------------
    held = ServingConfig(scheduling="async", padding="ladder", name="bert-large-server")
    engine = ModelServingEngine(encoder, config=replace(held, window_us=0.0))
    ffn_output = dict(encoder.named_linear_layers())["encoder.layer.0.ffn.output"].operand
    decision = engine.dispatcher.dispatch(ffn_output, c=128)
    print(f"\nbackend ranking for ffn.output {ffn_output.r}x{ffn_output.k} (modelled us, bucket C=128):")
    for name, time_us in decision.ranking:
        marker = "  <- dispatched" if name == decision.backend else ""
        print(f"  {name:22s} {time_us:10.1f}{marker}")

    # ------------------------------------------------------------------
    # 3. Dynamic batching: ragged requests share a ladder rung.
    # ------------------------------------------------------------------
    token_counts = [7, 17, 17, 24, 33, 33, 61, 64, 120, 128]
    requests = [
        Request(f"req-{i:03d}", rng.normal(size=(t, hidden)).astype(np.float32))
        for i, t in enumerate(token_counts)
    ]
    batched = engine.serve(requests)
    identical = all(
        np.array_equal(batched[r.request_id], encoder.forward(r.activations[None])[0])
        for r in requests
    )
    stats = engine.stats()
    print(f"\nserved {stats['requests']} ragged requests in {stats['batches']} micro-batches "
          f"(mean batch {stats['mean_batch_size']:.1f})")
    print(f"batched == per-request encoder.forward, bit for bit: {identical}")

    # ------------------------------------------------------------------
    # 4. Requests/s vs batch window (simulated, saturating backlog).
    # ------------------------------------------------------------------
    sim_requests = [
        SimulatedRequest(f"sim-{i:05d}", tokens=token_counts[i % len(token_counts)], arrival_us=0.0)
        for i in range(512)
    ]
    # The held (async) window over the ladder, and its per-request
    # baseline: a batcher that never stacks two requests.  The engine's
    # dispatcher keeps its estimates warm across the sweep.
    dispatcher = engine.dispatcher
    per_request = simulate(
        encoder, sim_requests, replace(held, window_us=0.0, max_batch_size=1), dispatcher=dispatcher
    )
    windows = [50.0, 200.0, 1000.0, 5000.0]
    reports = [
        simulate(encoder, sim_requests, replace(held, window_us=w), dispatcher=dispatcher)
        for w in windows
    ]
    rows = []
    for report in [per_request, *reports]:
        s = report.summary()
        label = "per-request" if report is per_request else f"{report.config.window_us:.0f} us"
        rows.append([
            label,
            s["batches"],
            s["mean_batch_size"],
            s["throughput_rps"],
            s["mean_latency_us"],
            s["p95_latency_us"],
        ])
    print()
    print(format_table(
        ["batch window", "micro-batches", "mean batch", "req/s", "mean lat (us)", "p95 lat (us)"],
        rows,
        title="Simulated serving throughput, 512-request backlog (RTX 3090 model)",
    ))
    best = max(reports, key=lambda r: r.throughput_rps)
    gain = best.throughput_rps / per_request.throughput_rps
    print(f"dynamic batching gain at the best window ({best.config.window_us:.0f} us): "
          f"{gain:.1f}x requests/s over per-request dispatch")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Quickstart: multi-backend dispatch + dynamic batching on BERT-large FFN.

This walks the serving subsystem end to end on the paper's flagship
workload shape — the BERT-large FFN output projection
(``hidden x intermediate`` = 1024 x 4096, from
:data:`repro.models.config.BERT_LARGE`):

1. prune the weight to V:N:M and wrap it as a dispatchable operand,
2. let the kernel dispatcher rank the registered backends with the
   tuner/perf-model estimates and pick the fastest,
3. serve a window of ragged requests through the shape-bucketing dynamic
   batcher — verifying that batched execution is bit-identical to serving
   every request alone,
4. sweep the batch window with the serving simulator and report the
   requests/s-vs-window curve on the modelled RTX 3090.

Run with::

    PYTHONPATH=src python examples/serving_throughput.py

This is the *single-operator* view of serving (one FFN projection).  For
the model-level successor — a whole BERT-large-configured encoder served
through :class:`~repro.serving.model_engine.ModelServingEngine`, with
cross-request plan-cache reuse and async arrival-deadline windows — see
``examples/encoder_serving.py``.
"""

from __future__ import annotations

import numpy as np

from repro.evaluation.reporting import format_table
from repro.formats.vnm import VNMSparseMatrix
from repro.kernels.dispatch import KernelDispatcher, SpmmOperand
from repro.models.config import BERT_LARGE
from repro.serving import (
    Request,
    ServingConfig,
    ServingEngine,
    SimulatedRequest,
    sweep_batch_windows,
)


def main() -> None:
    rng = np.random.default_rng(0)

    # ------------------------------------------------------------------
    # 1. The BERT-large FFN output projection, pruned to 16:2:8 (75%).
    # ------------------------------------------------------------------
    hidden, intermediate = BERT_LARGE.hidden_size, BERT_LARGE.intermediate_size
    v, n, m = 16, 2, 8
    weight = rng.normal(0.0, 0.02, size=(hidden, intermediate)).astype(np.float32)
    sparse = VNMSparseMatrix.from_dense(weight, v=v, n=n, m=m, strict=False)
    operand = SpmmOperand.from_vnm(sparse, name="bert-large.ffn.output")
    bias = rng.normal(0.0, 0.01, size=hidden).astype(np.float32)
    print(f"operand: {hidden}x{intermediate} {v}:{n}:{m} "
          f"(sparsity {sparse.logical_sparsity:.2f}), formats {operand.formats}")

    # ------------------------------------------------------------------
    # 2. Dispatch: rank the backends for a typical decoding batch width.
    # ------------------------------------------------------------------
    dispatcher = KernelDispatcher()
    decision = dispatcher.dispatch(operand, c=128)
    print("\nbackend ranking (modelled us, bucket C=128):")
    for name, time_us in decision.ranking:
        marker = "  <- dispatched" if name == decision.backend else ""
        print(f"  {name:22s} {time_us:10.1f}{marker}")

    # ------------------------------------------------------------------
    # 3. Dynamic batching: ragged requests, one batched kernel per bucket.
    # ------------------------------------------------------------------
    token_counts = [7, 17, 17, 24, 33, 33, 61, 64, 120, 128]
    requests = [
        Request(f"req-{i:03d}", rng.normal(size=(t, intermediate)).astype(np.float32))
        for i, t in enumerate(token_counts)
    ]
    engine = ServingEngine(
        operand, bias=bias, dispatcher=dispatcher, config=ServingConfig(name="ffn-server")
    )
    batched = engine.serve(requests)

    solo = ServingEngine(
        operand, bias=bias, dispatcher=dispatcher, config=ServingConfig(name="ffn-solo")
    )
    sequential = {}
    for request in requests:
        sequential.update(solo.serve([request]))
    identical = all(np.array_equal(batched[r.request_id], sequential[r.request_id]) for r in requests)
    stats = engine.stats()
    print(f"\nserved {stats['requests']} ragged requests in {stats['batches']} batched kernels "
          f"(mean batch {stats['mean_batch_size']:.1f})")
    print(f"batched == sequential, bit for bit: {identical}")

    # ------------------------------------------------------------------
    # 4. Requests/s vs batch window (simulated, saturating backlog).
    # ------------------------------------------------------------------
    sim_requests = [
        SimulatedRequest(f"sim-{i:05d}", tokens=token_counts[i % len(token_counts)], arrival_us=0.0)
        for i in range(512)
    ]
    windows = [0.0, 50.0, 200.0, 1000.0, 5000.0]
    reports = sweep_batch_windows(operand, sim_requests, windows, dispatcher=dispatcher)
    rows = []
    for report in reports:
        s = report.summary()
        label = "per-request" if report.window_us <= 0 else f"{report.window_us:.0f} us"
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
        ["batch window", "kernels", "mean batch", "req/s", "mean lat (us)", "p95 lat (us)"],
        rows,
        title="Simulated serving throughput, 512-request backlog (RTX 3090 model)",
    ))
    best = max(reports[1:], key=lambda r: r.throughput_rps)
    gain = best.throughput_rps / reports[0].throughput_rps
    print(f"dynamic batching gain at the best window ({best.window_us:.0f} us): "
          f"{gain:.1f}x requests/s over per-request dispatch")


if __name__ == "__main__":
    main()

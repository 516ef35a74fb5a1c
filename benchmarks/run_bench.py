#!/usr/bin/env python
"""Run the vectorized-engine microbenchmarks and write ``BENCH_engine.json``.

Every entry times a vectorized hot path against its retained loop reference
on full-size operands and records wall time, speedup and the numerical
deviation, giving future PRs a perf trajectory to regress against::

    PYTHONPATH=src python benchmarks/run_bench.py [--quick] [--output PATH]

``--quick`` shrinks the shapes (~2 s total) for smoke runs; the default
sizes include the headline case of the engine — ``spatha.spmm`` on a
4096 x 4096 V:N:M operand times a 4096-column RHS, where the planned,
batched pipeline replaces the seed's per-row-block Python loop.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.formats.blocked_ell import BlockedEllMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.cvse import CVSEMatrix
from repro.formats.vnm import VNMSparseMatrix, vnm_select, vnm_select_reference
from repro.integration import VNMSparsifier, sparsify_encoder
from repro.kernels import cusparse, sputnik
from repro.kernels.spatha import SpmmPlan, spmm_loop_reference
from repro.models import TransformerEncoder, tiny_config
from repro.serving import (
    DecodeRequest,
    DecoderServingEngine,
    FaultInjector,
    FaultPlan,
    ModelServingEngine,
    Request,
    SchedulingConfig,
    ServingConfig,
    bursty_arrivals,
    decode_reference,
    merge_arrivals,
    outcome_counts,
    pareto_lengths,
    simulate,
)
from repro.pruning.second_order.fisher import (
    estimate_block_fisher,
    estimate_block_fisher_reference,
    synthetic_gradients,
)
from repro.pruning.second_order.obs_vnm import (
    second_order_nm_prune,
    second_order_nm_prune_reference,
    second_order_vnm_prune,
    second_order_vnm_prune_reference,
)


def _time(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _entry(op, shape, ref_fn, vec_fn, compare, ref_repeats=1, vec_repeats=3):
    # Interleave the ref/vec repeats so that on a shared machine a load
    # spike lands on both sides of the ratio instead of biasing whichever
    # phase it happens to hit; each side is still min-of-N.  When the
    # repeat counts differ (e.g. a 15 s loop reference timed once), the
    # leftover repeats of the longer side run after the paired ones.
    ref_t = vec_t = float("inf")
    ref_out = vec_out = None
    for i in range(max(ref_repeats, vec_repeats)):
        if i < ref_repeats:
            t, ref_out = _time(ref_fn, 1)
            ref_t = min(ref_t, t)
        if i < vec_repeats:
            t, vec_out = _time(vec_fn, 1)
            vec_t = min(vec_t, t)
    diff = compare(ref_out, vec_out)
    entry = {
        "op": op,
        "shape": shape,
        "reference_s": round(ref_t, 6),
        "vectorized_s": round(vec_t, 6),
        "speedup": round(ref_t / vec_t, 2),
        "max_abs_diff": float(diff),
        "bit_exact": bool(diff == 0.0),
        # Unrounded timings for derived metrics (throughput etc.).
        "_reference_s_raw": ref_t,
        "_vectorized_s_raw": vec_t,
    }
    print(
        f"{op:28s} {shape:28s} ref {ref_t:8.3f}s  vec {vec_t:8.3f}s  "
        f"speedup {entry['speedup']:7.2f}x  max|diff| {diff:.2e}"
    )
    return entry


def _array_diff(a, b):
    return np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)).max(
        initial=0.0
    )


def bench_spatha_spmm(entries, size, v, n, m, rng, columns=None):
    columns = size if columns is None else columns
    dense = rng.normal(size=(size, size)).astype(np.float32)
    a = VNMSparseMatrix.from_dense(dense, v=v, n=n, m=m, strict=False)
    b = rng.normal(size=(size, columns)).astype(np.float32)
    plan = SpmmPlan.for_matrix(a)
    plan.execute(b)  # warm: preparation is paid once per operand
    entry = _entry(
        "spatha.spmm",
        f"{size}x{size}x{columns} {v}:{n}:{m}",
        lambda: spmm_loop_reference(a, b),
        lambda: plan.execute(b),
        _array_diff,
    )
    entry["strategy"] = plan.resolve_strategy(columns)
    if not entry["bit_exact"]:
        # The auto chooser resolved to the dense GEMM schedule: at this C
        # one GEMM over the whole operand beats the gather schedule's
        # per-row-block GEMMs despite M/4 times the arithmetic.  The dense
        # GEMM accumulates each fp32 dot product in a different order than
        # the block-loop reference, so the outputs differ by accumulation
        # reorder only; record the measured relative tolerance next to the
        # entry so the non-exact record is self-describing.
        ref = spmm_loop_reference(a, b)
        scale = float(np.abs(ref).max(initial=1.0))
        entry["reorder_rel_tol"] = float(entry["max_abs_diff"] / scale)
        entry["non_exact_reason"] = (
            f"auto strategy resolves to the dense GEMM schedule at C={columns}, where "
            f"one GEMM beats the gather schedule's {plan.row_blocks} block GEMMs of "
            f"V={v} rows keeping {plan.condensed_k} of {size} columns; fp32 "
            "accumulation order differs from the loop reference within the recorded "
            "relative tolerance"
        )
    entries.append(entry)


def bench_spatha_crossover(entries):
    """One ``spatha.spmm`` cell on each side of the auto chooser's crossover
    in C: 1024^2 128:2:16 gathers at C = 64 (bit-exact against the loop),
    1024^2 32:2:8 runs the dense GEMM at C = 1024.  Seeded on their own, so
    they draw nothing from the stream the other entries' inputs come from."""
    rng = np.random.default_rng(1)
    bench_spatha_spmm(entries, 1024, 128, 2, 16, rng, columns=64)
    bench_spatha_spmm(entries, 1024, 32, 2, 8, rng, columns=1024)


def bench_baseline_kernels(entries, size, rng):
    dense = (rng.normal(size=(size, size)) * (rng.random(size=(size, size)) < 0.1)).astype(
        np.float32
    )
    csr = CSRMatrix.from_dense(dense)
    b = rng.normal(size=(size, size // 4)).astype(np.float32)
    entries.append(
        _entry(
            "sputnik.spmm",
            f"{size}x{size}x{size // 4} d=0.10",
            lambda: sputnik.spmm_loop_reference(csr, b),
            lambda: sputnik.spmm(csr, b),
            _array_diff,
        )
    )

    # Small blocks: the interpreter-bound regime where the slot-batched
    # formulation engages (large blocks dispatch to the BLAS-bound loop).
    bsize = 8
    nb = size // bsize
    mask = rng.random(size=(nb, nb)) < 0.4
    blocked = dense * np.kron(mask, np.ones((bsize, bsize), dtype=np.float32))
    ell = BlockedEllMatrix.from_dense(blocked, b=bsize)
    entries.append(
        _entry(
            "cusparse.spmm",
            f"{size}x{size}x{size // 4} b={bsize}",
            lambda: cusparse.spmm_loop_reference(ell, b),
            lambda: cusparse.spmm(ell, b),
            _array_diff,
        )
    )


def bench_formats(entries, size, rng):
    dense = (rng.normal(size=(size, size)) * (rng.random(size=(size, size)) < 0.2)).astype(
        np.float32
    )
    csr = CSRMatrix.from_dense(dense)
    entries.append(
        _entry(
            "csr.to_dense",
            f"{size}x{size} d=0.20",
            csr.to_dense_reference,
            csr.to_dense,
            _array_diff,
            ref_repeats=3,
        )
    )

    entries.append(
        _entry(
            "cvse.from_dense",
            f"{size}x{size} l=8",
            lambda: CVSEMatrix.from_dense_reference(dense, l=8),
            lambda: CVSEMatrix.from_dense(dense, l=8),
            lambda r, v: _array_diff(r.data, v.data),
            ref_repeats=3,
        )
    )
    cvse = CVSEMatrix.from_dense(dense, l=8)
    entries.append(
        _entry(
            "cvse.to_dense",
            f"{size}x{size} l=8",
            cvse.to_dense_reference,
            cvse.to_dense,
            _array_diff,
            ref_repeats=3,
        )
    )

    ell = BlockedEllMatrix.from_dense(dense, b=16)
    entries.append(
        _entry(
            "blocked_ell.from_dense",
            f"{size}x{size} b=16",
            lambda: BlockedEllMatrix.from_dense_reference(dense, b=16),
            lambda: BlockedEllMatrix.from_dense(dense, b=16),
            lambda r, v: _array_diff(r.blocks, v.blocks),
            ref_repeats=3,
        )
    )
    entries.append(
        _entry(
            "blocked_ell.to_dense",
            f"{size}x{size} b=16",
            ell.to_dense_reference,
            ell.to_dense,
            _array_diff,
            ref_repeats=3,
        )
    )

    vnm = VNMSparseMatrix.from_dense(
        rng.normal(size=(size, size)).astype(np.float32), v=16, n=2, m=8, strict=False
    )
    entries.append(
        _entry(
            "vnm.storage_order_values",
            f"{size}x{size} 16:2:8",
            vnm.storage_order_values_reference,
            vnm.storage_order_values,
            _array_diff,
            ref_repeats=3,
        )
    )


def bench_vnm_select(entries, shapes, patterns, rng):
    """V:N:M magnitude selection (prune and compress) against its argsort
    reference, on float32 weights like the ``spmm_sweep`` operands."""
    for shape in shapes:
        w = rng.normal(size=shape).astype(np.float32)
        for v, n, m in patterns:
            entries.append(
                _entry(
                    "vnm.select",
                    f"{shape[0]}x{shape[1]} {v}:{n}:{m}",
                    lambda: vnm_select_reference(w, v, n, m),
                    lambda: vnm_select(w, v, n, m),
                    lambda r, s: max(_array_diff(a, b) for a, b in zip(r, s)),
                    ref_repeats=3,
                )
            )


def bench_pruning(entries, rows, cols, rng):
    w = rng.normal(size=(rows, cols))
    grads = synthetic_gradients(w, num_samples=16, seed=0)
    entries.append(
        _entry(
            "estimate_block_fisher",
            f"{rows}x{cols} bs=8 G=16",
            lambda: estimate_block_fisher_reference(grads, w.shape, block_size=8),
            lambda: estimate_block_fisher(grads, w.shape, block_size=8),
            lambda r, v: _array_diff(r.inverse_blocks, v.inverse_blocks),
        )
    )
    entries.append(
        _entry(
            "second_order_nm_prune",
            f"{rows}x{cols} 2:8",
            lambda: second_order_nm_prune_reference(w, n=2, m=8, grads=grads),
            lambda: second_order_nm_prune(w, n=2, m=8, grads=grads),
            lambda r, v: _array_diff(r.pruned_weights, v.pruned_weights),
            vec_repeats=1,
        )
    )
    entries.append(
        _entry(
            "second_order_vnm_prune",
            f"{rows}x{cols} 8:2:8",
            lambda: second_order_vnm_prune_reference(w, v=8, n=2, m=8, grads=grads),
            lambda: second_order_vnm_prune(w, v=8, n=2, m=8, grads=grads),
            lambda r, v: _array_diff(r.pruned_weights, v.pruned_weights),
            vec_repeats=1,
        )
    )


def bench_model_serving(entries, hidden, intermediate, num_layers, num_requests, lengths, rng):
    """Model-level serving: batched encoder windows vs per-request forwards.

    Every projection of a small BERT-shaped encoder is V:N:M-sparsified and
    the whole stack is served through ``ModelServingEngine``; the reference
    path serves one request per window (N sequential encoder forwards), the
    batched path serves the same requests in one window (one batched
    forward per exact-length bucket).  Outputs are bit-identical by
    construction — exact-length stacking plus slab-exact operators — so the
    measured requests/s gap is a pure dynamic-batching gain.
    """
    cfg = tiny_config(
        hidden_size=hidden, num_layers=num_layers, num_heads=4, intermediate_size=intermediate
    )
    encoder = TransformerEncoder.init(cfg, seed=0)
    sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
    engine = ModelServingEngine(
        encoder, config=ServingConfig(warm_buckets=sorted(set(lengths)))
    )
    requests = [
        Request(f"enc-{i:04d}", rng.normal(size=(lengths[i % len(lengths)], hidden)).astype(np.float32))
        for i in range(num_requests)
    ]

    def serve_sequential():
        out = {}
        for request in requests:
            out.update(engine.serve([request]))
        return np.concatenate([out[r.request_id] for r in requests])

    def serve_batched():
        out = engine.serve(requests)
        return np.concatenate([out[r.request_id] for r in requests])

    entry = _entry(
        "serving.encoder",
        f"h{hidden}/i{intermediate} L{num_layers} 16:2:8 {num_requests}r",
        serve_sequential,
        serve_batched,
        _array_diff,
    )
    entry["requests_per_s_sequential"] = round(num_requests / entry["_reference_s_raw"], 1)
    entry["requests_per_s_batched"] = round(num_requests / entry["_vectorized_s_raw"], 1)
    stats = engine.stats()
    entry["plan_cache"] = dict(stats["plan_cache"])
    print(
        f"{'':28s} {'':28s} throughput {entry['requests_per_s_sequential']:9.1f} -> "
        f"{entry['requests_per_s_batched']:9.1f} req/s  "
        f"(plan cache {stats['plan_cache']['hits']} hits / {stats['plan_cache']['misses']} misses)"
    )
    entries.append(entry)


def bench_model_serving_padded(
    entries, hidden, intermediate, num_layers, num_requests, max_len, rng
):
    """Padded-ladder vs exact-length bucketing on ragged-length traffic.

    Request lengths are drawn uniformly from ``[1, max_len]`` — the
    realistic regime where exact-length bucketing degenerates to
    near-singleton buckets (most lengths appear once or twice per window)
    while the powers-of-two ladder consolidates them into a handful of
    padded buckets.  Both engines serve the same
    requests on identically initialised encoders and outputs are
    bit-identical (both policies are exact per request).

    What the measured req/s gap is — and is not: the engine
    deliberately executes every sequence at its true shape (that is what
    keeps the bits), so the *executed* GEMM work is the same in both
    modes.  The wall-clock gain is serving-overhead consolidation — ~10x
    fewer micro-batches means ~10x fewer per-batch rounds of validation,
    plan lookups, dispatch decisions, modelled-kernel estimation and trace
    records.  The fuller-kernel effect of padded buckets shows up in the
    *modelled* GPU trace (kernels charged at padded shapes), not in this
    CPU wall-clock number.
    """
    def build_engine(padding, name):
        cfg = tiny_config(
            hidden_size=hidden, num_layers=num_layers, num_heads=4,
            intermediate_size=intermediate,
        )
        encoder = TransformerEncoder.init(cfg, seed=0)
        sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
        return ModelServingEngine(encoder, config=ServingConfig(padding=padding, name=name))

    lengths = [int(t) for t in rng.integers(1, max_len + 1, size=num_requests)]
    requests = [
        Request(f"rag-{i:04d}", rng.normal(size=(t, hidden)).astype(np.float32))
        for i, t in enumerate(lengths)
    ]
    exact_engine = build_engine("exact", "bench-exact")
    padded_engine = build_engine("ladder", "bench-padded")

    def serve_exact():
        out = exact_engine.serve(requests)
        return np.concatenate([out[r.request_id] for r in requests])

    def serve_padded():
        out = padded_engine.serve(requests)
        return np.concatenate([out[r.request_id] for r in requests])

    # One throwaway window per engine outside the timed region: ragged
    # traffic makes the first exact-length window pay dispatch-signature
    # ranking for dozens of distinct bucket shapes (a one-time cost), and
    # the timed gap should be the steady-state consolidation gain only.
    serve_exact()
    serve_padded()

    entry = _entry(
        "serving.encoder_padded",
        f"h{hidden}/i{intermediate} L{num_layers} {num_requests}r<= {max_len}t",
        serve_exact,
        serve_padded,
        _array_diff,
        # Grouped execution equalises the GEMM work of the two modes, so
        # this entry measures pure per-batch overhead consolidation — a
        # few percent of a ~0.5 s region, the smallest contrast in the
        # whole sweep and below single-shot noise on a shared CPU.  It
        # needs the deepest paired min-of-N for the floor to converge.
        ref_repeats=7,
        vec_repeats=7,
    )
    exact_stats, padded_stats = exact_engine.stats(), padded_engine.stats()
    entry["requests_per_s_exact"] = round(num_requests / entry["_reference_s_raw"], 1)
    entry["requests_per_s_padded"] = round(num_requests / entry["_vectorized_s_raw"], 1)
    entry["distinct_lengths"] = len(set(lengths))
    entry["batches_exact_per_window"] = exact_stats["batches"] // max(
        1, exact_stats["requests"] // num_requests
    )
    entry["batches_padded_per_window"] = padded_stats["batches"] // max(
        1, padded_stats["requests"] // num_requests
    )
    entry["padding_fill"] = round(padded_stats["padding"]["fill"], 3)
    print(
        f"{'':28s} {'':28s} throughput {entry['requests_per_s_exact']:9.1f} -> "
        f"{entry['requests_per_s_padded']:9.1f} req/s  "
        f"({entry['batches_exact_per_window']} exact buckets -> "
        f"{entry['batches_padded_per_window']} padded, "
        f"fill {entry['padding_fill']:.2f})"
    )
    entries.append(entry)


def bench_model_serving_continuous(
    entries, hidden, intermediate, num_layers, num_requests, max_len, gap_us, window_us, rng
):
    """Continuous batching vs a held (async) step loop at equal offered load (p99 latency).

    The same ragged arrival schedule (one request every ``gap_us``) is
    replayed through two ladder-mode engines on identically initialised
    encoders, by one step loop: the async engine's batcher holds each rung
    until ``window_us`` after its oldest arrival (or until it fills); the
    continuous engine's holds nothing, so it steps whenever the executor
    frees, admitting whatever has arrived by then.  Both replays execute
    the real forwards and charge each step its *measured*
    wall-clock duration on a virtual serving clock, so per-request
    completion latency is measured execution under an analytic arrival
    process — deterministic load, real kernels.

    What the p99 gap is: an async request waits out its rung's window even
    when the executor sits idle; a continuous request waits only for the
    executor.  Throughput is equal by construction (same offered load, both
    policies serve every request), outputs are bit-identical (same
    execution path), so the tail-latency drop is pure scheduling.
    """
    def build_engine(name, **knobs):
        cfg = tiny_config(
            hidden_size=hidden, num_layers=num_layers, num_heads=4,
            intermediate_size=intermediate,
        )
        encoder = TransformerEncoder.init(cfg, seed=0)
        sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
        return ModelServingEngine(
            encoder, config=ServingConfig(padding="ladder", name=name, **knobs)
        )

    lengths = [int(t) for t in rng.integers(1, max_len + 1, size=num_requests)]
    requests = [
        Request(f"cont-{i:04d}", rng.normal(size=(t, hidden)).astype(np.float32),
                arrival_us=i * gap_us)
        for i, t in enumerate(lengths)
    ]
    engines = {
        "async": build_engine("bench-async", scheduling="async", window_us=window_us),
        "continuous": build_engine("bench-continuous"),
    }
    order = sorted(requests, key=lambda r: (r.arrival_us, r.request_id))
    arrival_of = {r.request_id: r.arrival_us for r in requests}
    latencies, steps_in_replay = {}, {}

    def replay(label):
        """The step loop: admit what has arrived, run one timed step, and
        jump an idle step to the next arrival or the end of a hold."""
        engine = engines[label]
        batcher, lat, out, steps = engine.batcher, {}, {}, 0
        now_us, admitted = 0.0, 0
        while admitted < len(order) or batcher.pending:
            while admitted < len(order) and order[admitted].arrival_us <= now_us:
                engine.submit(order[admitted])
                admitted += 1
            before = engine.steps_executed
            t0 = time.perf_counter()
            res = engine.step(now_us)
            exec_us = (time.perf_counter() - t0) * 1e6
            if engine.steps_executed == before:  # idle: nothing may run yet
                upcoming = [batcher.next_event_us()]
                if admitted < len(order):
                    upcoming.append(order[admitted].arrival_us)
                now_us = min(t for t in upcoming if t is not None)
                continue
            now_us += exec_us  # the executor frees; next step admits up to here
            steps += 1
            out.update(res)
            for rid in res:
                lat[rid] = now_us - arrival_of[rid]
        latencies[label] = lat
        steps_in_replay[label] = steps
        return np.concatenate([out[r.request_id] for r in requests])

    # One throwaway replay per engine outside the timed/recorded region so
    # dispatch-signature ranking and plan builds are steady-state for both.
    for label in engines:
        replay(label)

    entry = _entry(
        "serving.encoder_continuous",
        f"h{hidden}/i{intermediate} L{num_layers} {num_requests}r@{gap_us:.0f}us w{window_us:.0f}",
        lambda: replay("async"),
        lambda: replay("continuous"),
        _array_diff,
        # Like the padded entry, this compares two lean serving paths whose
        # wall-clock contrast is a few percent of a ~0.5 s replay — below
        # single-shot noise on a shared CPU — so it gets the deepest paired
        # min-of-N in the sweep.  Latencies below come from the last repeat
        # (virtual-clock values are stable across repeats once the engines
        # are warm).
        ref_repeats=7,
        vec_repeats=7,
    )
    p = lambda vals, q: round(float(np.percentile(list(vals), q)), 1)  # noqa: E731
    entry["offered_rps"] = round(1e6 / gap_us, 1)
    entry["window_us"] = window_us
    entry["p50_latency_us_async"] = p(latencies["async"].values(), 50)
    entry["p99_latency_us_async"] = p(latencies["async"].values(), 99)
    entry["p50_latency_us_continuous"] = p(latencies["continuous"].values(), 50)
    entry["p99_latency_us_continuous"] = p(latencies["continuous"].values(), 99)
    entry["steps_continuous"] = steps_in_replay["continuous"]
    print(
        f"{'':28s} {'':28s} p99 latency {entry['p99_latency_us_async']:9.1f} -> "
        f"{entry['p99_latency_us_continuous']:9.1f} us "
        f"(p50 {entry['p50_latency_us_async']:.1f} -> {entry['p50_latency_us_continuous']:.1f}) "
        f"at {entry['offered_rps']:.0f} req/s offered"
    )
    entries.append(entry)


def bench_model_serving_faulted(
    entries, hidden, intermediate, num_layers, num_requests, max_len, gap_us,
    step_us, fault_seed, rng,
):
    """Encoder serving under seeded faults, deadlines and a bounded queue.

    The fault-tolerance measurement: the same ragged arrival schedule is
    served twice on identically initialised encoders — once fault-free and
    unconstrained (the reference), once with a seeded :class:`FaultPlan`
    armed on the dispatcher, per-request deadlines, and a bounded admission
    queue.  The faulted run reports the serving metrics of the chaos layer
    (availability, goodput on the deterministic step clock, p99 completion
    latency of the survivors) while the ``max_abs_diff`` column certifies
    the core guarantee: every request the faulted engine reports ``ok`` is
    bit-for-bit its fault-free output — failover and isolation never buy
    availability with numerics.
    """
    def build_engine(name, **knobs):
        cfg = tiny_config(
            hidden_size=hidden, num_layers=num_layers, num_heads=4,
            intermediate_size=intermediate,
        )
        encoder = TransformerEncoder.init(cfg, seed=0)
        sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
        return ModelServingEngine(
            encoder, config=ServingConfig(padding="ladder", name=name, **knobs)
        )

    lengths = [int(t) for t in rng.integers(1, max_len + 1, size=num_requests)]
    payloads = [rng.normal(size=(t, hidden)).astype(np.float32) for t in lengths]

    def fresh_requests(with_deadlines):
        return [
            Request(
                f"flt-{i:04d}",
                payloads[i],
                arrival_us=i * gap_us,
                deadline_us=(i * gap_us + 12 * step_us) if with_deadlines else None,
            )
            for i in range(num_requests)
        ]

    faulted = {}

    def serve_fault_free():
        engine = build_engine("bench-fault-free")
        return engine.serve_continuous(fresh_requests(with_deadlines=False))

    def serve_faulted():
        engine = build_engine(
            "bench-faulted", max_queue_depth=max(4, num_requests // 4), step_us=step_us
        )
        plan = FaultPlan.seeded(
            [b.name for b in engine.dispatcher.backends],
            seed=fault_seed,
            failure_rate=0.15,
        )
        FaultInjector(plan).arm(engine.dispatcher)
        out = engine.serve_continuous(fresh_requests(with_deadlines=True))
        faulted["engine"] = engine
        return out

    def ok_subset_diff(reference, survivors):
        # The ok requests must match the fault-free bits exactly; dropped
        # requests (failed / timed_out / shed) have no output to compare.
        return max(
            (_array_diff(reference[rid], out) for rid, out in survivors.items()),
            default=0.0,
        )

    entry = _entry(
        "serving.encoder_faulted",
        f"h{hidden}/i{intermediate} L{num_layers} {num_requests}r s{fault_seed}",
        serve_fault_free,
        serve_faulted,
        ok_subset_diff,
        ref_repeats=1,
        vec_repeats=1,
    )
    engine = faulted["engine"]
    counts = outcome_counts(engine.outcomes.values())
    completions = engine.completions
    ok_latencies = [
        completions[rid].completed_us - completions[rid].arrival_us
        for rid, o in engine.outcomes.items()
        if o.ok and rid in completions
    ]
    makespan_us = max(
        (c.completed_us for c in completions.values()), default=0.0
    ) or 1.0
    health = engine.stats()["dispatch_health"]
    entry["fault_seed"] = fault_seed
    entry["outcomes"] = counts
    entry["availability"] = round(counts["ok"] / num_requests, 4)
    entry["goodput_rps"] = round(counts["ok"] / (makespan_us * 1e-6), 1)
    entry["p99_latency_us"] = (
        round(float(np.percentile(ok_latencies, 99)), 1) if ok_latencies else 0.0
    )
    entry["failovers"] = health["failovers"]
    entry["quarantines"] = health["quarantines"]
    print(
        f"{'':28s} {'':28s} availability {entry['availability']:.3f}  "
        f"goodput {entry['goodput_rps']:.1f} req/s  "
        f"p99 {entry['p99_latency_us']:.1f} us  "
        f"({counts['failed']} failed / {counts['timed_out']} timed out / "
        f"{counts['shed']} shed, {entry['failovers']} failovers)"
    )
    entries.append(entry)


def bench_model_serving_slo(
    entries, hidden, num_low, num_high, max_tokens, rng,
):
    """Strict-priority SLO scheduling vs FCFS under a bursty two-tenant overload.

    The same merged trace — a best-effort tenant with Pareto-tailed lengths
    bursting far past capacity, plus a smaller high-priority tenant, both
    with tight deadlines and a bounded admission queue — replays twice
    through :func:`simulate` on a one-layer 16:2:8 encoder (the real chunk
    planner and per-class admission arithmetic, every projection of every
    length group charged on the modelled kernel clock): once FCFS, once
    under ``SchedulingConfig(policy="priority")``.

    ``speedup`` for this entry is the high class's tail-latency ratio,
    FCFS p99 over priority p99 — not a wall-clock ratio.  Both replays
    serve the identical offered load through the same planner, so the tail
    the priority policy hands back to the paying class *is* what the
    scheduler buys; it is above 1.0 under overload by construction and,
    because the simulator is seeded end to end, exactly reproducible —
    which is what the trend gate pins.  ``bit_exact`` comes from a live
    priority-scheduled :class:`ModelServingEngine` pass over the same
    encoder: scheduling reorders execution, so every completed output must
    still equal the direct forward bit for bit.
    """
    cfg = tiny_config(
        hidden_size=hidden, num_layers=1, num_heads=4, intermediate_size=2 * hidden
    )
    encoder = TransformerEncoder.init(cfg, seed=0)
    sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
    lengths = pareto_lengths(
        num_low, alpha=1.5, min_tokens=4, max_tokens=max_tokens, seed=3
    )
    trace = merge_arrivals(
        bursty_arrivals(
            num_low, base_rate_rps=50_000, burst_rate_rps=2_000_000,
            tokens=lengths, seed=1, deadline_after_us=300.0,
            prefix="low", priority_class=0,
        ),
        bursty_arrivals(
            num_high, base_rate_rps=20_000, burst_rate_rps=500_000,
            tokens=[8, 16], seed=2, deadline_after_us=300.0,
            prefix="high", priority_class=1,
        ),
    )
    scheduling = SchedulingConfig(policy="priority", class_weights=(1, 4))
    sim_config = ServingConfig(padding="ladder", max_queue_depth=24, shed_policy="drop-expired")

    ref_t, fcfs = _time(lambda: simulate(encoder, trace, sim_config), 1)
    vec_t, prio = _time(
        lambda: simulate(encoder, trace, replace(sim_config, scheduling_policy=scheduling)), 1
    )
    fcfs_high, prio_high = fcfs.per_class()[1], prio.per_class()[1]
    prio_low = prio.per_class()[0]

    # The live-engine certificate: priority scheduling on the same encoder,
    # mixed classes, every output compared against the direct forward.
    engine = ModelServingEngine(
        encoder,
        config=ServingConfig(
            padding="ladder", step_us=25.0, scheduling_policy=scheduling, name="bench-slo"
        ),
    )
    live = [
        Request(
            f"slo-{i:03d}", rng.normal(size=(t, hidden)).astype(np.float32),
            priority_class=i % 2,
        )
        for i, t in enumerate([5, 9, 12, 7, 16, 3, 8, 11])
    ]
    out = engine.serve_continuous(live)
    diff = max(
        _array_diff(out[r.request_id], encoder.forward(r.activations[None])[0])
        for r in live
    )

    entry = {
        "op": "serving.encoder_slo",
        "shape": f"h{hidden} {num_low}+{num_high}r bursty/pareto d300us",
        "reference_s": round(ref_t, 6),
        "vectorized_s": round(vec_t, 6),
        "speedup": round(
            fcfs_high["p99_latency_us"] / prio_high["p99_latency_us"], 2
        ),
        "max_abs_diff": float(diff),
        "bit_exact": bool(diff == 0.0),
        "policy": "priority vs fcfs",
        "p99_latency_us_high_fcfs": round(fcfs_high["p99_latency_us"], 1),
        "p99_latency_us_high_priority": round(prio_high["p99_latency_us"], 1),
        "p99_latency_us_low_priority": round(prio_low["p99_latency_us"], 1),
        "shed_rate_low_priority": round(prio_low["shed_rate"], 4),
        "shed_rate_high_priority": round(prio_high["shed_rate"], 4),
        "violation_rate_high_priority": round(prio_high["violation_rate"], 4),
        "num_batches_priority": prio.num_batches,
    }
    print(
        f"{entry['op']:28s} {entry['shape']:28s} ref {ref_t:8.3f}s  vec {vec_t:8.3f}s  "
        f"speedup {entry['speedup']:7.2f}x  max|diff| {diff:.2e}"
    )
    print(
        f"{'':28s} {'':28s} high-class p99 {entry['p99_latency_us_high_fcfs']:.1f} -> "
        f"{entry['p99_latency_us_high_priority']:.1f} us  "
        f"(low shed {entry['shed_rate_low_priority']:.1%}, "
        f"high shed {entry['shed_rate_high_priority']:.1%})"
    )
    entries.append(entry)


def bench_decoder_continuous(
    entries, hidden, intermediate, num_layers, num_requests, max_prompt, new_tokens,
    gap_us, step_us, rng,
):
    """Paged-KV incremental decoding vs full causal recompute, bit-identical.

    The same decode jobs (ragged prompt lengths, a few requests sharing a
    prompt) run through two implementations of the identical mathematical
    sequence: the reference re-runs the whole causal forward from scratch
    for every generated token (:func:`decode_reference`, O(T^2) work per
    sequence), while :class:`DecoderServingEngine` appends one token per
    step to each request's paged KV cache and re-touches only the new row
    (O(T)).  Outputs are bit-for-bit equal by construction — the causal
    path *is* per-position execution over a scratch KV — so ``speedup``
    isolates pure recompute avoidance.

    Both sides get one throwaway replay before timing, so the timed region
    is steady state: dispatch rankings settled and the prefix cache warm
    (recurring prompts skip their prefill, the production claim for
    shared-prefix traffic).  Latency percentiles come from the engine's
    virtual step clock (``step_us`` per engine step against the arrival
    schedule), not wall time.
    """
    def fresh_encoder():
        cfg = tiny_config(
            hidden_size=hidden, num_layers=num_layers, num_heads=4,
            intermediate_size=intermediate,
        )
        encoder = TransformerEncoder.init(cfg, seed=0)
        sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
        return encoder

    lengths = [int(t) for t in rng.integers(1, max_prompt + 1, size=num_requests)]
    prompts = [rng.normal(size=(t, hidden)).astype(np.float32) for t in lengths]
    for i in range(3, num_requests, 4):  # every 4th request reuses prompt 0
        prompts[i] = prompts[0]
    requests = [
        DecodeRequest(f"dec-{i:04d}", prompts[i], new_tokens=new_tokens,
                      arrival_us=i * gap_us)
        for i in range(num_requests)
    ]

    ref_encoder = fresh_encoder()
    engine = DecoderServingEngine(
        fresh_encoder(), config=ServingConfig(block_size=16, step_us=step_us)
    )

    def decode_recompute():
        return np.concatenate(
            [decode_reference(ref_encoder, p, new_tokens) for p in prompts]
        )

    def decode_cached():
        out = engine.serve_continuous(requests)
        return np.concatenate([out[r.request_id] for r in requests])

    decode_recompute()
    decode_cached()

    entry = _entry(
        "serving.decoder_continuous",
        f"h{hidden}/i{intermediate} L{num_layers} {num_requests}r p<={max_prompt}+{new_tokens}",
        decode_recompute,
        decode_cached,
        _array_diff,
        ref_repeats=3,
        vec_repeats=3,
    )
    total_tokens = num_requests * new_tokens
    entry["tokens_per_s_recompute"] = round(total_tokens / entry["_reference_s_raw"], 1)
    entry["tokens_per_s_cached"] = round(total_tokens / entry["_vectorized_s_raw"], 1)
    latencies = [
        c.completed_us - c.arrival_us for c in engine.completions.values()
    ]
    p = lambda q: round(float(np.percentile(latencies, q)), 1)  # noqa: E731
    entry["step_us"] = step_us
    entry["p50_latency_us_cached"] = p(50)
    entry["p99_latency_us_cached"] = p(99)
    cache = engine.cache_stats()
    entry["cache"] = {
        "peak_blocks_in_use": cache["peak_blocks_in_use"],
        "prefix_hits": cache["prefix_hits"],
        "cow_copies": cache["cow_copies"],
        "evictions": cache["evictions"],
    }
    entry["prefills_skipped"] = engine.prefills_skipped
    print(
        f"{'':28s} {'':28s} decode rate {entry['tokens_per_s_recompute']:9.1f} -> "
        f"{entry['tokens_per_s_cached']:9.1f} tok/s  "
        f"(p99 {entry['p99_latency_us_cached']:.1f} us, "
        f"{entry['cache']['prefix_hits']} prefix hits, "
        f"peak {entry['cache']['peak_blocks_in_use']} blocks)"
    )
    entries.append(entry)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small shapes (~2 s total)")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_engine.json"),
        help="where to write the JSON record",
    )
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    entries = []
    if args.quick:
        bench_spatha_spmm(entries, 512, 16, 2, 4, rng)
        bench_spatha_crossover(entries)
        bench_baseline_kernels(entries, 256, rng)
        bench_formats(entries, 256, rng)
        bench_vnm_select(entries, [(64, 64)], [(1, 2, 8)], rng)
        bench_vnm_select(entries, [(256, 256)], [(64, 2, 8)], rng)
        bench_pruning(entries, 16, 64, rng)
        bench_model_serving(
            entries, hidden=64, intermediate=128, num_layers=1,
            num_requests=12, lengths=[8, 8, 16], rng=rng,
        )
        bench_model_serving_padded(
            entries, hidden=64, intermediate=128, num_layers=1,
            num_requests=24, max_len=24, rng=rng,
        )
        bench_model_serving_continuous(
            entries, hidden=64, intermediate=128, num_layers=1,
            num_requests=24, max_len=24, gap_us=2000.0, window_us=50000.0, rng=rng,
        )
        bench_model_serving_faulted(
            entries, hidden=64, intermediate=128, num_layers=1,
            num_requests=24, max_len=24, gap_us=2000.0, step_us=2500.0,
            fault_seed=0, rng=rng,
        )
        bench_model_serving_slo(
            entries, hidden=64, num_low=60, num_high=16,
            max_tokens=32, rng=rng,
        )
        bench_decoder_continuous(
            entries, hidden=64, intermediate=128, num_layers=1,
            num_requests=8, max_prompt=12, new_tokens=4,
            gap_us=2000.0, step_us=1000.0, rng=rng,
        )
    else:
        # The acceptance case: 4096-cube, V:N:M = 16:2:4 (2:4 with V-blocked
        # column selection) — the regime where the seed loop pays one gather
        # per row block and the planned engine runs one large GEMM.
        bench_spatha_spmm(entries, 4096, 16, 2, 4, rng)
        bench_spatha_spmm(entries, 2048, 32, 2, 8, rng)
        bench_spatha_crossover(entries)
        bench_baseline_kernels(entries, 1024, rng)
        bench_formats(entries, 1024, rng)
        # The 12 spmm_sweep operands (BERT-large shapes x four patterns).
        bench_vnm_select(
            entries,
            [(1024, 1024), (4096, 1024), (1024, 4096)],
            [(64, 2, 4), (64, 2, 8), (128, 2, 16), (64, 2, 32)],
            rng,
        )
        bench_pruning(entries, 32, 128, rng)
        # Model-level serving on a BERT-shaped (hidden x 4*hidden FFN)
        # encoder: one batched forward per exact-length bucket vs N
        # per-request forwards, bit-identical outputs either way.
        bench_model_serving(
            entries, hidden=256, intermediate=1024, num_layers=2,
            num_requests=48, lengths=[8, 8, 8, 16, 16, 32], rng=rng,
        )
        # Ragged-length traffic (uniform 1..48): exact-length bucketing
        # fragments into near-singleton buckets, the padded ladder refills
        # them at identical output bits.
        bench_model_serving_padded(
            entries, hidden=256, intermediate=1024, num_layers=2,
            num_requests=64, max_len=48, rng=rng,
        )
        # Continuous batching vs a 50 ms hold on the same ragged arrival
        # schedule: a request joins whatever its rung is doing the moment
        # the executor frees, instead of waiting out a 50 ms window — the
        # p99 completion latency drops by roughly the window while offered
        # load (and bits) stay identical.  The 50 req/s offered rate keeps
        # this encoder (~8 ms/request measured) under saturation: past
        # capacity both policies degenerate to executor queueing and the
        # scheduling comparison measures nothing.
        bench_model_serving_continuous(
            entries, hidden=256, intermediate=1024, num_layers=2,
            num_requests=64, max_len=48, gap_us=20000.0, window_us=50000.0, rng=rng,
        )
        # The same encoder under seeded faults + deadlines + a bounded
        # queue: availability stays high (the ranking absorbs transient
        # failures bit-exactly) and the ok subset certifies the numerics.
        bench_model_serving_faulted(
            entries, hidden=256, intermediate=1024, num_layers=2,
            num_requests=64, max_len=48, gap_us=20000.0, step_us=25000.0,
            fault_seed=0, rng=rng,
        )
        # SLO scheduling under a bursty two-tenant overload: the priority
        # policy returns the high class its p99 (the speedup is that tail
        # ratio on the deterministic modelled clock) while the sheds and
        # deadline violations concentrate in the best-effort class; a live
        # priority-scheduled engine pass certifies the bits.
        bench_model_serving_slo(
            entries, hidden=64, num_low=160, num_high=40,
            max_tokens=64, rng=rng,
        )
        # Decoder serving: each generated token re-touches the whole prefix
        # under recompute but only its own row under the paged KV cache —
        # the O(T^2) -> O(T) contrast the decoder engine exists for, at
        # bit-identical outputs (plus prefix-cache hits on shared prompts).
        bench_decoder_continuous(
            entries, hidden=256, intermediate=1024, num_layers=2,
            num_requests=16, max_prompt=32, new_tokens=8,
            gap_us=20000.0, step_us=10000.0, rng=rng,
        )

    for entry in entries:  # drop the raw-timing scratch keys from the record
        entry.pop("_reference_s_raw", None)
        entry.pop("_vectorized_s_raw", None)
    record = {
        "generated_by": "benchmarks/run_bench.py" + (" --quick" if args.quick else ""),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "benchmarks": entries,
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    headline = entries[0]
    accuracy = (
        "bit-exact" if headline["bit_exact"] else f"max|diff| {headline['max_abs_diff']:.1e}"
    )
    print(
        f"headline: {headline['op']} {headline['shape']} — "
        f"{headline['speedup']}x over the seed loop ({accuracy})"
    )


if __name__ == "__main__":
    main()

"""Per-layer metrics: reduce one traced phase to named numbers.

Three sources, kept apart:

* **spans** — wall self time per module (span minus its children), call
  counts and per-call percentiles, from :class:`bench.trace.Table`;
* **counters** — the engines' own ``stats()`` / cache counters, read before
  and after the traced phase and diffed, so ratios are measured where the
  work happens;
* **replay** — module-level functions (GELU, softmax, LayerNorm) and the
  offline layers (prune, compress, plan build) cannot be wrapped on an
  instance, so they are timed by calling them directly at the shapes the
  spans recorded.

Wall and modelled time are reported under different names and never added.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.formats import BlockedEllMatrix, CSRMatrix, CVSEMatrix, VNMSparseMatrix
from repro.integration import VNMSparsifier, sparsify_encoder
from repro.kernels import cublas, cusparse, sputnik
from repro.kernels.spatha import SpmmPlan
from repro.models import TransformerEncoder
from repro.models.functional import gelu, layer_norm, softmax
from repro.models.latency import SparsityPlan, model_inference_trace
from repro.pruning import apply_mask, vnm_mask
from repro.pruning.second_order import (
    estimate_block_fisher,
    second_order_vnm_prune,
    synthetic_gradients,
)
from repro.serving import ContinuousBatcher, Request, SchedulingConfig

from .common import HIDDEN, MODEL_SEED, ONLINE_RATES, Samples, TracedRun, percentile
from .instrument import BACKEND_SPANS
from .trace import Table, Tracer

#: Wall-time budget of one replayed function (seconds); shapes beyond it are
#: extrapolated from the per-element rate of the shapes that were timed.
REPLAY_BUDGET_S = 0.4


def _timed(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall seconds of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def _delta(before: dict, after: dict, *path: str) -> float:
    for key in path:
        before, after = before[key], after[key]
    return float(after - before)


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def model_metrics(table: Table, num_layers: int) -> Dict[str, float]:
    """Self time of the model's modules (serving workloads)."""
    root = table.root_s
    ffn = table.self_s("models.ffn.forward")
    attention = table.self_s("models.attention.forward") + table.self_s("models.attention.forward_step")
    block = table.self_s("models.encoder_layer.forward") + table.self_s("models.encoder_layer.forward_step")
    linear_total = table.total_s("models.layers.sparse_linear")
    steps = np.concatenate([
        table.durations("models.transformer.forward_step.prefill"),
        table.durations("models.transformer.forward_step.decode"),
    ])
    forwards = table.calls("models.transformer.forward")
    return {
        "models.ffn.self_ms": ffn * 1e3,
        "models.ffn.self_share": _ratio(ffn, root),
        "models.attention.self_ms": attention * 1e3,
        "models.attention.self_share": _ratio(attention, root),
        "models.encoder_layer.self_ms": block * 1e3,
        "models.transformer.forward_self_ms": table.self_s("models.transformer.forward") * 1e3,
        "models.transformer.groups_per_batch": _ratio(
            table.calls("models.encoder_layer.forward"), num_layers * forwards
        ),
        "models.layers.sparse_linear_ms": linear_total * 1e3,
        "models.layers.sparse_linear_share": _ratio(linear_total, root),
        "models.layers.sparse_linear_calls": float(table.calls("models.layers.sparse_linear")),
        "models.transformer.forward_step_ms_p50": percentile(steps, 50) * 1e3,
    }


def kernel_metrics(table: Table, before: dict, after: dict) -> Dict[str, float]:
    """Dispatcher and Spatha numbers (every workload)."""
    arrays = table.arrays
    out: Dict[str, float] = {
        "kernels.dispatch.execute_self_us_p50": percentile(table.selfs("kernels.dispatch.execute"), 50) * 1e6,
        "kernels.dispatch.calls": float(table.calls("kernels.dispatch.execute")),
        "kernels.dispatch.failovers": _delta(before, after, "dispatch_health", "failovers"),
    }
    hits = _delta(before, after, "dispatch_cache", "hits")
    misses = _delta(before, after, "dispatch_cache", "misses")
    out["kernels.dispatch.signature_cache_hit_rate"] = _ratio(hits, hits + misses)
    served = {name: table.calls(span) for name, span in BACKEND_SPANS.items()}
    for name, count in served.items():
        out[f"kernels.dispatch.backend_share.{name}"] = _ratio(count, sum(served.values()))

    spatha = table.select("kernels.spatha.execute")
    cols, dur = arrays["a"][spatha], arrays["dur"][spatha]
    # The dispatcher span that made the call carries its dense-equivalent FLOPs.
    flops = arrays["b"][arrays["parent"][spatha]] if spatha.size else np.zeros(0)
    classes = {"c1": cols <= 1, "c64": (cols > 1) & (cols <= 128), "c512": cols > 128}
    for label, pick in classes.items():
        out[f"kernels.spatha.execute_ms.{label}"] = float(dur[pick].mean() * 1e3) if pick.any() else 0.0
    big = classes["c512"]
    out["kernels.spatha.gflop_per_s.c512"] = _ratio(flops[big].sum() / 1e9, dur[big].sum())
    out["kernels.spatha.flops_per_call"] = float(flops.mean()) if spatha.size else 0.0
    out["kernels.spatha.bytes_per_call_computed"] = float(arrays["b"][spatha].mean()) if spatha.size else 0.0
    return out


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def _replay(hist: Dict[tuple, int], fn: Callable[[np.ndarray], object]) -> float:
    """Total wall ms ``fn`` costs over a recorded shape histogram.

    Shapes are timed largest-contribution first until the budget is spent;
    the remainder is priced at the per-element rate measured so far.
    """
    rng = np.random.default_rng(0)
    order = sorted(hist, key=lambda shape: -hist[shape] * int(np.prod(shape)))
    spent = total = 0.0
    timed_elements = timed_seconds = 0.0
    for shape in order:
        elements = float(np.prod(shape))
        if spent < REPLAY_BUDGET_S:
            x = rng.normal(size=shape).astype(np.float32)
            t0 = perf_counter()
            one = _timed(lambda: fn(x), repeats=2)
            spent += perf_counter() - t0
            timed_elements += elements
            timed_seconds += one
        else:
            one = elements * timed_seconds / timed_elements
        total += one * hist[shape]
    return total * 1e3


def functional_metrics(tracer: Tracer) -> Dict[str, float]:
    """GELU / softmax / LayerNorm wall time, by direct replay."""
    gamma = np.ones(HIDDEN, dtype=np.float32)
    beta = np.zeros(HIDDEN, dtype=np.float32)
    shapes = tracer.shapes
    return {
        "models.functional.gelu_ms": _replay(shapes.get("gelu", {}), gelu),
        "models.functional.softmax_ms": _replay(shapes.get("softmax", {}), softmax),
        # Two LayerNorms per block call.
        "models.functional.layer_norm_ms": 2.0 * _replay(
            shapes.get("layer_norm", {}), lambda x: layer_norm(x, gamma, beta)
        ),
    }


def offline_metrics(weight: np.ndarray, v: int, n: int, m: int) -> Dict[str, float]:
    """The write side — prune, compress, plan build — on one weight."""
    pruned = apply_mask(weight, vnm_mask(weight, v=v, n=n, m=m))
    matrix = VNMSparseMatrix.from_dense(pruned, v=v, n=n, m=m)
    slab = np.ascontiguousarray(weight[:64, :256], dtype=np.float64)
    grads = synthetic_gradients(slab, num_samples=32, seed=0)
    fisher = estimate_block_fisher(grads, slab.shape, block_size=m)

    def build_plan() -> None:
        # A fresh matrix each time: plans are memoized on the matrix.
        SpmmPlan.for_matrix(VNMSparseMatrix.from_dense(pruned, v=v, n=n, m=m))

    compress = _timed(lambda: VNMSparseMatrix.from_dense(pruned, v=v, n=n, m=m))
    return {
        "pruning.vnm.prune_ms": _timed(lambda: apply_mask(weight, vnm_mask(weight, v=v, n=n, m=m))) * 1e3,
        "formats.vnm.from_dense_ms": compress * 1e3,
        "formats.vnm.to_dense_ms": _timed(matrix.to_dense) * 1e3,
        "formats.csr.from_dense_ms": _timed(lambda: CSRMatrix.from_dense(pruned)) * 1e3,
        "formats.blocked_ell.from_dense_ms": _timed(lambda: BlockedEllMatrix.from_dense(pruned, b=16)) * 1e3,
        "formats.cvse.from_dense_ms": _timed(lambda: CVSEMatrix.from_dense(pruned, l=8)) * 1e3,
        "kernels.spatha.plan_build_ms": max(_timed(build_plan) - compress, 0.0) * 1e3,
        "pruning.second_order.fisher_ms": _timed(
            lambda: estimate_block_fisher(grads, slab.shape, block_size=m), repeats=2
        ) * 1e3,
        "pruning.second_order.vnm_prune_ms": _timed(
            lambda: second_order_vnm_prune(slab, v=16, n=n, m=m, fisher=fisher), repeats=2
        ) * 1e3,
    }


def serving_offline_metrics(encoder: TransformerEncoder) -> Dict[str, float]:
    """Offline layers at the served model's own shapes (16:2:8)."""
    dense = TransformerEncoder.init(encoder.config, seed=MODEL_SEED)
    out = offline_metrics(dense.layers[0].ffn.output.weight, v=16, n=2, m=8)

    def sparsify() -> None:
        sparsify_encoder(
            TransformerEncoder.init(encoder.config, seed=MODEL_SEED), VNMSparsifier(n=2, m=8, v=16)
        )

    init_s = _timed(lambda: TransformerEncoder.init(encoder.config, seed=MODEL_SEED))
    out["integration.sparsify_encoder_ms"] = max(_timed(sparsify) - init_s, 0.0) * 1e3
    return out


def estimate_us_p50(dispatcher, operands: Sequence, columns: Iterable[int]) -> float:
    """What one ``dispatcher.estimate`` costs on the hot (memoized) path."""
    pairs = [(operand, c) for operand in operands for c in columns]
    for operand, c in pairs:
        dispatcher.estimate(operand, c)
    times = []
    for i in range(240):
        operand, c = pairs[i % len(pairs)]
        t0 = perf_counter()
        dispatcher.estimate(operand, c)
        times.append(perf_counter() - t0)
    return percentile(times, 50) * 1e6


def overhead_frac(traced_cost: float, untraced_cost: float) -> float:
    """Tracing overhead: how much more the traced slice paid for the same
    work (seconds per token, per FLOP, per window), as a share."""
    if not untraced_cost or not traced_cost:
        return 0.0
    return float(traced_cost / untraced_cost - 1.0)


# ----------------------------------------------------------------------
# The printed breakdown
# ----------------------------------------------------------------------
#: Span-name prefix -> the Figure-15 category its wall self time belongs to.
#: Host-only work (scheduler, stacking, KV bookkeeping, the driver itself)
#: has no modelled counterpart.
CATEGORIES = (
    ("kernels.", "gemm"),
    ("models.layers.", "gemm"),
    ("models.attention.", "matmul+softmax"),
    ("models.ffn.", "other"),
    ("models.encoder_layer.", "other"),
)


def breakdown(table: Table, values: Dict[str, float]) -> List[str]:
    """Self time per span name, then wall beside modelled per category.

    Raises when the self times do not add up to the traced span: every
    instant of the phase belongs to exactly one span, so a gap means the
    tracer lost one.
    """
    by_name = table.self_by_name()
    covered = sum(self_s for _, self_s in by_name.values())
    if abs(covered / table.root_s - 1.0) > 0.02:
        raise SystemExit(
            f"traced self times cover {covered:.4f}s of a {table.root_s:.4f}s phase (beyond 2%)"
        )
    lines = [f"  traced phase {table.root_s * 1e3:.1f} ms; self times sum to "
             f"{covered / table.root_s:.4%} of it"]
    for name, (calls, self_s) in sorted(by_name.items(), key=lambda item: -item[1][1]):
        lines.append(f"    {name:<46} calls={calls:<8} self={self_s * 1e3:>10.2f} ms "
                     f"{self_s / table.root_s:>7.2%}")
    wall = {"gemm": 0.0, "matmul+softmax": 0.0, "other": 0.0, "host-only": 0.0}
    for name, (_, self_s) in by_name.items():
        category = next((c for prefix, c in CATEGORIES if name.startswith(prefix)), "host-only")
        wall[category] += self_s * 1e3
    modelled = {
        "gemm": values.get("hardware.trace.modelled_ms.gemm", 0.0),
        "matmul+softmax": values.get("hardware.trace.modelled_ms.matmul", 0.0)
        + values.get("hardware.trace.modelled_ms.softmax", 0.0),
        "other": values.get("hardware.trace.modelled_ms.other", 0.0),
    }
    lines.append("  category            wall self ms (host)   modelled ms (RTX 3090)   -- two clocks, never added")
    for category, wall_ms in wall.items():
        shown = f"{modelled[category]:>14.3f}" if category in modelled else f"{'n/a':>14}"
        lines.append(f"    {category:<16} {wall_ms:>18.2f} {shown}")
    return lines


# ----------------------------------------------------------------------
# Workload summaries
# ----------------------------------------------------------------------
def encoder_metrics(workload, table: Table, run: TracedRun) -> Dict[str, float]:
    tracer, before, after = run.tracer, run.before, run.after
    engine, encoder = workload.engine, workload.encoder
    out = model_metrics(table, len(encoder.layers))
    out.update(kernel_metrics(table, before, after))
    out.update(functional_metrics(tracer))
    out.update(serving_offline_metrics(encoder))

    calls = table.calls("serving.model_engine.serve") + table.calls("serving.model_engine.step")
    self_s = table.self_s("serving.model_engine.serve") + table.self_s("serving.model_engine.step")
    stats_b, stats_a = before["engine"], after["engine"]
    requests = _delta(stats_b, stats_a, "requests")
    batches = _delta(stats_b, stats_a, "batches")
    plan_hits = _delta(stats_b, stats_a, "plan_cache", "hits")
    plan_misses = _delta(stats_b, stats_a, "plan_cache", "misses")
    out.update({
        "serving.model_engine.step_self_ms": _ratio(self_s * 1e3, calls),
        "serving.model_engine.self_share": _ratio(self_s, table.root_s),
        "serving.model_engine.batches": batches,
        "serving.model_engine.mean_batch_size": _ratio(requests, batches),
        "serving.model_engine.padding_fill": _ratio(
            _delta(stats_b, stats_a, "padding", "valid_tokens"),
            _delta(stats_b, stats_a, "padding", "bucket_tokens"),
        ),
        "serving.model_engine.plan_cache_hit_rate": _ratio(plan_hits, plan_hits + plan_misses),
    })

    # Modelled clock: GEMM events are what the engine's ExecutionTrace
    # recorded in the phase; the other categories are priced by the
    # analytic latency model at the micro-batch shapes the phase served.
    # Totals over the traced slice, like the wall ``*_ms`` totals they sit
    # beside.
    events = engine.trace.executions[before["trace_events"]:after["trace_events"]]
    modelled = {"gemm": 0.0, "matmul": 0.0, "softmax": 0.0, "other": 0.0}
    for event in events:
        modelled[event.category] = modelled.get(event.category, 0.0) + event.time_us
    plan = SparsityPlan(v=16, n=2, m=8)
    priced: Dict[Tuple[int, int], Dict[str, float]] = {}
    for shape in workload.seen_batches[before["seen_batches"]:after["seen_batches"]]:
        if shape not in priced:
            priced[shape] = model_inference_trace(
                encoder.config, batch_size=shape[0], seq_len=shape[1], plan=plan,
                num_layers=len(encoder.layers), gpu=engine.dispatcher.gpu,
            ).time_by_category()
        for category in ("matmul", "softmax", "other"):
            modelled[category] += priced[shape][category]
    operands = [lin.operand for _, lin in encoder.named_sparse_layers()]
    out.update({
        "hardware.trace.events_per_request": _ratio(len(events), requests),
        "hardware.perf_model.estimate_us_p50": estimate_us_p50(engine.dispatcher, operands, (8, 64, 512)),
        "hardware.trace.modelled_ms_total": sum(modelled[c] for c in ("gemm", "matmul", "softmax", "other")) / 1e3,
        "hardware.trace.modelled_ms.gemm": modelled["gemm"] / 1e3,
        "hardware.trace.modelled_ms.matmul": modelled["matmul"] / 1e3,
        "hardware.trace.modelled_ms.softmax": modelled["softmax"] / 1e3,
        "hardware.trace.modelled_ms.other": modelled["other"] / 1e3,
    })
    return out


def online_metrics(workload, table: Table, run: TracedRun) -> Dict[str, float]:
    """Scheduler, queueing and the rate ladder (``enc_online`` only)."""
    engine, samples, before, after = workload.engine, run.samples, run.before, run.after
    waits = [
        record.wait_us / 1e3
        for rid, record in engine.completions.items()
        if rid.startswith(samples.extra["id_prefix"])
    ]
    next_batch = table.durations("serving.continuous.next_batch")
    out = {
        "serving.continuous.submit_us_p50": percentile(table.durations("serving.continuous.submit"), 50) * 1e6,
        "serving.continuous.next_batch_us_p50": percentile(next_batch, 50) * 1e6,
        "serving.continuous.next_batch_us_p95": percentile(next_batch, 95) * 1e6,
        "serving.continuous.next_batch_slo_us_p50": slo_next_batch_us_p50(),
        "serving.continuous.queue_wait_ms_p50": percentile(waits, 50),
        "serving.continuous.queue_wait_ms_p95": percentile(waits, 95),
        "serving.continuous.queue_depth_max": float(samples.extra["depth_max"]),
        "serving.continuous.shed": _delta(before["engine"], after["engine"], "admission", "shed"),
        "serving.continuous.expired": _delta(before["engine"], after["engine"], "admission", "expired"),
        "bench.generator_late_ms_p95": percentile(samples.extra["late_ms"], 95),
        # Latency at a fixed rate amplifies any slowdown through queueing, so
        # the overhead is read on service time: seconds inside step() per token.
        "bench.trace_overhead_frac": overhead_frac(
            _ratio(samples.extra["busy_s"], samples.tokens),
            _ratio(run.untraced_extra_sum("busy_s"), run.untraced_sum("tokens")),
        ),
    }
    ladder: Dict[str, List[Samples]] = {label: [phase] for label, phase in workload.ladder.items()}
    ladder["lo"] = run.untraced
    for label in ("mid", "hi"):
        out[f"serving.rate.{label}.latency_p95_ms"] = percentile(ladder[label][0].latency_ms, 95)
    out["serving.rate.hi.goodput_frac"] = _ratio(ladder["hi"][0].good, ladder["hi"][0].attempted)
    ok_rates = [
        ONLINE_RATES[label]
        for label, phases in ladder.items()
        if _ratio(sum(p.good for p in phases), sum(p.attempted for p in phases)) >= 0.9
        and max(p.extra["backlog_at_last_arrival"] for p in phases) <= 16
    ]
    out["serving.max_ok_rps"] = max(ok_rates, default=0.0)
    return out


def slo_next_batch_us_p50() -> float:
    """``next_batch`` under the priority policy on a synthetic 512-deep,
    two-class queue (the SLO planner re-ranks the whole arrived set)."""
    rng = np.random.default_rng(0)
    batcher = ContinuousBatcher.ladder(scheduling=SchedulingConfig(policy="priority"))
    payload = {n: np.zeros((n, HIDDEN), dtype=np.float32) for n in (8, 16, 32, 64, 128)}
    serial = 0

    def refill() -> None:
        nonlocal serial
        while batcher.pending < 512:
            tokens = int(rng.choice((8, 16, 32, 64, 128)))
            batcher.submit(Request(f"slo-{serial:06d}", payload[tokens], priority_class=serial % 2))
            serial += 1

    times = []
    for _ in range(40):
        refill()
        t0 = perf_counter()
        batcher.next_batch(0.0)
        times.append(perf_counter() - t0)
    return percentile(times, 50) * 1e6


def decoder_metrics(workload, run: TracedRun) -> Dict[str, float]:
    tracer, samples, before, after = run.tracer, run.samples, run.before, run.after
    table = Table(tracer, run.root)
    engine, encoder = workload.engine, workload.encoder
    out = model_metrics(table, len(encoder.layers))
    out.update(kernel_metrics(table, before, after))
    out.update(functional_metrics(tracer))
    out.update(serving_offline_metrics(encoder))
    operands = [lin.operand for _, lin in encoder.named_sparse_layers()]
    out["hardware.perf_model.estimate_us_p50"] = estimate_us_p50(engine.dispatcher, operands, (1,))

    # KV cache: spans for the per-call costs, counters for sharing.
    extend = table.durations("models.kv_cache.extend")
    warm = Table(tracer, run.warm_root)
    warm_extend = warm.select("models.kv_cache.extend")
    # Slots a / b are the copy-on-write count before / after the call.
    copied = warm.arrays["dur"][warm_extend][
        warm.arrays["b"][warm_extend] > warm.arrays["a"][warm_extend]
    ]
    stats_b, stats_a = before["engine"], after["engine"]
    prefills = _delta(stats_b, stats_a, "prefills")
    skipped = _delta(stats_b, stats_a, "prefills_skipped")
    residency = np.asarray(workload.residency, dtype=np.float64).reshape(-1, 3)
    in_use = residency[:, 2] > 0
    out.update({
        "models.kv_cache.extend_us_p50": percentile(extend, 50) * 1e6,
        "models.kv_cache.extend_us_p99": percentile(extend, 99) * 1e6,
        "models.kv_cache.extend_ms_max": float(extend.max() * 1e3) if extend.size else 0.0,
        "models.kv_cache.first_cow_ms": float(copied[0] * 1e3) if copied.size else 0.0,
        "models.kv_cache.gathered_us_p50": percentile(table.durations("models.kv_cache.gathered"), 50) * 1e6,
        "models.kv_cache.append_us_p50": percentile(table.selfs("models.kv_cache.append"), 50) * 1e6,
        "models.kv_cache.prefix_hit_rate": _ratio(skipped, prefills + skipped),
        "models.kv_cache.cow_copies": _delta(stats_b, stats_a, "cache", "cow_copies"),
        "models.kv_cache.evictions": _delta(stats_b, stats_a, "cache", "evictions"),
        "models.kv_cache.peak_blocks_in_use": float(stats_a["cache"]["peak_blocks_in_use"]),
        "models.kv_cache.reserved_over_used": float(
            (residency[in_use, 1] / residency[in_use, 2]).mean()
        ) if in_use.any() else 0.0,
    })

    prefill = table.durations("models.transformer.forward_step.prefill")
    decode = table.durations("models.transformer.forward_step.decode")
    out.update({
        "serving.decoder.step_self_ms_p50": percentile(table.selfs("serving.decoder.step"), 50) * 1e3,
        "serving.decoder.prefill_ms_per_token": float(prefill.mean() * 1e3) if prefill.size else 0.0,
        "serving.decoder.decode_ms_per_token": float(decode.mean() * 1e3) if decode.size else 0.0,
        "serving.decoder.prefill_share": _ratio(prefill.sum(), prefill.sum() + decode.sum()),
        "serving.decoder.prefills": prefills,
        "serving.decoder.prefills_skipped": skipped,
        "serving.decoder.decode_steps": _delta(stats_b, stats_a, "decode_steps"),
        "serving.decoder.steps_executed": _delta(stats_b, stats_a, "continuous", "steps"),
        "serving.decoder.residents_mean": float(residency[:, 0].mean()) if residency.size else 0.0,
        "serving.decoder.preemptions": _delta(stats_b, stats_a, "preemptions"),
        "bench.trace_overhead_frac": overhead_frac(
            _ratio(samples.wall_s, samples.tokens),
            _ratio(run.untraced_sum("wall_s"), run.untraced_sum("tokens")),
        ),
    })
    return out


def sweep_metrics(workload, run: TracedRun) -> Dict[str, float]:
    table = Table(run.tracer, run.root)
    out = kernel_metrics(table, run.before, run.after)
    weight, (v, n, m) = workload.baseline_weight()
    out.update(offline_metrics(weight, v=v, n=n, m=m))
    out["hardware.perf_model.estimate_us_p50"] = estimate_us_p50(
        workload.dispatcher, list(workload.operands.values()), workload.columns
    )

    # Baselines beside the dispatched cells: same pruned weights, same RHS.
    totals = {"sputnik": 0.0, "cusparse": 0.0, "cublas": 0.0}
    cells = 0
    for pruned, rhs in workload.baseline_cells():
        csr = CSRMatrix.from_dense(pruned)
        ell = BlockedEllMatrix.from_dense(pruned, b=16)
        for b in rhs:
            totals["sputnik"] += _timed(lambda: sputnik.spmm(csr, b), repeats=2)
            totals["cusparse"] += _timed(lambda: cusparse.spmm(ell, b), repeats=2)
            totals["cublas"] += _timed(lambda: cublas.gemm(pruned, b), repeats=2)
            cells += 1
    out.update({
        "kernels.sputnik.spmm_ms": totals["sputnik"] / cells * 1e3,
        "kernels.cusparse.spmm_ms": totals["cusparse"] / cells * 1e3,
        "kernels.cublas.gemm_ms": totals["cublas"] / cells * 1e3,
        "bench.trace_overhead_frac": overhead_frac(
            _ratio(run.samples.wall_s, run.samples.flops),
            _ratio(run.untraced_sum("wall_s"), run.untraced_sum("flops")),
        ),
    })
    return out

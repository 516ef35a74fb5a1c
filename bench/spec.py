"""What ``BENCHMARK.json`` has no room for.

``BENCHMARK.json`` (repo root) is the single source of every metric's name,
unit, direction and bound, and of the workload list; its schema is fixed by
the benchmark contract and admits no extra keys.  This module adds, by
metric name, the facts the contract leaves out: the *clock* a value is read
on, and — written down before anything was measured — which end-to-end
metric each per-layer metric should move, on which workload, and where the
prediction is no change.  ``bench/tests`` checks the two stay in step.

Clocks: ``wall`` is the host's ``perf_counter``; ``modelled`` is the GPU
performance model (``KernelDispatcher.estimate`` / ``ExecutionTrace``) and
repeats exactly; ``none`` marks counts and ratios of counts.  The virtual
``step_us`` clock the replay simulators advance is never reported.
"""

from __future__ import annotations

from typing import Dict, Tuple

ALL = ("enc_offline", "enc_online", "dec_prefill", "dec_shared", "spmm_sweep")
ENC = ("enc_offline", "enc_online")
DEC = ("dec_prefill", "dec_shared")
SERVING = ENC + DEC

#: End-to-end metrics: clock, and per workload what the name means there.
#: Every workload prints every metric (the contract requires it); "alias"
#: entries say so where a workload has no independent reading.
END_TO_END: Dict[str, Dict[str, object]] = {
    "setup_s": {
        "clock": "wall",
        "definition": "median of 5 (spmm_sweep: 3) in-process set-ups: model init + prune/compress + engine "
        "construction + warming + one warm-up replay; input generation excluded",
        "workloads": ALL,
    },
    "tok_per_s": {
        "clock": "wall",
        "definition": "tokens of operations that finished ok / timed-phase wall seconds: real "
        "(unpadded) input tokens on enc_*, generated tokens on dec_*, RHS columns on spmm_sweep",
        "workloads": ALL,
    },
    "spmm_gflop_per_s": {
        "clock": "wall",
        "definition": "dense-equivalent 2*R*K*C of the sparse projections executed / wall seconds; "
        "native on spmm_sweep, on dec_* it also counts prefill steps, on enc_* it is tok_per_s "
        "times a constant",
        "workloads": ALL,
    },
    "latency_p50_ms": {
        "clock": "wall",
        "definition": "completion minus due time (enc_online, open loop at the lo rate) or minus submit time "
        "(closed loops): the window on enc_offline, the request on dec_*, one "
        "pass over the 36 cells on spmm_sweep",
        "workloads": ALL,
    },
    "ttft_p50_ms": {
        "clock": "wall",
        "definition": "submit to the return of the first step() after the one that admitted the "
        "request (dec_*); one-shot operations deliver their only output at completion, so on "
        "enc_* and spmm_sweep this is an alias of latency",
        "workloads": ALL,
    },
    "tpot_p50_ms": {
        "clock": "wall",
        "definition": "gap between consecutive step() returns while resident, pooled over "
        "requests (dec_*); normalised latency elsewhere: latency / output tokens of the request "
        "(enc_online), of the window (enc_offline), of the pass per RHS column (spmm_sweep)",
        "workloads": ALL,
    },
    "goodput_frac": {
        "clock": "wall",
        "definition": "operations *sent* that finished ok inside the frozen limits (latency; TTFT "
        "and mean inter-token gap on dec_*); failed, shed and expired operations are misses",
        "workloads": ALL,
    },
    "modelled_speedup_vs_cublas": {
        "clock": "modelled",
        "definition": "geomean over the workload's (operand, C) grid of estimate(cublas-dense) / "
        "estimate(chosen backend) on the RTX 3090 spec; seed-independent, repeats exactly",
        "workloads": ALL,
    },
    "peak_rss_mb": {
        "clock": "none",
        "definition": "ru_maxrss of the workload's fresh process (its repeated set-ups included)",
        "workloads": ALL,
    },
}

#: Per-layer metrics: name -> (clock, end-to-end metrics it should move,
#: workloads where it should move them, workloads where the prediction is
#: no change / the metric reads 0).
Row = Tuple[str, Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]


def _rows(names, clock, moves, on, zero_on) -> Dict[str, Row]:
    return {name: (clock, tuple(moves), tuple(on), tuple(zero_on)) for name in names}


PER_LAYER: Dict[str, Row] = {
    **_rows(
        ("models.ffn.self_ms", "models.ffn.self_share", "models.functional.gelu_ms"),
        "wall", ("tok_per_s",), ("enc_offline",), ("spmm_sweep",),
    ),
    **_rows(
        ("models.attention.self_ms", "models.attention.self_share", "models.functional.softmax_ms"),
        "wall", ("tok_per_s", "tpot_p50_ms"), ("enc_offline", "dec_shared"), ("spmm_sweep",),
    ),
    **_rows(
        ("models.encoder_layer.self_ms", "models.functional.layer_norm_ms"),
        "wall", ("tok_per_s",), ("enc_offline",), ("spmm_sweep",),
    ),
    **_rows(
        ("models.transformer.forward_self_ms", "models.transformer.groups_per_batch"),
        "wall", ("tok_per_s", "latency_p50_ms"), ENC, DEC,
    ),
    **_rows(
        ("models.layers.sparse_linear_ms", "models.layers.sparse_linear_share",
         "models.layers.sparse_linear_calls"),
        "wall", ("tok_per_s", "tpot_p50_ms"), ("enc_offline",) + DEC, ("spmm_sweep",),
    ),
    **_rows(
        ("models.transformer.forward_step_ms_p50",),
        "wall", ("tpot_p50_ms", "ttft_p50_ms"), DEC, ENC,
    ),
    **_rows(
        ("models.kv_cache.extend_us_p50", "models.kv_cache.extend_us_p99",
         "models.kv_cache.extend_ms_max", "models.kv_cache.first_cow_ms"),
        "wall", ("goodput_frac", "tpot_p50_ms", "setup_s"), ("dec_shared",), ("dec_prefill",) + ENC,
    ),
    **_rows(
        ("models.kv_cache.gathered_us_p50", "models.kv_cache.append_us_p50"),
        "wall", ("tpot_p50_ms",), ("dec_shared",), ENC,
    ),
    **_rows(
        ("models.kv_cache.prefix_hit_rate", "models.kv_cache.cow_copies",
         "models.kv_cache.evictions", "models.kv_cache.peak_blocks_in_use",
         "models.kv_cache.reserved_over_used"),
        "none", ("ttft_p50_ms", "tok_per_s", "goodput_frac"), DEC, ENC,
    ),
    **_rows(
        ("serving.decoder.step_self_ms_p50", "serving.decoder.prefill_ms_per_token",
         "serving.decoder.decode_ms_per_token", "serving.decoder.prefill_share"),
        "wall", ("ttft_p50_ms", "tpot_p50_ms", "goodput_frac", "tok_per_s"), DEC, ENC + ("spmm_sweep",),
    ),
    **_rows(
        ("serving.decoder.prefills", "serving.decoder.prefills_skipped",
         "serving.decoder.decode_steps", "serving.decoder.steps_executed",
         "serving.decoder.residents_mean", "serving.decoder.preemptions"),
        "none", ("ttft_p50_ms", "tpot_p50_ms", "goodput_frac", "tok_per_s"), DEC, ENC + ("spmm_sweep",),
    ),
    **_rows(
        ("serving.model_engine.step_self_ms", "serving.model_engine.self_share"),
        "wall", ("tok_per_s", "latency_p50_ms"), ENC, ("spmm_sweep",) + DEC,
    ),
    **_rows(
        ("serving.model_engine.batches", "serving.model_engine.mean_batch_size",
         "serving.model_engine.padding_fill", "serving.model_engine.plan_cache_hit_rate"),
        "none", ("tok_per_s", "latency_p50_ms"), ENC, ("spmm_sweep",) + DEC,
    ),
    **_rows(
        ("hardware.perf_model.estimate_us_p50",),
        "wall", ("tok_per_s", "latency_p50_ms"), ENC, (),
    ),
    **_rows(
        ("hardware.trace.events_per_request",),
        "none", ("tok_per_s", "latency_p50_ms"), ENC, ("spmm_sweep",) + DEC,
    ),
    **_rows(
        ("hardware.trace.modelled_ms_total", "hardware.trace.modelled_ms.gemm",
         "hardware.trace.modelled_ms.matmul", "hardware.trace.modelled_ms.softmax",
         "hardware.trace.modelled_ms.other"),
        "modelled", ("modelled_speedup_vs_cublas",), ENC, ("spmm_sweep",) + DEC,
    ),
    **_rows(
        ("serving.continuous.submit_us_p50", "serving.continuous.next_batch_us_p50",
         "serving.continuous.next_batch_us_p95", "serving.continuous.next_batch_slo_us_p50",
         "serving.continuous.queue_wait_ms_p50", "serving.continuous.queue_wait_ms_p95"),
        "wall", ("latency_p50_ms", "goodput_frac"), ("enc_online",), ("enc_offline", "spmm_sweep"),
    ),
    **_rows(
        ("serving.continuous.queue_depth_max", "serving.continuous.shed",
         "serving.continuous.expired"),
        "none", ("latency_p50_ms", "goodput_frac"), ("enc_online",), ("enc_offline", "spmm_sweep"),
    ),
    **_rows(
        ("serving.rate.mid.latency_p95_ms", "serving.rate.hi.latency_p95_ms",
         "serving.rate.hi.goodput_frac", "serving.max_ok_rps"),
        "wall", ("latency_p50_ms", "goodput_frac"), ("enc_online",), (),
    ),
    **_rows(
        ("kernels.dispatch.execute_self_us_p50",),
        "wall", ("tpot_p50_ms", "spmm_gflop_per_s", "latency_p50_ms"),
        ("dec_shared", "spmm_sweep", "enc_online"), (),
    ),
    **_rows(
        ("kernels.dispatch.calls", "kernels.dispatch.signature_cache_hit_rate",
         "kernels.dispatch.failovers", "kernels.dispatch.backend_share.spatha-plan",
         "kernels.dispatch.backend_share.sputnik-csr",
         "kernels.dispatch.backend_share.cusparse-blocked-ell",
         "kernels.dispatch.backend_share.cublas-dense"),
        "none", ("tpot_p50_ms", "spmm_gflop_per_s", "latency_p50_ms"),
        ("dec_shared", "spmm_sweep", "enc_online"), (),
    ),
    **_rows(
        ("kernels.spatha.execute_ms.c1", "kernels.spatha.execute_ms.c64",
         "kernels.spatha.execute_ms.c512", "kernels.spatha.gflop_per_s.c512",
         "kernels.spatha.plan_build_ms"),
        "wall", ("spmm_gflop_per_s", "tok_per_s", "setup_s"), ("spmm_sweep", "enc_offline"), (),
    ),
    **_rows(
        ("kernels.spatha.flops_per_call", "kernels.spatha.bytes_per_call_computed"),
        "none", ("spmm_gflop_per_s",), ("spmm_sweep", "enc_offline"), (),
    ),
    **_rows(
        ("kernels.sputnik.spmm_ms", "kernels.cusparse.spmm_ms", "kernels.cublas.gemm_ms"),
        "wall", ("spmm_gflop_per_s",), ("spmm_sweep",), SERVING,
    ),
    **_rows(
        ("formats.vnm.from_dense_ms", "formats.vnm.to_dense_ms", "formats.csr.from_dense_ms",
         "formats.blocked_ell.from_dense_ms", "formats.cvse.from_dense_ms",
         "pruning.vnm.prune_ms", "pruning.second_order.fisher_ms",
         "pruning.second_order.vnm_prune_ms"),
        "wall", ("setup_s",), ALL, (),
    ),
    **_rows(
        ("integration.sparsify_encoder_ms",),
        "wall", ("setup_s",), SERVING, ("spmm_sweep",),
    ),
    **_rows(
        ("bench.generator_late_ms_p95",),
        "wall", ("latency_p50_ms", "goodput_frac"), ("enc_online",), (),
    ),
    **_rows(
        ("bench.latency_p95_ms", "bench.ttft_p95_ms", "bench.tpot_p95_ms"),
        "wall", ("goodput_frac", "latency_p50_ms", "ttft_p50_ms", "tpot_p50_ms"), ALL, (),
    ),
    **_rows(
        ("bench.trace_overhead_frac",),
        "wall", ("tok_per_s", "latency_p50_ms"), ALL, (),
    ),
}

#: Metric name -> clock, for the runner's printout.
CLOCKS: Dict[str, str] = {name: str(extra["clock"]) for name, extra in END_TO_END.items()}
CLOCKS.update({name: row[0] for name, row in PER_LAYER.items()})

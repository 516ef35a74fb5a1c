"""The repo benchmark's tracer hooks exist on live decoder and encoder engines.

``bench/instrument.py`` wraps instance methods of the engine it measures,
and the decode workload reads a few counters, all by name.  A KV-store
refactor that renames or bypasses one of them breaks only the traced
benchmark run (``bench/run.py --trace 1``), minutes into CI.  This test
drives the real instrumentation over a small decode and a ragged encoder
window, so the same break fails tier-1 in seconds: every wrap target must
exist (``Tracer.wrap`` looks each one up), the hooks must record spans,
and every counter the workloads and the per-layer metrics read must be
there.
"""

import sys
from pathlib import Path

import numpy as np

from repro.integration import VNMSparsifier, sparsify_encoder
from repro.models import TransformerEncoder, tiny_config
from repro.serving import DecodeRequest, ModelServingEngine, Request, ServingConfig, create_engine

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))
try:
    from bench.instrument import instrument_decoder_engine, instrument_model_engine
    from bench.trace import Tracer
finally:
    sys.path.pop(0)

HIDDEN = 32

#: Span names of the KV hooks: handle ``extend`` / ``append`` / ``gathered``
#: and cache ``create`` / ``free`` / ``attach_prefix`` / ``register_prefix``.
KV_SPANS = {
    f"models.kv_cache.{hook}"
    for hook in ("extend", "append", "gathered", "create", "free", "attach_prefix", "register_prefix")
}


#: Spans a traced encoder workload reads, from the stack down to the batcher.
ENCODER_SPANS = {
    "models.transformer.forward",
    "models.encoder_layer.forward",
    "models.attention.forward",
    "models.ffn.forward",
    "models.layers.sparse_linear",
    "kernels.dispatch.execute",
    "serving.continuous.next_batch",
}


def make_encoder():
    cfg = tiny_config(hidden_size=HIDDEN, num_layers=2, num_heads=2, intermediate_size=2 * HIDDEN)
    encoder = TransformerEncoder.init(cfg, seed=0)
    sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
    return encoder


def test_every_encoder_hook_bench_uses_exists_and_fires():
    engine = ModelServingEngine(make_encoder(), config=ServingConfig(padding="ladder"))
    tracer, seen_batches = Tracer(), []
    instrument_model_engine(tracer, engine, seen_batches)

    rng = np.random.default_rng(0)
    requests = [
        Request(f"r{i}", rng.normal(size=(t, HIDDEN)).astype(np.float32))
        for i, t in enumerate([3, 7, 7, 12, 5])
    ]
    assert len(engine.serve(requests)) == len(requests)

    recorded = {tracer.names[code] for code in tracer.code}
    assert ENCODER_SPANS <= recorded, sorted(ENCODER_SPANS - recorded)
    assert seen_batches
    # Read from stats() by the per-layer metrics.
    stats = engine.stats()
    for key in ("requests", "batches"):
        assert isinstance(stats[key], int), key
    for key in ("valid_tokens", "bucket_tokens"):
        assert isinstance(stats["padding"][key], int), key
    for key in ("hits", "misses"):
        assert isinstance(stats["plan_cache"][key], int), key
    assert engine.trace.executions


def test_every_decoder_hook_bench_uses_exists_and_fires():
    encoder = make_encoder()
    engine = create_engine(
        encoder,
        kind="decoder",
        config=ServingConfig(block_size=4, capacity_blocks=32, kv_budget_blocks=32),
    )
    tracer, prompt_lengths = Tracer(), {}
    instrument_decoder_engine(tracer, engine, prompt_lengths)

    # Two requests on one 6-token prompt: the second attaches to the first's
    # registered prefix and copies-on-write its partial tail block.
    prompt = np.random.default_rng(0).normal(size=(6, HIDDEN)).astype(np.float32)
    requests = [DecodeRequest(rid, prompt, new_tokens=3) for rid in ("a", "b")]
    for request in requests:
        prompt_lengths[request.request_id] = request.prompt.shape[0]
    assert len(engine.serve(requests)) == 2

    recorded = {tracer.names[code] for code in tracer.code}
    assert KV_SPANS <= recorded, sorted(KV_SPANS - recorded)
    assert "serving.decoder.step" in recorded
    # Read directly by the decode workload and the extend wrapper.
    for value in (engine.kv.cow_copies, engine.kv.blocks_in_use, engine.batcher.kv_reserved):
        assert isinstance(value, int)
    assert engine.kv.cow_copies >= 1
    # Read from stats() by the per-layer metrics.
    stats = engine.stats()
    for key in ("requests", "prefills", "prefills_skipped", "decode_steps", "preemptions"):
        assert isinstance(stats[key], int), key
    for key in ("cow_copies", "evictions", "peak_blocks_in_use", "prefix_hits"):
        assert isinstance(stats["cache"][key], int), key
    assert isinstance(stats["continuous"]["steps"], int)

"""Which instance methods the tracer wraps, and the span names they get.

Span names are ``<repro module>.<call>`` so the per-layer summary groups by
module.  Everything wrapped here is an *instance* the benchmark built;
nothing under ``src/`` is edited or monkey-patched at class level.
"""

from __future__ import annotations

from .trace import Tracer

#: Dispatcher backend name -> span prefix (the backend's own module).
BACKEND_SPANS = {
    "spatha-plan": "kernels.spatha.execute",
    "sputnik-csr": "kernels.sputnik.execute",
    "cusparse-blocked-ell": "kernels.cusparse.execute",
    "cublas-dense": "kernels.cublas.execute",
}


def _columns(b) -> int:
    return b.shape[-1] * (b.shape[0] if b.ndim == 3 else 1)


def _call_flops(operand, b, bias=None):
    """(columns, dense-equivalent FLOPs) of one dispatched call."""
    cols = _columns(b)
    return float(cols), 2.0 * operand.r * operand.k * cols


def _call_bytes(operand, b):
    """(columns, bytes moved) of one backend call — *computed* from array
    sizes (stored operand + RHS + fp32 output), not measured."""
    cols = _columns(b)
    vnm = operand.vnm
    stored = (
        vnm.values.nbytes + vnm.m_indices.nbytes + vnm.column_loc.nbytes
        if vnm is not None
        else operand.r * operand.k * 4
    )
    return float(cols), float(stored + b.nbytes + operand.r * cols * 4)


def instrument_dispatcher(tracer: Tracer, dispatcher) -> None:
    tracer.wrap(dispatcher, "execute", "kernels.dispatch.execute", before=_call_flops)
    for backend in dispatcher.backends:
        span = BACKEND_SPANS.get(backend.name)
        if span is not None:
            tracer.wrap(backend, "execute", span, before=_call_bytes)


def instrument_encoder(tracer: Tracer, encoder, prompt_lengths=None) -> None:
    """Wrap the stack, each block, its attention / FFN and every sparse
    projection.  ``prompt_lengths`` (``{sequence id: prompt tokens}``, kept
    current by the decode driver) lets a forward step be named prefill or
    decode from the handle's public ``seq_id`` / ``length``.
    """
    cfg = encoder.config
    heads, inter = cfg.num_heads, cfg.intermediate_size

    def step_name(token, kv):
        prompt = prompt_lengths.get(getattr(kv, "seq_id", None), 0) if prompt_lengths else 0
        phase = "prefill" if kv.length < prompt else "decode"
        return f"models.transformer.forward_step.{phase}"

    def layer_shapes(hidden, attention_mask=None):
        tracer.count_shape("layer_norm", tuple(hidden.shape))

    def step_shapes(token, kv_view):
        tracer.count_shape("layer_norm", (1, cfg.hidden_size))

    def attention_shapes(hidden, return_probs=False, mask=None):
        tracer.count_shape("softmax", (hidden.shape[0], heads, hidden.shape[1], hidden.shape[1]))

    def attention_step_shapes(token, kv_view, return_probs=False):
        tracer.count_shape("softmax", (1, heads, 1, len(kv_view) + 1))

    def ffn_shapes(hidden):
        tracer.count_shape("gelu", tuple(hidden.shape[:-1]) + (inter,))

    tracer.wrap(encoder, "forward", "models.transformer.forward")
    tracer.wrap(encoder, "forward_step", "models.transformer.forward_step", name_fn=step_name)
    for layer in encoder.layers:
        tracer.wrap(layer, "forward", "models.encoder_layer.forward", before=layer_shapes)
        tracer.wrap(layer, "forward_step", "models.encoder_layer.forward_step", before=step_shapes)
        tracer.wrap(layer.attention, "forward", "models.attention.forward", before=attention_shapes)
        tracer.wrap(
            layer.attention, "forward_step", "models.attention.forward_step",
            before=attention_step_shapes,
        )
        tracer.wrap(layer.ffn, "forward", "models.ffn.forward", before=ffn_shapes)
    for _, lin in encoder.named_sparse_layers():
        tracer.wrap(lin, "forward", "models.layers.sparse_linear")


def instrument_batcher(tracer: Tracer, batcher, seen_batches=None) -> None:
    """Wrap intake and scheduling.  ``seen_batches`` collects the
    ``(batch_size, rung)`` of every micro-batch handed to the engine, which
    the modelled-clock replay prices afterwards."""

    def note(batch):
        if seen_batches is None or batch is None:
            return
        for one in batch if isinstance(batch, list) else [batch]:
            seen_batches.append((one.batch_size, one.key.token_bucket))

    module = "serving.continuous" if hasattr(batcher, "next_batch") else "serving.batcher"
    tracer.wrap(batcher, "submit", f"{module}.submit")
    tracer.wrap(batcher, "submit_many", f"{module}.submit_many")
    tracer.wrap(batcher, "drain", f"{module}.drain", after=note)
    if hasattr(batcher, "next_batch"):
        tracer.wrap(batcher, "next_batch", f"{module}.next_batch", after=note)


def instrument_model_engine(tracer: Tracer, engine, seen_batches=None) -> None:
    tracer.wrap(engine, "serve", "serving.model_engine.serve")
    tracer.wrap(engine, "step", "serving.model_engine.step")
    tracer.wrap(engine, "submit", "serving.model_engine.submit")
    instrument_batcher(tracer, engine.batcher, seen_batches)
    instrument_encoder(tracer, engine.encoder)
    instrument_dispatcher(tracer, engine.dispatcher)


def instrument_decoder_engine(tracer: Tracer, engine, prompt_lengths) -> None:
    tracer.wrap(engine, "step", "serving.decoder.step")
    tracer.wrap(engine, "submit", "serving.decoder.submit")
    instrument_batcher(tracer, engine.batcher)
    instrument_encoder(tracer, engine.encoder, prompt_lengths)
    instrument_dispatcher(tracer, engine.dispatcher)
    kv = engine.kv

    def wrap_handle(handle):
        # Slots ``a`` / ``b`` hold the copy-on-write count before / after the
        # call, so the analysis can tell which extends copied a shared block.
        tracer.wrap(
            handle, "extend", "models.kv_cache.extend",
            before=lambda: (float(kv.cow_copies), 0.0),
            after=lambda _: float(kv.cow_copies),
        )
        tracer.wrap(handle, "append", "models.kv_cache.append")
        tracer.wrap(handle, "gathered", "models.kv_cache.gathered")

    tracer.wrap(kv, "create", "models.kv_cache.create", after=wrap_handle)
    tracer.wrap(kv, "free", "models.kv_cache.free")
    tracer.wrap(kv, "attach_prefix", "models.kv_cache.attach_prefix")
    tracer.wrap(kv, "register_prefix", "models.kv_cache.register_prefix")

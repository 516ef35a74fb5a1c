"""The simulator agrees with the live engine it predicts.

A trace runs through :class:`~repro.serving.simulate.ModelledEngine`, then
replays on a live :class:`~repro.serving.model_engine.ModelServingEngine`
over the same encoder, whose dispatcher is armed with the same fault plan,
stepped at every instant the modelled engine stepped (arrivals up to that
instant submitted first).  The two must agree on every completion record
(step, rung, batch size, instant), every request's terminal state, the
shed set and every backend's injector call count — over random arrivals,
token counts, deadlines, priority classes, scheduling policies, bounded
queues, shed policies, exact and ladder padding, and fault plans.  The
call counts agree only because the modelled engine walks the forward's
own call sequence: length groups shortest first, each group's
projections in forward order.  With exact padding and no faults the
modelled launches — every projection's GEMM — are also the live trace's,
launch for launch.  What differs is only what each executes: real
kernels behind the dispatcher's failover walk, or modelled charges
behind the same walk.

The encoder keeps its attention projections dense (one candidate,
``cublas-dense``) and its FFN V:N:M (two candidates), so a walk out of
forward order moves the backends' call counters.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.integration import VNMSparsifier, sparsify_encoder
from repro.kernels.dispatch import CircuitBreaker, KernelDispatcher
from repro.models import TransformerEncoder, tiny_config
from repro.serving import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ModelServingEngine,
    Request,
    SchedulingConfig,
    ServingConfig,
)
from repro.serving.continuous import SHED_POLICIES
from repro.serving.simulate import ModelledEngine

HIDDEN = 32

ENCODER = TransformerEncoder.init(
    tiny_config(hidden_size=HIDDEN, num_layers=1, num_heads=2, intermediate_size=64), seed=0
)
sparsify_encoder(ENCODER, VNMSparsifier(n=2, m=8, v=16), weight_filter=lambda name: ".ffn." in name)
#: One dispatcher for every example: decisions and estimates are pure, so
#: sharing them is the sweep contract; backend health is reset per example.
DISPATCHER = KernelDispatcher()
BACKENDS = [b.name for b in DISPATCHER.backends]

SCHEDULINGS = [
    SchedulingConfig(),
    SchedulingConfig(policy="priority", class_weights=(1, 3)),
]


def _request(rid, tokens, arrival_us=0.0, deadline_us=None, priority_class=0):
    return Request(rid, np.ones((tokens, HIDDEN), dtype=np.float32), arrival_us, deadline_us, priority_class)


def _every_backend_fails(call):
    return FaultPlan([FaultSpec(backend=n, kind="transient", at_call=call) for n in BACKENDS])


def _config(padding="ladder", **knobs):
    """Three slots per micro-batch, unbounded FCFS unless ``knobs`` say
    otherwise; ``"ladder"`` is the default ladder."""
    return ServingConfig(padding=padding, max_batch_size=3, warm=False, **knobs)


#: Pinned cells for the rules the simulator used to get wrong: a chunk every
#: backend fails is bisected (not failed whole), and a deadline is judged
#: before execution (a chunk that starts late still completes ``ok``) —
#: and a fault-free exact-length run, where the modelled launches must be
#: the live trace's.
BISECTION = ([_request(f"b{i}", 12) for i in range(4)], _every_backend_fails(0), _config())
DEADLINES = ([_request("a", 12, deadline_us=1.0), _request("b", 30, deadline_us=1.0)], FaultPlan(), _config())
EXACT = (
    [_request(f"s{i}", t, 10.0 * i) for i, t in enumerate([5, 5, 12, 5, 30])],
    FaultPlan(),
    _config("exact"),
)


@st.composite
def traces(draw):
    requests = []
    for i in range(draw(st.integers(1, 10))):
        arrival = 5.0 * draw(st.integers(0, 30))  # a coarse grid: ties happen
        slack = draw(st.one_of(st.none(), st.integers(0, 60)))
        requests.append(
            _request(
                f"r{i:02d}",
                draw(st.integers(1, 36)),
                arrival,
                None if slack is None else arrival + slack,
                draw(st.integers(0, 1)),
            )
        )
    plan = draw(
        st.one_of(
            st.just(FaultPlan()),
            st.builds(
                lambda seed: FaultPlan.seeded(
                    BACKENDS, seed, failure_rate=0.4, latency_rate=0.1, latency_us=25.0
                ),
                st.integers(0, 1000),
            ),
            st.builds(_every_backend_fails, st.integers(0, 2)),
        )
    )
    config = _config(
        draw(st.sampled_from(["exact", "ladder"])),
        scheduling_policy=draw(st.sampled_from(SCHEDULINGS)),
        max_queue_depth=draw(st.one_of(st.none(), st.integers(1, 4))),
        shed_policy=draw(st.sampled_from(SHED_POLICIES)),
    )
    return requests, plan, config


class _SteppedModelledEngine(ModelledEngine):
    """Records the instant of every step ``serve_continuous`` takes."""

    def __init__(self, *args):
        super().__init__(*args)
        self.stepped = []

    def step(self, now_us):
        self.stepped.append(now_us)
        return super().step(now_us)


def _records(engine):
    completions = {
        rid: (c.step, c.rung, c.batch_size, c.completed_us) for rid, c in engine.completions.items()
    }
    return completions, {rid: o.status for rid, o in engine.outcomes.items()}


def _launches(trace):
    """Every modelled launch: its kind, time and what it was charged for."""
    return [
        (
            e.category,
            e.kernel,
            e.time_us,
            e.meta.get("layer"),
            e.meta.get("backend"),
            e.meta["batch_size"],
            e.meta["tokens"],
        )
        for e in trace.executions
    ]


def check_agreement(trace):
    requests, plan, config = trace
    dispatcher = DISPATCHER
    modelled = _SteppedModelledEngine(ENCODER, replace(config, name="agreement"), dispatcher, plan)
    modelled.serve_continuous(requests)

    live = ModelServingEngine(ENCODER, dispatcher=dispatcher, config=replace(config, name="agreement"))
    dispatcher.breaker = CircuitBreaker()
    injector = FaultInjector(plan).arm(dispatcher)
    try:
        order = sorted(requests, key=lambda r: (r.arrival_us, r.request_id))
        submitted = 0
        for now_us in modelled.stepped:
            while submitted < len(order) and order[submitted].arrival_us <= now_us:
                live.submit(order[submitted])
                submitted += 1
            live.step(now_us)
    finally:
        injector.disarm(dispatcher)

    assert submitted == len(requests)
    assert live.batcher.pending == 0
    assert _records(live) == _records(modelled)
    assert set(modelled.outcomes) == {r.request_id for r in requests}
    assert injector.stats()["calls"] == modelled.injector.stats()["calls"]
    if config.padding == "exact" and not plan.specs:
        # One group per micro-batch at its true length: each micro-batch's
        # modelled GEMMs are the live trace's, in order.
        assert _launches(modelled.trace) == _launches(live.trace)
        assert modelled.total_batches == live.total_batches


_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=25, **_SETTINGS)
@given(trace=traces())
@example(trace=BISECTION)
@example(trace=DEADLINES)
@example(trace=EXACT)
def test_simulator_agrees_with_live_engine(trace):
    check_agreement(trace)


#: Fault-free exact-length traces, pinned: ``(tokens, arrival_us, class)``
#: per request.  Same-instant arrivals share a micro-batch, spread ones take
#: their own steps, and a queue longer than ``max_batch_size`` is chunked; a
#: trace with a second class runs under strict priority.
EXACT_CELLS = {
    "one-request": [(7, 0.0, 0)],
    "same-length-burst": [(9, 0.0, 0)] * 5,
    "ragged-burst": [(3, 0.0, 0), (12, 0.0, 0), (3, 0.0, 0), (30, 0.0, 0), (12, 0.0, 0)],
    "spread": [(5, 0.0, 0), (5, 40.0, 0), (17, 80.0, 0), (5, 120.0, 0)],
    "ties-on-a-grid": [(8, 0.0, 0), (8, 5.0, 0), (16, 5.0, 0), (8, 10.0, 0), (16, 10.0, 0), (36, 10.0, 0)],
    "two-classes": [(6, 0.0, 0), (6, 0.0, 1), (11, 0.0, 0), (6, 20.0, 1)],
}


@pytest.mark.parametrize("cell", sorted(EXACT_CELLS))
def test_exact_fault_free_cells_agree_launch_for_launch(cell):
    requests = [
        _request(f"x{i}", tokens, arrival, priority_class=cls)
        for i, (tokens, arrival, cls) in enumerate(EXACT_CELLS[cell])
    ]
    scheduling = SCHEDULINGS[1] if any(r.priority_class for r in requests) else SCHEDULINGS[0]
    check_agreement((requests, FaultPlan(), _config("exact", scheduling_policy=scheduling)))


@pytest.mark.slow
@settings(max_examples=500, **_SETTINGS)
@given(trace=traces())
@example(trace=BISECTION)
@example(trace=DEADLINES)
@example(trace=EXACT)
def test_simulator_agrees_with_live_engine_large(trace):
    check_agreement(trace)


def test_modelled_launches_share_one_record_per_key():
    """The simulator records as the live engine does: a launch is the
    shared, read-only record of its (layer, served backend, group size,
    tokens), so a failover's launch is its own record naming the backend
    that served it, and equal keys append the very same object."""
    plan = FaultPlan([FaultSpec(backend="cublas-dense", kind="transient", at_call=4)])
    dispatcher = KernelDispatcher()
    engine = ModelledEngine(ENCODER, _config("exact", name="shared"), dispatcher, plan)
    engine.serve_continuous([_request(f"k{i}", 9, 100.0 * i) for i in range(3)])
    layers = list(ENCODER.named_linear_layers())
    launches = engine.trace.executions
    assert len(launches) == 3 * len(layers)
    first, second, third = (launches[i * len(layers):(i + 1) * len(layers)] for i in range(3))
    # cuBLAS call 4 is the first FFN projection: it fails over to Spatha.
    assert [e.meta["backend"] for e in first] == ["cublas-dense"] * 4 + ["spatha-plan", "cublas-dense"]
    assert [a is b for a, b in zip(first, second)] == [True] * 4 + [False, True]
    assert all(a is b for a, b in zip(second, third))
    for (name, lin), e in zip(layers, first):
        fresh = dispatcher.estimate(lin.operand, 9, backend=e.meta["backend"]).as_execution()
        fresh.meta.update(serving="shared", layer=name, backend=e.meta["backend"], batch_size=1, tokens=9)
        assert e == fresh
        with pytest.raises(TypeError):
            e.meta["layer"] = "elsewhere"

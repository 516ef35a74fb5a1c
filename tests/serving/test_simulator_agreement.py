"""The simulator agrees with the live engine it predicts.

A trace runs through :class:`~repro.serving.simulate.ModelledEngine`, then
replays on a live :class:`~repro.serving.engine.ServingEngine` whose
dispatcher is armed with the same fault plan, stepped at every instant the
modelled engine stepped (arrivals up to that instant submitted first).
The two must agree on every completion record (step, rung, batch size,
instant), every request's terminal state and the shed set — over random
arrivals, token counts, deadlines, priority classes, scheduling policies,
bounded queues, shed policies and fault plans.  What differs is only what
each executes: real kernels behind the dispatcher's failover walk, or
modelled charges behind the same walk.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.formats.vnm import VNMSparseMatrix
from repro.kernels.dispatch import CircuitBreaker, KernelDispatcher, SpmmOperand
from repro.pruning.masks import apply_mask
from repro.pruning.vnm import vnm_mask
from repro.serving import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    Request,
    SchedulingConfig,
    ServingConfig,
    ServingEngine,
)
from repro.serving.continuous import SHED_POLICIES
from repro.serving.simulate import ModelledEngine

K = 32

_dense = np.random.default_rng(0).normal(size=(32, K))
OPERAND = SpmmOperand.from_vnm(
    VNMSparseMatrix.from_dense(
        apply_mask(_dense, vnm_mask(_dense, v=16, n=2, m=8)).astype(np.float32),
        v=16, n=2, m=8, strict=True,
    )
)
#: One dispatcher for every example: decisions and estimates are pure, so
#: sharing them is the sweep contract; backend health is reset per example.
DISPATCHER = KernelDispatcher()
BACKENDS = [b.name for b in DISPATCHER.backends]

SCHEDULINGS = [
    SchedulingConfig(),
    SchedulingConfig(policy="priority", class_weights=(1, 3)),
    SchedulingConfig(policy="weighted-fair", class_weights=(1, 3)),
]


def _request(rid, tokens, arrival_us=0.0, deadline_us=None, priority_class=0):
    return Request(rid, np.ones((tokens, K), dtype=np.float32), arrival_us, deadline_us, priority_class)


def _every_backend_fails(call):
    return FaultPlan([FaultSpec(backend=n, kind="transient", at_call=call) for n in BACKENDS])


#: Three rungs of three slots, FCFS, unbounded; examples vary the admission knobs.
CONFIG = ServingConfig(padding="ladder", token_buckets=(8, 16, 32), max_batch_size=3, warm=False)
#: Pinned cells for the rules the simulator used to get wrong: a chunk every
#: backend fails is bisected (not failed whole), and a deadline is judged
#: before execution (a chunk that starts late still completes ``ok``).
BISECTION = ([_request(f"b{i}", 12) for i in range(4)], _every_backend_fails(0), CONFIG)
DEADLINES = ([_request("a", 12, deadline_us=1.0), _request("b", 30, deadline_us=1.0)], FaultPlan(), CONFIG)


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
    config = replace(
        CONFIG,
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


def check_agreement(trace):
    requests, plan, config = trace
    modelled = _SteppedModelledEngine(OPERAND, config, DISPATCHER, plan)
    modelled.serve_continuous(requests)

    live = ServingEngine(OPERAND, dispatcher=DISPATCHER, config=config)
    DISPATCHER.breaker = CircuitBreaker()
    injector = FaultInjector(plan).arm(DISPATCHER)
    try:
        order = sorted(requests, key=lambda r: (r.arrival_us, r.request_id))
        submitted = 0
        for now_us in modelled.stepped:
            while submitted < len(order) and order[submitted].arrival_us <= now_us:
                live.submit(order[submitted])
                submitted += 1
            live.step(now_us)
    finally:
        injector.disarm(DISPATCHER)

    assert submitted == len(requests)
    assert live.batcher.pending == 0
    assert _records(live) == _records(modelled)
    assert set(modelled.outcomes) == {r.request_id for r in requests}
    assert injector.stats()["calls"] == modelled.injector.stats()["calls"]


_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=25, **_SETTINGS)
@given(trace=traces())
@example(trace=BISECTION)
@example(trace=DEADLINES)
def test_simulator_agrees_with_live_engine(trace):
    check_agreement(trace)


@pytest.mark.slow
@settings(max_examples=500, **_SETTINGS)
@given(trace=traces())
@example(trace=BISECTION)
@example(trace=DEADLINES)
def test_simulator_agrees_with_live_engine_large(trace):
    check_agreement(trace)

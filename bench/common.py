"""Pieces every workload shares: the served model, the length law, sample
bookkeeping and the literals frozen at authoring time.

Only public ``repro`` names are imported here and in the workload modules —
never an underscore name, never a deprecated engine keyword — so an engine
refactor that keeps the public surface can land under the benchmark
unchanged (``bench/tests`` checks the imports).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.integration import VNMSparsifier, sparsify_encoder
from repro.models import TransformerEncoder, tiny_config

HIDDEN = 256
_STANDARD_NORMAL = NormalDist()
#: The bucket-ladder rungs the clipped length law can land on.
RUNGS = (8, 16, 32, 64, 128)
#: Weights are the same in every run; ``--seed`` only drives the inputs.
MODEL_SEED = 0

#: Goodput limits, frozen as literals at 3x the p50 measured at authoring
#: time on the 2-core reference box (see README "How the literals were
#: frozen").  ``latency`` applies to one-shot operations; ``ttft`` and
#: ``tpot`` (the request's mean inter-token gap) to decode requests; ``cN`` to
#: sweep cells of N columns.  An operation that fails, is shed or misses any
#: of its limits is a goodput miss.
LIMITS_MS: Dict[str, Dict[str, float]] = {
    "enc_offline": {"latency": 1500.0},
    "enc_online": {"latency": 33.0},
    "dec_prefill": {"ttft": 870.0, "tpot": 345.0},
    "dec_shared": {"ttft": 47.0, "tpot": 29.0},
    "spmm_sweep": {"c1": 3.3, "c64": 17.0, "c512": 95.0},
}

#: Open-loop arrival rates (requests/s) for ``enc_online``: about 0.35 / 0.6
#: / 0.85 of the saturation rate measured once at authoring time.  The
#: end-to-end metrics are read at ``lo``; ``mid`` and ``hi`` are the traced
#: run's rate ladder (see README for why).
ONLINE_RATES = {"lo": 40.0, "mid": 70.0, "hi": 100.0}


def build_encoder() -> TransformerEncoder:
    """The encoder the ROADMAP profile was taken on: h256/i1024, 2 layers, 4
    heads, every projection pruned to 16:2:8."""
    cfg = tiny_config(hidden_size=HIDDEN, intermediate_size=1024, num_layers=2, num_heads=4)
    encoder = TransformerEncoder.init(cfg, seed=MODEL_SEED)
    sparsify_encoder(encoder, VNMSparsifier(n=2, m=8, v=16))
    return encoder


def flops_per_token(encoder: TransformerEncoder) -> float:
    """Dense-equivalent FLOPs one token spends in the sparse projections."""
    return float(sum(2.0 * lin.operand.r * lin.operand.k for _, lin in encoder.named_sparse_layers()))


def request_lengths(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` token counts from a clipped log-normal: median 24, at most 128.

    Stratified: one draw inside each of ``count`` equal-probability strata,
    then shuffled.  Individual lengths still vary from batch to batch, but
    every batch has nearly the same token total, so run-to-run spread comes
    from the system and not from which seed drew the longer requests.  A
    narrow law on purpose: equal lengths recur inside a window, which is
    what the encoder's equal-length grouping feeds on.
    """
    quantiles = (np.arange(count) + rng.random(count)) / count
    normal = np.array([_STANDARD_NORMAL.inv_cdf(min(max(q, 1e-9), 1 - 1e-9)) for q in quantiles])
    lengths = np.clip(np.rint(np.exp(np.log(24.0) + 0.6 * normal)), 1, 128).astype(np.int64)
    rng.shuffle(lengths)
    return lengths


def activations(rng: np.random.Generator, tokens: int) -> np.ndarray:
    return rng.normal(size=(int(tokens), HIDDEN)).astype(np.float32)


@dataclass
class Samples:
    """What one timed phase produced, before it is reduced to metrics."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Operations that finished ok inside every limit that applies to them.
    good: int = 0
    #: Tokens of operations that finished ok.
    tokens: int = 0
    #: Dense-equivalent FLOPs of the sparse projections that ran.
    flops: float = 0.0
    latency_ms: List[float] = field(default_factory=list)
    ttft_ms: List[float] = field(default_factory=list)
    tpot_ms: List[float] = field(default_factory=list)
    #: Free-form numbers the per-layer pass reads (lateness, queue depth, ...).
    extra: Dict[str, object] = field(default_factory=dict)
    #: What the engine raised, one line each; the runner prints them.
    errors: List[str] = field(default_factory=list)

    def note_error(self, exc: BaseException) -> None:
        self.errors.append(f"{type(exc).__name__}: {exc}")


@dataclass
class TracedRun:
    """Everything a traced run hands the per-layer reduction.

    The traced slice sits between two untraced slices of the same phase
    (A-B-A), so drift over the run — allocator state, cache warmth — does not
    pass for tracing overhead.
    """

    tracer: object
    #: Span index of the traced phase / of the traced warm-up replay.
    root: int
    warm_root: int
    samples: Samples
    untraced: List[Samples]
    #: ``Workload.counters()`` read just before / after the traced slice.
    before: Dict[str, object]
    after: Dict[str, object]

    def untraced_sum(self, attr: str) -> float:
        return float(sum(getattr(one, attr) for one in self.untraced))

    def untraced_tails(self) -> Dict[str, float]:
        """The p95s, read on the untraced slices.  Tails are per-layer
        metrics here, not end-to-end ones: on the shared reference box their
        spread across seeds reaches the largest bound the contract allows,
        so they are reported but carry no regression bound."""
        pooled = {
            "latency": [v for one in self.untraced for v in one.latency_ms],
            "ttft": [v for one in self.untraced for v in one.ttft_ms],
            "tpot": [v for one in self.untraced for v in one.tpot_ms],
        }
        return {f"bench.{name}_p95_ms": percentile(values, 95) for name, values in pooled.items()}

    def untraced_extra_sum(self, key: str) -> float:
        return float(sum(one.extra[key] for one in self.untraced))


class Workload:
    """What the runner asks of a workload.

    The constructor takes ``(seed, smoke=False)`` and builds the seeded
    inputs (untimed; ``smoke`` builds fewer); ``setup`` plus
    ``warm_up`` is the system's set-up (timed as ``setup_s``); ``run``
    measures for a number of seconds and returns :class:`Samples`;
    ``verify`` checks kept outputs outside the timed phase and returns
    ``(checked, mismatched)``.
    """

    name = ""
    #: In-process set-ups whose median is ``setup_s`` (under a second each on
    #: the serving workloads; the sweep's four-second set-up overrides this).
    setup_repeats = 5

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def instrument(self, tracer) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tracer=None) -> Samples:
        raise NotImplementedError

    def verify(self) -> Tuple[int, int]:
        raise NotImplementedError

    def modelled_speedup(self) -> float:
        raise NotImplementedError

    def counters(self) -> Dict[str, object]:
        """Cumulative counters; the traced run diffs two readings."""
        raise NotImplementedError

    def side_phases(self, seconds: float) -> None:
        """Extra untraced phases a traced run adds (the online rate ladder)."""

    def layer_metrics(self, run: TracedRun) -> Dict[str, float]:
        raise NotImplementedError


def percentile(values: Sequence[float], q: float) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(samples: Samples, setup_s: float, modelled_speedup: float, rss_mb: float) -> Dict[str, float]:
    """Reduce one untraced phase to the end-to-end metric values."""
    wall = max(samples.wall_s, 1e-9)
    return {
        "setup_s": setup_s,
        "tok_per_s": samples.tokens / wall,
        "spmm_gflop_per_s": samples.flops / wall / 1e9,
        "latency_p50_ms": percentile(samples.latency_ms, 50),
        "ttft_p50_ms": percentile(samples.ttft_ms, 50),
        "tpot_p50_ms": percentile(samples.tpot_ms, 50),
        "goodput_frac": samples.good / max(samples.attempted, 1),
        "modelled_speedup_vs_cublas": modelled_speedup,
        "peak_rss_mb": rss_mb,
    }


def modelled_speedup(dispatcher, operands, columns: Sequence[int]) -> float:
    """Geomean over (operand, C) of modelled cuBLAS time / modelled time of
    the backend the dispatcher chose, on the dispatcher's GPU spec.

    Modelled clock only: nothing here reads the host clock, so the value
    repeats exactly and a host-speed change must leave it identical.
    """
    logs = []
    for operand in operands:
        for c in columns:
            chosen = dispatcher.estimate(operand, c).time_us
            dense = dispatcher.estimate(operand, c, backend="cublas-dense").time_us
            logs.append(np.log(dense / chosen))
    return float(np.exp(np.mean(logs)))

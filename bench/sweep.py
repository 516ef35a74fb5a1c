"""``spmm_sweep``: the paper's own axis, with no serving stack in the way.

BERT-large projection shapes x four V:N:M patterns x three column counts
through ``KernelDispatcher.execute``.  C=1 (decode-shaped, overhead-bound)
sits beside C=512 (GEMM-bound), so the kernels are used both ways in one
workload.  Set-up is the *write* side of the formats — prune, compress, plan
build — so a format change that speeds reads but slows compression shows in
``setup_s``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.formats import VNMSparseMatrix
from repro.kernels.dispatch import KernelDispatcher, SpmmOperand
from repro.pruning import apply_mask, vnm_mask

from . import layers
from .common import LIMITS_MS, Samples, TracedRun, Workload, modelled_speedup
from .instrument import instrument_dispatcher
from .trace import Tracer

SHAPES = ((1024, 1024), (4096, 1024), (1024, 4096))
PATTERNS = ((64, 2, 4), (64, 2, 8), (128, 2, 16), (64, 2, 32))
COLUMNS = (1, 64, 512)
#: The pattern the sputnik / cusparse / dense baselines run beside (traced runs).
BASELINE_PATTERN = (64, 2, 8)


class SpmmSweep(Workload):
    """Closed loop, one client: passes over the 36 (shape, pattern, C) cells."""

    name = "spmm_sweep"
    setup_repeats = 3
    columns = COLUMNS

    def __init__(self, seed: int, smoke: bool = False) -> None:
        rng = np.random.default_rng([seed, 30])
        self.shapes = SHAPES[:1] if smoke else SHAPES
        self.weights = {shape: rng.normal(size=shape).astype(np.float32) for shape in self.shapes}
        self.rhs = {
            (k, c): rng.normal(size=(k, c)).astype(np.float32)
            for k in sorted({shape[1] for shape in self.shapes})
            for c in COLUMNS
        }
        self.last: Dict[Tuple, np.ndarray] = {}

    def setup(self) -> None:
        self.dispatcher = KernelDispatcher(name="spmm-sweep")
        self.operands: Dict[Tuple, SpmmOperand] = {}
        self.pruned: Dict[Tuple, np.ndarray] = {}
        for shape, weight in self.weights.items():
            for v, n, m in PATTERNS:
                pruned = apply_mask(weight, vnm_mask(weight, v=v, n=n, m=m))
                matrix = VNMSparseMatrix.from_dense(pruned, v=v, n=n, m=m)
                operand = SpmmOperand.from_vnm(matrix, name=f"{shape[0]}x{shape[1]}-{v}:{n}:{m}")
                self.dispatcher.warm(operand, cs=COLUMNS)
                self.operands[shape + (v, n, m)] = operand
                self.pruned[shape + (v, n, m)] = pruned
        self.cells = [(key, c) for key in self.operands for c in COLUMNS]
        self.columns_per_pass = sum(c for _, c in self.cells)

    def warm_up(self) -> None:
        self._one_pass(Samples(), keep=False)

    def instrument(self, tracer: Tracer) -> None:
        instrument_dispatcher(tracer, self.dispatcher)

    def _one_pass(self, samples: Samples, keep: bool) -> None:
        limits = LIMITS_MS[self.name]
        pass_began = perf_counter()
        for key, c in self.cells:
            operand, b = self.operands[key], self.rhs[(key[1], c)]
            samples.attempted += 1
            t0 = perf_counter()
            try:
                out = self.dispatcher.execute(operand, b)
            except Exception as exc:  # noqa: BLE001 - one failed cell
                samples.note_error(exc)
                samples.failed += 1
                continue
            ms = (perf_counter() - t0) * 1e3
            if keep:
                self.last[(key, c)] = out
            samples.tokens += c
            samples.flops += 2.0 * key[0] * key[1] * c
            samples.good += ms <= limits[f"c{c}"]
        # The sweep's operation is the pass: one latency sample per pass and
        # its per-column normalisation.  (Per-call times are bimodal across
        # shapes and, at C=1, memory-bound enough to follow the neighbours'
        # traffic; they are reported per layer, as kernels.spatha.execute_ms.*.)
        pass_ms = (perf_counter() - pass_began) * 1e3
        samples.latency_ms.append(pass_ms)
        samples.tpot_ms.append(pass_ms / self.columns_per_pass)

    def run(self, seconds: float, tracer: Optional[Tracer] = None) -> Samples:
        samples = Samples()
        passes = 0
        started = perf_counter()
        while perf_counter() - started < seconds:
            if tracer is not None:
                tracer.tag = passes
            self._one_pass(samples, keep=passes == 0)
            passes += 1
        samples.wall_s = perf_counter() - started
        samples.ttft_ms = samples.latency_ms  # one-shot: first output is the reply
        return samples

    def verify(self) -> Tuple[int, int]:
        """Every cell of the first pass: bit-equal to the backend the
        dispatcher chose, invoked directly, and within fp16-product
        tolerance of the fp32 dense product."""
        bad = 0
        for (key, c), got in self.last.items():
            operand, b = self.operands[key], self.rhs[(key[1], c)]
            chosen = self.dispatcher.dispatch(operand, c).backend
            direct = self.dispatcher.backend(chosen).execute(operand, b)
            dense = self.pruned[key] @ b
            scale = float(np.abs(dense).max()) or 1.0
            close = float(np.abs(got - dense).max()) <= 2e-2 * scale
            bad += not (np.array_equal(got, direct) and close)
        count = len(self.last)
        self.last = {}
        return count, bad

    def modelled_speedup(self) -> float:
        return modelled_speedup(self.dispatcher, list(self.operands.values()), COLUMNS)

    def counters(self) -> Dict[str, object]:
        return {
            "dispatch_cache": self.dispatcher.cache_stats(),
            "dispatch_health": self.dispatcher.health_stats(),
        }

    def baseline_weight(self) -> Tuple[np.ndarray, Tuple[int, int, int]]:
        return self.weights[self.shapes[0]], BASELINE_PATTERN

    def baseline_cells(self) -> List[Tuple[np.ndarray, List[np.ndarray]]]:
        """(pruned weight, [RHS per C]) of the baseline pattern, per shape."""
        return [
            (self.pruned[shape + BASELINE_PATTERN], [self.rhs[(shape[1], c)] for c in COLUMNS])
            for shape in self.shapes
        ]

    def layer_metrics(self, run: TracedRun) -> Dict[str, float]:
        return layers.sweep_metrics(self, run)

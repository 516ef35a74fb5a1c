"""One entry point per figure/table of the paper's evaluation.

Each function regenerates the data behind one figure or table (the
README's "Reproduction ledger" maps each to its benchmark and substitution)
and returns plain data structures; the corresponding benchmark in
``benchmarks/`` runs the function, prints the table and asserts the
qualitative shape the paper reports.  Keeping the logic here (rather than
in the benchmarks) makes the experiments importable from the examples and
the tests as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .sweeps import dense_baseline, library_point, spatha_point
from ..hardware.isa import SPARSE_MMA_SHAPES
from ..hardware.spec import GPUSpec, rtx3090
from ..kernels.common import GemmProblem
from ..kernels.spatha import Spatha, theoretical_speedup_cap
from ..kernels.spatha.config import default_config
from ..models.config import BERT_BASE, BERT_LARGE, GPT2_LARGE, GPT3_175B, ModelConfig
from ..models.latency import SparsityPlan, latency_breakdown_ms, model_inference_trace
from ..models.workloads import K_SWEEP, synthetic_bert_weight
from ..pruning.energy import energy_study
from ..pruning.masks import apply_mask
from ..pruning.second_order.obs_vnm import SecondOrderConfig, second_order_nm_prune, second_order_vnm_prune
from ..pruning.second_order.fisher import synthetic_gradients
from ..pruning.second_order.proxy import QuadraticTask
from ..pruning.vector_wise import vector_wise_mask


# ----------------------------------------------------------------------
# Table 1 — mma.sp instruction shapes
# ----------------------------------------------------------------------

def table1_mma_shapes() -> List[Dict[str, object]]:
    """The supported mma.sp shapes per precision (paper Table 1)."""
    rows: List[Dict[str, object]] = []
    from ..hardware.isa import NATIVE_NM_PATTERN

    for precision, shapes in SPARSE_MMA_SHAPES.items():
        n, m = NATIVE_NM_PATTERN[precision]
        rows.append(
            {
                "precision": precision,
                "format": f"{n}:{m}",
                "supported_shapes": ", ".join(f"k{s.k}" for s in shapes),
                "m": shapes[0].m,
                "n": shapes[0].n,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 9 — column-loc ablation over the K sweep
# ----------------------------------------------------------------------

def figure9_columnloc_ablation(
    k_values: Sequence[int] = K_SWEEP,
    patterns: Sequence[Tuple[int, int]] = ((2, 10), (2, 20), (2, 40), (2, 100)),
    v: int = 128,
    r: int = 1024,
    c: int = 4096,
    gpu: Optional[GPUSpec] = None,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Speedup over cuBLAS with and without the column-loc structure.

    Returns ``{"2:10": {K: {"with_columnloc": x, "without_columnloc": y,
    "cap": M/N}}, ...}`` for the BERT-large-shaped GEMM ``1024 x K x 4096``.
    """
    gpu = gpu or rtx3090()
    spatha = Spatha(gpu=gpu, autotune=False)
    out: Dict[str, Dict[int, Dict[str, float]]] = {}
    for n, m in patterns:
        label = f"{n}:{m}"
        out[label] = {}
        for k in k_values:
            problem = GemmProblem.from_nm(r=r, k=k, c=c, n=n, m=m, v=v)
            dense = dense_baseline(problem, gpu=gpu)
            cfg = default_config(v)
            with_cloc = spatha.estimate(problem, config=cfg)
            without_cloc = spatha.estimate(problem, config=cfg.with_options(use_column_loc=False))
            out[label][k] = {
                "with_columnloc": dense.time_us / with_cloc.time_us,
                "without_columnloc": dense.time_us / without_cloc.time_us,
                "cap": theoretical_speedup_cap(n, m),
            }
    return out


# ----------------------------------------------------------------------
# Figure 10 — V scaling and output-store width
# ----------------------------------------------------------------------

def figure10_v_scaling(
    v_values: Sequence[int] = (32, 64, 128),
    patterns: Sequence[Tuple[int, int]] = ((2, 7), (2, 8), (2, 10), (2, 20), (2, 40), (2, 100)),
    r: int = 1024,
    k: int = 4096,
    c: int = 4096,
    gpu: Optional[GPUSpec] = None,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Speedup over cuBLAS per (sparsity, V) for 32- and 128-bit stores.

    Returns ``{"2:8": {64: {"stores_128bit": x, "stores_32bit": y}}, ...}``.
    """
    gpu = gpu or rtx3090()
    spatha = Spatha(gpu=gpu, autotune=False)
    out: Dict[str, Dict[int, Dict[str, float]]] = {}
    for n, m in patterns:
        label = f"{n}:{m}"
        out[label] = {}
        for v in v_values:
            problem = GemmProblem.from_nm(r=r, k=k, c=c, n=n, m=m, v=v)
            dense = dense_baseline(problem, gpu=gpu)
            cfg = default_config(v)
            wide = spatha.estimate(problem, config=cfg.with_options(wide_output_stores=True))
            narrow = spatha.estimate(problem, config=cfg.with_options(wide_output_stores=False))
            out[label][v] = {
                "stores_128bit": dense.time_us / wide.time_us,
                "stores_32bit": dense.time_us / narrow.time_us,
            }
    return out


# ----------------------------------------------------------------------
# Figure 11 — energy study
# ----------------------------------------------------------------------

def figure11_energy(
    weight: Optional[np.ndarray] = None,
    sparsities: Sequence[float] = (0.5, 0.6, 0.75, 0.8, 0.9, 0.95),
    v_values: Sequence[int] = (1, 16, 32, 64, 128),
    vw_lengths: Sequence[int] = (4, 8, 16, 32),
    seed: int = 8,
) -> Dict[str, List[float]]:
    """Energy retained by each selection policy (paper Figure 11).

    By default runs on a synthesised 768x768 BERT-base query projection
    (the trained checkpoint substitution in the README's "Reproduction
    ledger").
    """
    if weight is None:
        weight = synthetic_bert_weight(seed=seed)
    return energy_study(weight, sparsities=sparsities, v_values=v_values, vw_lengths=vw_lengths)


# ----------------------------------------------------------------------
# Figure 12 — 2:4 baseline comparison
# ----------------------------------------------------------------------

def figure12_baseline_24(
    k_values: Sequence[int] = K_SWEEP,
    models: Sequence[str] = ("bert-base", "bert-large"),
    c: int = 4096,
    gpu: Optional[GPUSpec] = None,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """TFLOPS and speedups of cuBLAS / cuSparseLt / Spatha at 2:4 sparsity.

    Returns ``{"bert-large": {K: {"cublas_tflops": ..., "spatha_tflops": ...,
    "spatha_speedup": ..., "cusparselt_speedup": ...}}}``.
    """
    gpu = gpu or rtx3090()
    spatha = Spatha(gpu=gpu)
    out: Dict[str, Dict[int, Dict[str, float]]] = {}
    for model in models:
        r = BERT_BASE.hidden_size if model == "bert-base" else BERT_LARGE.hidden_size
        out[model] = {}
        for k in k_values:
            problem = GemmProblem.from_nm(r=r, k=k, c=c, n=2, m=4, v=128)
            dense = dense_baseline(problem, gpu=gpu)
            sp = spatha_point(problem, spatha, dense)
            cl = library_point(problem, "cusparselt", dense, gpu=gpu)
            out[model][k] = {
                "cublas_tflops": dense.tflops_dense_equivalent,
                "spatha_tflops": sp.tflops_dense_equivalent,
                "cusparselt_tflops": cl.tflops_dense_equivalent,
                "spatha_speedup": sp.speedup_vs_dense,
                "cusparselt_speedup": cl.speedup_vs_dense,
            }
    return out


# ----------------------------------------------------------------------
# Figure 13 — comparison with dense and sparse libraries
# ----------------------------------------------------------------------

FIGURE13_PATTERNS: Tuple[Tuple[int, int], ...] = ((2, 4), (2, 7), (2, 8), (2, 10), (2, 20), (2, 40), (2, 100))


def figure13_library_comparison(
    models: Sequence[str] = ("bert-base", "bert-large"),
    batch_sizes: Sequence[int] = (8, 16),
    configurations: Sequence[Tuple[int, int]] = ((64, 4), (128, 8)),
    patterns: Sequence[Tuple[int, int]] = FIGURE13_PATTERNS,
    seq_len: int = 512,
    gpu: Optional[GPUSpec] = None,
) -> Dict[str, Dict[float, Dict[str, float]]]:
    """Speedup over cuBLAS of every library across sparsity levels.

    One panel per (model, batch size, V/vw configuration), matching the
    paper's 2 x 4 grid.  The panel key is
    ``"{model}/bs={bs}/{V}:N:M,vw_{l}"`` and each panel maps sparsity ->
    {library: speedup}.
    """
    gpu = gpu or rtx3090()
    spatha = Spatha(gpu=gpu)
    out: Dict[str, Dict[float, Dict[str, float]]] = {}
    for model in models:
        config = BERT_BASE if model == "bert-base" else BERT_LARGE
        # Representative weight GEMM of the encoder: the FFN output
        # projection (hidden x intermediate), matching the R=hidden,
        # K=scaled-up-inner-dimension shape the paper's microbenchmarks use.
        r, k = config.hidden_size, config.intermediate_size
        for bs in batch_sizes:
            c = bs * seq_len
            for v, vw in configurations:
                panel_key = f"{model}/bs={bs}/{v}:N:M,vw_{vw}"
                panel: Dict[float, Dict[str, float]] = {}
                for n, m in patterns:
                    sparsity = 1.0 - n / m
                    problem = GemmProblem.from_nm(r=r, k=k, c=c, n=n, m=m, v=v)
                    dense = dense_baseline(problem, gpu=gpu)
                    entry: Dict[str, float] = {"cublas": 1.0}
                    entry["spatha"] = spatha_point(problem, spatha, dense).speedup_vs_dense
                    if (n, m) == (2, 4):
                        entry["cusparselt"] = library_point(problem, "cusparselt", dense, gpu=gpu).speedup_vs_dense
                    entry["sputnik"] = library_point(problem, "sputnik", dense, gpu=gpu).speedup_vs_dense
                    entry["clasp"] = library_point(
                        problem, "clasp", dense, gpu=gpu, vector_length=vw
                    ).speedup_vs_dense
                    panel[sparsity] = entry
                out[panel_key] = panel
    return out


# ----------------------------------------------------------------------
# Table 2 — second-order pruning accuracy (SQuAD F1 surrogate)
# ----------------------------------------------------------------------

@dataclass
class Table2Result:
    """F1 surrogate per (sparsity, method), plus the dense reference."""

    dense_f1: float
    scores: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def as_rows(self) -> List[Dict[str, object]]:
        rows = []
        for sparsity_label, methods in self.scores.items():
            row: Dict[str, object] = {"sparsity": sparsity_label}
            row.update(methods)
            rows.append(row)
        return rows


def table2_second_order_f1(
    patterns: Sequence[Tuple[int, int]] = ((2, 8), (2, 16)),
    rows: int = 128,
    cols: int = 256,
    num_grad_samples: int = 48,
    seed: int = 0,
) -> Table2Result:
    """Second-order pruning accuracy comparison (paper Table 2).

    The SQuAD fine-tuning pipeline is replaced by the quadratic surrogate
    task (README, "Reproduction ledger"); the comparison covers the same
    four policies: plain 1:N:M, 64:N:M, 128:N:M and vector-wise vw_8.
    """
    task = QuadraticTask.create(rows=rows, cols=cols, num_grad_samples=num_grad_samples, seed=seed)
    grads = task.grads
    weights = task.weights
    config = SecondOrderConfig(method="auto", apply_update=True, num_grad_samples=num_grad_samples, seed=seed)

    result = Table2Result(dense_f1=task.f1_score(weights))
    for n, m in patterns:
        label = f"{int(round((1 - n / m) * 100))}% ({n}:{m})"
        methods: Dict[str, float] = {}

        nm_res = second_order_nm_prune(weights, n=n, m=m, config=config, grads=grads)
        methods["1:N:M"] = task.f1_of_result(nm_res)

        for v in (64, 128):
            if weights.shape[0] % v:
                continue
            v_res = second_order_vnm_prune(weights, v=v, n=n, m=m, config=config, grads=grads)
            methods[f"{v}:N:M"] = task.f1_of_result(v_res)

        # vw_8: vector-wise pruning with curvature-aware (OBD) vector scores,
        # the second-order analogue the paper applies to this baseline.
        sparsity = 1.0 - n / m
        saliency = 0.5 * weights**2 * task.hessian_diag
        vw_mask = vector_wise_mask(np.sqrt(np.maximum(saliency, 0.0)), sparsity, l=8, norm="l2")
        vw_masked = apply_mask(weights, vw_mask)
        methods["vw_8"] = task.f1_score(vw_masked)

        result.scores[label] = methods
    return result


# ----------------------------------------------------------------------
# Figure 15 — end-to-end LLM inference latency
# ----------------------------------------------------------------------

FIGURE15_MODELS: Tuple[Tuple[str, ModelConfig, int, Optional[int]], ...] = (
    ("bert-large", BERT_LARGE, 32, None),
    ("gpt2-large", GPT2_LARGE, 8, None),
    ("gpt3-encoder", GPT3_175B, 1, 1),
)


def figure15_end_to_end(
    v_values: Sequence[int] = (64, 128),
    m_values: Sequence[int] = (8, 16, 32),
    models: Sequence[Tuple[str, ModelConfig, int, Optional[int]]] = FIGURE15_MODELS,
    seq_len: Optional[int] = None,
    gpu: Optional[GPUSpec] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """End-to-end latency breakdown per model and sparsification plan.

    Returns ``{model: {plan_label: {"gemm": ms, "matmul": ms, "softmax": ms,
    "other": ms, "total": ms}}}`` where the plans are ``dense`` plus
    ``{V}:2:{M}`` for every requested V and M — the bars of Figure 15.
    """
    gpu = gpu or rtx3090()
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name, config, batch_size, num_layers in models:
        spatha = Spatha(gpu=gpu)
        seq = seq_len or min(config.max_seq_len, 512 if "bert" in name else config.max_seq_len)
        plans: List[SparsityPlan] = [SparsityPlan()]
        for v in v_values:
            for m in m_values:
                plans.append(SparsityPlan(v=v, n=2, m=m))
        out[name] = {}
        for plan in plans:
            trace = model_inference_trace(
                config,
                batch_size=batch_size,
                seq_len=seq,
                plan=plan,
                num_layers=num_layers,
                gpu=gpu,
                spatha=spatha,
            )
            breakdown = latency_breakdown_ms(trace)
            breakdown["total"] = trace.total_time_ms
            out[name][plan.label] = breakdown
    return out

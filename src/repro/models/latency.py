"""End-to-end inference latency model (Figure 15).

The paper's end-to-end study times the inference of BERT(-large),
GPT-2-large and a GPT-3 encoder, breaking the latency into four categories:
weight **GEMMs** (the ones sparsification converts into SpMMs), attention
**matmul** (the batched ``QKᵀ`` and ``PV`` products, which stay dense),
**softmax**, and **others** (LayerNorm, GELU, residuals, bias).  This module
rebuilds that breakdown analytically: every operator of every layer is
priced with the corresponding kernel cost model, and the results are
collected in an :class:`~repro.hardware.trace.ExecutionTrace`.

Because the accounting is analytic — it never materialises activations —
it scales to the GPT-3 configuration exactly as the paper does (one encoder
layer, batch size 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .config import ModelConfig
from ..hardware.memory import TransactionModel, gmem_cycles
from ..hardware.spec import GPUSpec, rtx3090
from ..hardware.trace import ExecutionTrace, KernelExecution
from ..kernels import cublas
from ..kernels.common import GemmProblem
from ..kernels.spatha import Spatha


#: Sustained tensor-core efficiency of the skinny batched attention matmuls
#: (k = head_dim is only 64-128, so the fragments are poorly utilised).
ATTENTION_MATMUL_EFFICIENCY = 0.18
#: Number of memory passes over the attention-score tensor performed by the
#: softmax kernel (max-reduce, exponentiation/normalise, plus the reads of
#: the surrounding scale/mask fusion).
SOFTMAX_MEMORY_PASSES = 3.0
#: Elementwise memory passes charged to the "others" category per encoder
#: layer, expressed in traversals of the (tokens x hidden) activation
#: tensor: two LayerNorms (read+write each), two residual additions, bias
#: additions and the GELU traversal of the 4x-wide FFN activations.
OTHERS_HIDDEN_PASSES = 10.0
OTHERS_INTERMEDIATE_PASSES = 3.0
#: Fixed launch overhead charged per elementwise kernel, microseconds.
ELEMENTWISE_LAUNCH_US = 4.0


@dataclass(frozen=True)
class SparsityPlan:
    """How the encoder's weight GEMMs are sparsified (or not).

    ``None`` n/m means dense execution.  The plan applies to all six weight
    matrices of every layer, which is how the paper runs its end-to-end
    numbers (e.g. ``64:2:8``).
    """

    v: Optional[int] = None
    n: Optional[int] = None
    m: Optional[int] = None

    @property
    def is_sparse(self) -> bool:
        return self.n is not None and self.m is not None

    @property
    def label(self) -> str:
        if not self.is_sparse:
            return "dense"
        return f"{self.v}:{self.n}:{self.m}"


def _elementwise_time_us(n_bytes: float, gpu: GPUSpec, launches: float = 1.0) -> float:
    """Time of a bandwidth-bound elementwise kernel moving ``n_bytes``."""
    cycles = gmem_cycles(n_bytes, gpu, TransactionModel(access_bits=128))
    return gpu.cycles_to_seconds(cycles) * 1e6 + launches * ELEMENTWISE_LAUNCH_US


def model_inference_trace(
    config: ModelConfig,
    batch_size: int,
    seq_len: Optional[int] = None,
    plan: Optional[SparsityPlan] = None,
    num_layers: Optional[int] = None,
    gpu: Optional[GPUSpec] = None,
    spatha: Optional[Spatha] = None,
) -> ExecutionTrace:
    """Build the per-operator latency trace of one inference pass.

    Parameters
    ----------
    config:
        Model architecture.
    batch_size / seq_len:
        Inference batch and sequence length (defaults to the model's
        ``max_seq_len``).
    plan:
        Sparsification plan for the weight GEMMs; ``None`` or a dense plan
        prices them with cuBLAS, a V:N:M plan with Spatha.
    num_layers:
        Number of encoder layers to account (defaults to the full model;
        the paper's GPT-3 row uses 1).
    """
    gpu = gpu or rtx3090()
    plan = plan or SparsityPlan()
    seq = seq_len or config.max_seq_len
    layers = num_layers if num_layers is not None else config.num_layers
    if batch_size <= 0 or seq <= 0 or layers <= 0:
        raise ValueError("batch_size, seq_len and num_layers must be positive")
    tokens = batch_size * seq
    spatha = spatha or Spatha(gpu=gpu)

    trace = ExecutionTrace()

    # ------------------------------------------------------------------
    # Weight GEMMs (the sparsifiable ones)
    # ------------------------------------------------------------------
    for layer_idx in range(layers):
        for gemm in config.gemm_problems(batch_size, seq):
            name = f"encoder.layer.{layer_idx}.{gemm['name']}"
            if plan.is_sparse:
                problem = GemmProblem.from_nm(
                    r=gemm["r"], k=gemm["k"], c=gemm["c"], n=plan.n, m=plan.m, v=plan.v, name=name
                )
                result = spatha.estimate(problem)
            else:
                problem = GemmProblem(r=gemm["r"], k=gemm["k"], c=gemm["c"], name=name)
                result = cublas.estimate_time(problem, gpu=gpu)
            trace.record(
                KernelExecution(
                    kernel=result.kernel,
                    category="gemm",
                    time_us=result.time_us,
                    flops=problem.effective_flops,
                    dense_flops=problem.dense_flops,
                    meta={"layer": name, "plan": plan.label},
                )
            )

        # --------------------------------------------------------------
        # Attention batched matmuls (QK^T and PV) — always dense.
        # --------------------------------------------------------------
        d = config.head_dim
        batches = batch_size * config.num_heads
        for label, (m_, k_, n_) in (
            ("attention.scores", (seq, d, seq)),
            ("attention.context", (seq, seq, d)),
        ):
            problem = GemmProblem(r=m_, k=k_, c=n_ * batches, name=label)
            result = cublas.estimate_time(
                problem, gpu=gpu, config=cublas.CublasConfig(compute_efficiency=ATTENTION_MATMUL_EFFICIENCY)
            )
            trace.record(
                KernelExecution(
                    kernel="cublas_batched_matmul",
                    category="matmul",
                    time_us=result.time_us,
                    flops=problem.dense_flops,
                    dense_flops=problem.dense_flops,
                    meta={"layer": f"encoder.layer.{layer_idx}.{label}"},
                )
            )

        # --------------------------------------------------------------
        # Softmax over the attention scores.
        # --------------------------------------------------------------
        score_elements = batch_size * config.num_heads * seq * seq
        softmax_bytes = score_elements * 2.0 * SOFTMAX_MEMORY_PASSES
        trace.record(
            KernelExecution(
                kernel="softmax",
                category="softmax",
                time_us=_elementwise_time_us(softmax_bytes, gpu, launches=1.0),
                bytes_moved=softmax_bytes,
                meta={"layer": f"encoder.layer.{layer_idx}.softmax"},
            )
        )

        # --------------------------------------------------------------
        # Others: LayerNorm, GELU, residuals, bias additions.
        # --------------------------------------------------------------
        hidden_bytes = tokens * config.hidden_size * 2.0
        inter_bytes = tokens * config.intermediate_size * 2.0
        others_bytes = hidden_bytes * OTHERS_HIDDEN_PASSES + inter_bytes * OTHERS_INTERMEDIATE_PASSES
        trace.record(
            KernelExecution(
                kernel="elementwise",
                category="other",
                time_us=_elementwise_time_us(others_bytes, gpu, launches=6.0),
                bytes_moved=others_bytes,
                meta={"layer": f"encoder.layer.{layer_idx}.others"},
            )
        )

    return trace


def latency_breakdown_ms(trace: ExecutionTrace) -> Dict[str, float]:
    """Per-category latency of a trace in milliseconds (Figure 15's bars)."""
    return {category: time_us / 1e3 for category, time_us in trace.time_by_category().items()}

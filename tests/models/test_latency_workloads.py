"""Tests for the end-to-end latency model and benchmark workloads."""

import pytest

from repro.hardware.trace import ExecutionTrace
from repro.models.config import BERT_BASE, BERT_LARGE, GPT3_175B
from repro.models.latency import (
    SparsityPlan,
    latency_breakdown_ms,
    model_inference_trace,
)
from repro.models.workloads import K_SWEEP, synthetic_bert_weight


class TestSparsityPlan:
    def test_dense_plan(self):
        plan = SparsityPlan()
        assert not plan.is_sparse
        assert plan.label == "dense"

    def test_sparse_plan_label(self):
        assert SparsityPlan(v=64, n=2, m=16).label == "64:2:16"


class TestInferenceTrace:
    @pytest.fixture(scope="class")
    def dense_trace(self, ):
        return model_inference_trace(BERT_LARGE, batch_size=8, seq_len=128, num_layers=2)

    @pytest.fixture(scope="class")
    def sparse_trace(self):
        return model_inference_trace(
            BERT_LARGE, batch_size=8, seq_len=128, num_layers=2, plan=SparsityPlan(v=64, n=2, m=16)
        )

    def test_trace_structure(self, dense_trace):
        assert isinstance(dense_trace, ExecutionTrace)
        categories = dense_trace.time_by_category()
        assert all(categories[c] > 0 for c in ("gemm", "matmul", "softmax", "other"))
        # 6 GEMMs + 2 matmuls + softmax + others per layer, 2 layers
        assert len(dense_trace.executions) == 2 * (6 + 2 + 1 + 1)

    def test_gemm_dominates_dense_bert(self, dense_trace):
        breakdown = latency_breakdown_ms(dense_trace)
        assert breakdown["gemm"] > breakdown["matmul"]
        assert breakdown["gemm"] > breakdown["softmax"]

    def test_sparsity_reduces_only_gemm_time(self, dense_trace, sparse_trace):
        d, s = dense_trace.time_by_category(), sparse_trace.time_by_category()
        assert s["gemm"] < d["gemm"]
        assert s["matmul"] == pytest.approx(d["matmul"], rel=1e-6)
        assert s["softmax"] == pytest.approx(d["softmax"], rel=1e-6)
        assert s["other"] == pytest.approx(d["other"], rel=1e-6)

    def test_gemm_reduction_and_speedup(self, dense_trace, sparse_trace):
        reduction = dense_trace.gemm_time_us() / sparse_trace.gemm_time_us()
        speedup = dense_trace.total_time_us / sparse_trace.total_time_us
        assert reduction > speedup > 1.0
        assert reduction <= 8.0  # bounded by the 2:16 cap

    def test_gpt3_single_layer_gemm_fraction(self):
        """The paper: GEMMs contribute ~80% of a GPT-3 encoder's time."""
        trace = model_inference_trace(GPT3_175B, batch_size=1, num_layers=1)
        frac = trace.gemm_time_us() / trace.total_time_us
        assert frac > 0.7

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            model_inference_trace(BERT_BASE, batch_size=0)
        with pytest.raises(ValueError):
            model_inference_trace(BERT_BASE, batch_size=1, num_layers=0)

    def test_latency_breakdown_units(self, dense_trace):
        breakdown = latency_breakdown_ms(dense_trace)
        assert sum(breakdown.values()) == pytest.approx(dense_trace.total_time_ms)


class TestWorkloads:
    def test_k_sweep_matches_paper_grid(self):
        assert K_SWEEP[0] == 768
        assert K_SWEEP[-1] == 12288
        assert len(K_SWEEP) == 16

    def test_synthetic_bert_weight_shape(self):
        w = synthetic_bert_weight()
        assert w.shape == (768, 768)

"""Tests for the kernel execution trace records."""

import pytest

from repro.hardware.trace import ExecutionTrace, KernelExecution


def make_exec(kernel="spatha_spmm", category="gemm", time_us=100.0, flops=1e9):
    return KernelExecution(kernel=kernel, category=category, time_us=time_us, flops=flops)


class TestKernelExecution:
    def test_valid_categories_only(self):
        with pytest.raises(ValueError):
            KernelExecution(kernel="x", category="convolution", time_us=1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            KernelExecution(kernel="x", category="gemm", time_us=-1.0)

    def test_tflops(self):
        e = make_exec(time_us=1e6, flops=1e12)  # 1 second, 1 TFLOP
        assert e.tflops == pytest.approx(1.0)
        assert KernelExecution(kernel="x", category="gemm", time_us=0.0).tflops == 0.0


class TestExecutionTrace:
    def test_record_and_totals(self):
        trace = ExecutionTrace()
        trace.record(make_exec(time_us=100))
        trace.record(make_exec(time_us=200, category="softmax"))
        assert trace.total_time_us == 300
        assert trace.total_time_ms == pytest.approx(0.3)

    def test_extend(self):
        trace = ExecutionTrace()
        trace.extend([make_exec(), make_exec()])
        assert len(trace.executions) == 2

    def test_time_by_category_has_stable_schema(self):
        trace = ExecutionTrace()
        trace.record(make_exec(category="gemm", time_us=10))
        cats = trace.time_by_category()
        assert set(cats) == {"gemm", "matmul", "softmax", "comm", "other"}
        assert cats["gemm"] == 10
        assert cats["softmax"] == 0
        assert cats["comm"] == 0

    def test_comm_time(self):
        trace = ExecutionTrace()
        trace.record(make_exec(kernel="allreduce", category="comm", time_us=4))
        trace.record(make_exec(category="gemm", time_us=6))
        assert trace.comm_time_us() == 4

    def test_gemm_time(self):
        trace = ExecutionTrace()
        trace.record(make_exec(category="gemm", time_us=7))
        trace.record(make_exec(category="other", time_us=3))
        assert trace.gemm_time_us() == 7

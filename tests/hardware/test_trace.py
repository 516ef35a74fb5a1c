"""Tests for the kernel execution trace records."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware.trace import ExecutionTrace, KernelExecution

#: Fig. 15's four bars, the only categories a launch may carry.
CATEGORIES = ("gemm", "matmul", "softmax", "other")


def make_exec(kernel="spatha_spmm", category="gemm", time_us=100.0, flops=1e9):
    return KernelExecution(kernel=kernel, category=category, time_us=time_us, flops=flops)


class TestKernelExecution:
    @pytest.mark.parametrize("category", ["convolution", "comm"])
    def test_valid_categories_only(self, category):
        with pytest.raises(ValueError):
            KernelExecution(kernel="x", category=category, time_us=1.0)

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
        assert set(cats) == set(CATEGORIES)
        assert cats["gemm"] == 10
        assert cats["softmax"] == 0

    @pytest.mark.parametrize("category", CATEGORIES)
    def test_each_category_is_accepted_and_totalled(self, category):
        trace = ExecutionTrace()
        trace.record(make_exec(category=category, time_us=5))
        trace.record(make_exec(category=category, time_us=2))
        cats = trace.time_by_category()
        assert cats[category] == 7
        assert sum(cats.values()) == trace.total_time_us == 7

    def test_empty_trace_reads_zero(self):
        trace = ExecutionTrace()
        assert trace.time_by_category() == dict.fromkeys(CATEGORIES, 0.0)
        assert trace.total_time_us == 0.0
        assert trace.gemm_time_us() == 0.0

    @given(st.lists(st.tuples(st.sampled_from(CATEGORIES), st.integers(0, 1000)), max_size=20))
    def test_categories_partition_the_total(self, launches):
        trace = ExecutionTrace()
        trace.extend(make_exec(category=c, time_us=float(t)) for c, t in launches)
        cats = trace.time_by_category()
        assert sum(cats.values()) == trace.total_time_us
        assert cats["gemm"] == trace.gemm_time_us()

    def test_gemm_time(self):
        trace = ExecutionTrace()
        trace.record(make_exec(category="gemm", time_us=7))
        trace.record(make_exec(category="other", time_us=3))
        assert trace.gemm_time_us() == 7

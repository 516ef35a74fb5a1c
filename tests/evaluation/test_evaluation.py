"""Tests for the evaluation harness (sweeps, figures, reporting)."""

import numpy as np
import pytest

from repro.evaluation.figures import (
    figure9_columnloc_ablation,
    figure10_v_scaling,
    figure11_energy,
    figure12_baseline_24,
    figure13_library_comparison,
    figure15_end_to_end,
    table1_mma_shapes,
    table2_second_order_f1,
)
from repro.evaluation.reporting import (
    crossover_index,
    dominates,
    format_table,
    is_monotonic_decreasing,
    is_monotonic_increasing,
    within_factor,
)
from repro.evaluation.sweeps import dense_baseline, library_point
from repro.kernels.common import GemmProblem


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 0.001]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_row_length_checked(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_monotonicity_helpers(self):
        assert is_monotonic_increasing([1, 2, 2, 3])
        assert not is_monotonic_increasing([1, 0.5])
        assert is_monotonic_decreasing([3, 2, 2, 1])
        assert is_monotonic_increasing([1.0, 0.99], tolerance=0.05)

    def test_dominates(self):
        assert dominates([2, 3], [1, 3])
        assert not dominates([1, 1], [2, 0])
        with pytest.raises(ValueError):
            dominates([1], [1, 2])

    def test_crossover_index(self):
        assert crossover_index([0.5, 0.9, 1.2, 3.0]) == 2
        assert crossover_index([0.5, 0.9]) is None

    def test_within_factor(self):
        assert within_factor(4.5, 5.0, 1.5)
        assert not within_factor(1.0, 5.0, 1.5)
        with pytest.raises(ValueError):
            within_factor(1.0, 5.0, 0.5)


class TestSweeps:
    def test_dense_baseline_ignores_sparsity(self, gpu):
        sparse_problem = GemmProblem.from_nm(256, 512, 256, 2, 8, v=64)
        dense = dense_baseline(sparse_problem, gpu=gpu)
        assert dense.problem.sparsity == 0.0
        assert dense.kernel == "cublas_hgemm"

    def test_library_point_unknown_library(self, gpu):
        p = GemmProblem(64, 64, 64)
        with pytest.raises(ValueError):
            library_point(p, "tensorrt", dense_baseline(p, gpu=gpu), gpu=gpu)


class TestFigureHarnesses:
    """Smoke-level checks on reduced parameter grids (full grids run in benchmarks/)."""

    def test_table1(self):
        rows = table1_mma_shapes()
        precisions = {r["precision"] for r in rows}
        assert precisions == {"fp32", "fp16", "uint8", "uint4"}
        fp16 = next(r for r in rows if r["precision"] == "fp16")
        assert fp16["format"] == "2:4"
        assert "k32" in fp16["supported_shapes"]

    def test_figure9_reduced(self):
        out = figure9_columnloc_ablation(k_values=(2048, 4096), patterns=((2, 10),), v=128)
        assert set(out) == {"2:10"}
        for k, entry in out["2:10"].items():
            assert entry["without_columnloc"] >= entry["with_columnloc"] > 0
            assert entry["cap"] == 5.0

    def test_figure10_reduced(self):
        out = figure10_v_scaling(v_values=(64, 128), patterns=((2, 8),), k=2048, c=2048)
        entry = out["2:8"]
        assert set(entry) == {64, 128}
        for v in (64, 128):
            assert entry[v]["stores_128bit"] >= entry[v]["stores_32bit"]

    def test_figure11_reduced(self, rng):
        out = figure11_energy(weight=rng.normal(size=(128, 160)), sparsities=(0.5, 0.75),
                              v_values=(1, 32), vw_lengths=(8,))
        assert set(out) == {"ideal", "1:N:M", "32:N:M", "vw_8"}
        assert all(len(v) == 2 for v in out.values())

    def test_figure12_reduced(self):
        out = figure12_baseline_24(k_values=(2048,), models=("bert-base",))
        entry = out["bert-base"][2048]
        assert entry["spatha_speedup"] > 1.0
        assert entry["cusparselt_speedup"] > 1.0
        assert entry["spatha_tflops"] > entry["cublas_tflops"]

    def test_figure13_reduced(self):
        out = figure13_library_comparison(
            models=("bert-base",), batch_sizes=(8,), configurations=((128, 8),),
            patterns=((2, 4), (2, 20)),
        )
        panel = out["bert-base/bs=8/128:N:M,vw_8"]
        assert set(panel) == {0.5, 0.9}
        assert panel[0.5]["cublas"] == 1.0
        assert "cusparselt" in panel[0.5]
        assert "cusparselt" not in panel[0.9]
        assert panel[0.9]["spatha"] > panel[0.9]["clasp"]

    def test_table2_reduced(self):
        result = table2_second_order_f1(patterns=((2, 8),), rows=64, cols=128, num_grad_samples=16)
        assert result.dense_f1 > 85.0
        scores = result.scores["75% (2:8)"]
        assert set(scores) == {"1:N:M", "64:N:M", "vw_8"}
        assert all(50.0 < v <= 89.0 for v in scores.values())
        rows = result.as_rows()
        assert rows[0]["sparsity"] == "75% (2:8)"

    @pytest.mark.parametrize("v,m", [(64, 8), (128, 16), (64, 32)])
    def test_figure15_bars_are_the_four_categories_and_total(self, v, m):
        from repro.models.config import BERT_BASE

        out = figure15_end_to_end(v_values=(v,), m_values=(m,),
                                  models=(("bert-base", BERT_BASE, 2, 1),), seq_len=64)
        for bars in out["bert-base"].values():
            assert list(bars) == ["gemm", "matmul", "softmax", "other", "total"]
            parts = sum(bars[c] for c in ("gemm", "matmul", "softmax", "other"))
            assert parts == pytest.approx(bars["total"])

    def test_figure15_reduced(self):
        from repro.models.config import BERT_BASE

        out = figure15_end_to_end(v_values=(64,), m_values=(16,),
                                  models=(("bert-base", BERT_BASE, 8, 2),), seq_len=128)
        plans = out["bert-base"]
        assert set(plans) == {"dense", "64:2:16"}
        assert plans["64:2:16"]["total"] < plans["dense"]["total"]
        assert plans["64:2:16"]["gemm"] < plans["dense"]["gemm"]
        assert plans["64:2:16"]["softmax"] == pytest.approx(plans["dense"]["softmax"], rel=1e-6)

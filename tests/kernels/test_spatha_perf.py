"""Tests for Spatha's performance model, stages and tuner.

These encode the qualitative behaviours the paper reports rather than
absolute times: speedups grow with K and with sparsity, never exceed the
theoretical cap, the column-loc overhead is small, 128-bit output stores
beat 32-bit ones, and the tuner never returns a configuration worse than
the default.
"""

import pytest

from repro.kernels import cublas
from repro.kernels.common import GemmProblem
from repro.kernels.spatha import (
    SpathaTuner,
    compute_stage_breakdown,
    compute_tile_counts,
    estimate_time,
    speedup_vs_dense,
    theoretical_speedup_cap,
)
from repro.kernels.spatha.config import default_config


def problem(k=4096, n=2, m=8, v=128, r=1024, c=4096):
    return GemmProblem.from_nm(r=r, k=k, c=c, n=n, m=m, v=v)


class TestTheoreticalCap:
    def test_paper_values(self):
        assert theoretical_speedup_cap(2, 10) == pytest.approx(5.0)
        assert theoretical_speedup_cap(2, 20) == pytest.approx(10.0)
        assert theoretical_speedup_cap(2, 40) == pytest.approx(20.0)
        assert theoretical_speedup_cap(2, 100) == pytest.approx(50.0)
        assert theoretical_speedup_cap(2, 4) == pytest.approx(2.0)

    def test_invalid_pattern(self):
        with pytest.raises(ValueError):
            theoretical_speedup_cap(0, 4)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 6: the tuned 2:4 Spatha estimate reads 2.0235x cuBLAS (the best of "
        "45 tuner candidates against cuBLAS's best of six tile shapes, 64x64 here), above "
        "the M/N cap of 2.0",
    )
    def test_tuned_2_4_estimate_within_cap(self, gpu):
        p = problem(m=4, v=64)
        s = cublas.estimate_time(p, gpu=gpu).time_us / SpathaTuner(gpu=gpu).best_result(p).time_us
        assert s <= theoretical_speedup_cap(2, 4)


class TestEstimateTime:
    def test_requires_vnm_problem(self, gpu):
        with pytest.raises(ValueError):
            estimate_time(GemmProblem(1024, 4096, 4096), gpu=gpu)
        with pytest.raises(ValueError):
            estimate_time(GemmProblem(1024, 4096, 4096, sparsity=0.5, n=2, m=4), gpu=gpu)

    def test_time_positive_and_grows_with_k(self, gpu):
        t1 = estimate_time(problem(k=2048), gpu=gpu).time_us
        t2 = estimate_time(problem(k=8192), gpu=gpu).time_us
        assert 0 < t1 < t2

    def test_higher_sparsity_is_faster(self, gpu):
        t_2_8 = estimate_time(problem(m=8), gpu=gpu).time_us
        t_2_16 = estimate_time(problem(m=16), gpu=gpu).time_us
        t_2_32 = estimate_time(problem(m=32), gpu=gpu).time_us
        assert t_2_32 < t_2_16 < t_2_8

    def test_speedup_below_cap(self, gpu):
        for m in (8, 10, 20, 40):
            p = problem(k=8192, m=m)
            s = speedup_vs_dense(p, gpu=gpu)
            assert 1.0 < s <= theoretical_speedup_cap(2, m), m

    def test_speedup_grows_with_k(self, gpu):
        s_small = speedup_vs_dense(problem(k=768, m=20), gpu=gpu)
        s_large = speedup_vs_dense(problem(k=12288, m=20), gpu=gpu)
        assert s_large > s_small

    def test_approaches_cap_at_large_k(self, gpu):
        """At K=12288 the tuned kernel reaches ~80-95% of the theoretical
        cap, close to the 4.5x/8.5x/17.5x the paper reports."""
        tuner = SpathaTuner(gpu=gpu)
        for m, paper in ((10, 4.5), (20, 8.5), (40, 17.5)):
            p = problem(k=12288, m=m)
            dense = cublas.estimate_time(p, gpu=gpu)
            s = dense.time_us / tuner.best_result(p).time_us
            cap = theoretical_speedup_cap(2, m)
            assert 0.75 * cap <= s <= cap
            assert s == pytest.approx(paper, rel=0.35)

    def test_2_4_close_to_2x(self, gpu):
        p = problem(k=12288, m=4)
        dense = cublas.estimate_time(p, gpu=gpu)
        s = dense.time_us / SpathaTuner(gpu=gpu).best_result(p).time_us
        assert 1.6 <= s <= 2.0

    def test_faster_than_cusparselt_at_small_k(self, gpu):
        from repro.kernels import cusparselt

        p = problem(k=768, m=4)
        sp = SpathaTuner(gpu=gpu).best_result(p)
        cl = cusparselt.estimate_time(p, gpu=gpu)
        ratio = cl.time_us / sp.time_us
        assert 1.0 < ratio <= 1.45  # the paper reports up to 1.38x

    def test_k_not_divisible_by_m_is_padded(self, gpu):
        res = estimate_time(problem(k=4096, m=10), gpu=gpu)
        assert res.time_us > 0


class TestAblations:
    def test_columnloc_overhead_small(self, gpu):
        """Figure 9: the column-loc overhead is negligible (a few percent)."""
        cfg = default_config(128)
        p = problem(k=8192, m=20)
        with_cloc = estimate_time(p, config=cfg, gpu=gpu).time_us
        without = estimate_time(p, config=cfg.with_options(use_column_loc=False), gpu=gpu).time_us
        assert without <= with_cloc
        assert (with_cloc - without) / with_cloc < 0.15

    def test_columnloc_overhead_grows_with_sparsity(self, gpu):
        """The relative overhead is more visible at 2:100 than at 2:10."""
        cfg = default_config(128)

        def overhead(m):
            p = problem(k=8000 if m != 100 else 8000, m=m)
            w = estimate_time(p, config=cfg, gpu=gpu).time_us
            wo = estimate_time(p, config=cfg.with_options(use_column_loc=False), gpu=gpu).time_us
            return (w - wo) / w

        assert overhead(100) >= overhead(10) - 1e-6

    def test_wide_stores_faster_than_narrow(self, gpu):
        cfg = default_config(128)
        p = problem(k=4096, m=40)
        wide = estimate_time(p, config=cfg, gpu=gpu).time_us
        narrow = estimate_time(p, config=cfg.with_options(wide_output_stores=False), gpu=gpu).time_us
        assert narrow > wide
        assert narrow / wide < 2.5  # "up to 2x" in the paper

    def test_narrow_store_penalty_grows_with_sparsity(self, gpu):
        cfg = default_config(128)

        def penalty(m):
            p = problem(k=4096, m=m)
            wide = estimate_time(p, config=cfg, gpu=gpu).time_us
            narrow = estimate_time(p, config=cfg.with_options(wide_output_stores=False), gpu=gpu).time_us
            return narrow / wide

        assert penalty(100) > penalty(8)

    def test_larger_v_not_slower(self, gpu):
        """Figure 10: larger vector sizes perform at least as well."""
        p32 = estimate_time(problem(k=4096, m=40, v=32), config=default_config(32), gpu=gpu).time_us
        p128 = estimate_time(problem(k=4096, m=40, v=128), config=default_config(128), gpu=gpu).time_us
        assert p128 <= p32 * 1.05


class TestStageBreakdown:
    def test_traffic_positive_and_consistent(self, gpu):
        p = problem()
        cfg = default_config(128)
        counts = compute_tile_counts(p.r, p.k, p.c, p.m, cfg)
        stages = compute_stage_breakdown(p, cfg, counts, gpu)
        assert stages.issued_flops == pytest.approx(2.0 * p.r * (p.k // p.m * 4) * p.c)
        assert stages.traffic.gmem_read_bytes > 0
        assert stages.traffic.gmem_write_bytes == pytest.approx(p.r * p.c * 2.0)
        assert stages.stage3_smem_bytes == pytest.approx(p.r * p.c * 8.0)

    def test_columnloc_disabled_removes_traffic_and_stall(self, gpu):
        p = problem()
        cfg = default_config(128)
        counts = compute_tile_counts(p.r, p.k, p.c, p.m, cfg)
        with_cloc = compute_stage_breakdown(p, cfg, counts, gpu)
        without = compute_stage_breakdown(p, cfg.with_options(use_column_loc=False), counts, gpu)
        assert without.columnloc_stall_cycles == 0.0
        assert with_cloc.columnloc_stall_cycles > 0.0
        assert without.traffic.gmem_read_bytes < with_cloc.traffic.gmem_read_bytes

    def test_narrow_stores_have_conflicts(self, gpu):
        p = problem()
        cfg = default_config(128)
        counts = compute_tile_counts(p.r, p.k, p.c, p.m, cfg)
        wide = compute_stage_breakdown(p, cfg, counts, gpu)
        narrow = compute_stage_breakdown(p, cfg.with_options(wide_output_stores=False), counts, gpu)
        assert wide.output_conflict_factor == pytest.approx(1.0)
        assert narrow.output_conflict_factor >= 2.0

    def test_requires_nm_pattern(self, gpu):
        cfg = default_config(128)
        counts = compute_tile_counts(1024, 4096, 4096, 8, cfg)
        with pytest.raises(ValueError):
            compute_stage_breakdown(GemmProblem(1024, 4096, 4096), cfg, counts, gpu)


class TestTuner:
    def test_best_never_worse_than_default(self, gpu):
        tuner = SpathaTuner(gpu=gpu)
        p = problem(k=4096, m=8)
        best = tuner.best_result(p).time_us
        default = estimate_time(p, config=default_config(128), gpu=gpu).time_us
        assert best <= default + 1e-9

    def test_cache_reused(self, gpu):
        tuner = SpathaTuner(gpu=gpu)
        p = problem(k=2048, m=8)
        tuner.tune(p)
        assert tuner.cache_size() == 1
        tuner.tune(p)
        assert tuner.cache_size() == 1

    def test_tuning_record_ordering(self, gpu):
        tuner = SpathaTuner(gpu=gpu)
        record = tuner.tune(problem(k=2048, m=8))
        times = [t for _, t in record.results]
        assert times == sorted(times)
        assert record.tuning_gain >= 1.0
        assert record.best_time_us <= record.worst_time_us

    def test_requires_full_problem(self, gpu):
        with pytest.raises(ValueError):
            SpathaTuner(gpu=gpu).tune(GemmProblem(1024, 4096, 4096))

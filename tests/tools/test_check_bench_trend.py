"""The bench-trend gate: serving floors and baseline regression checks.

The tool CI's perf job runs (``tools/check_bench_trend.py``) is imported
and unit-tested here so the gate's semantics are themselves tier-1-tested:
a ``serving.*`` entry below the floor fails, a >tolerance drop against the
baseline fails, and the committed ``BENCH_engine.json`` must hold its own
gates (the record the docs quote cannot document a regression).

NaN is the "no data" sentinel (a latency percentile over zero completed
requests — see :class:`repro.serving.simulate.SimReport`): both
sides of that contract are pinned here — empty-sample percentiles return
NaN rather than a fake 0.0, and the gate *skips* NaN entries with a
warning instead of letting ``nan < floor`` (always False) wave them
through.
"""

import json
import math
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_bench_trend import check_trend, main  # noqa: E402


def entry(op, shape, speedup):
    return {"op": op, "shape": shape, "speedup": speedup}


class TestServingFloor:
    def test_serving_entry_below_floor_fails(self):
        failures = check_trend([entry("serving.encoder_continuous", "s", 0.92)])
        assert len(failures) == 1
        assert "below" in failures[0] and "0.92" in failures[0]

    def test_serving_entry_at_floor_passes(self):
        assert check_trend([entry("serving.encoder_continuous", "s", 1.0)]) == []

    def test_floor_only_applies_to_serving_ops(self):
        # A sub-1.0 kernel entry is suspicious but not this gate's business.
        assert check_trend([entry("spatha.spmm", "s", 0.5)]) == []

    def test_custom_floor(self):
        record = [entry("serving.encoder", "s", 1.5)]
        assert check_trend(record, min_serving_speedup=2.0) != []
        assert check_trend(record, min_serving_speedup=1.5) == []

    def test_missing_speedup_field_fails(self):
        assert check_trend([{"op": "serving.x", "shape": "s"}]) != []

    def test_faulted_entry_is_exempt_from_the_floor(self):
        # The faulted bench compares fault-free vs fault-injected serving of
        # the same schedule: sub-1.0 by construction (failovers cost retries).
        assert check_trend([entry("serving.encoder_faulted", "s", 0.6)]) == []

    def test_faulted_entry_still_gated_on_trend(self):
        failures = check_trend(
            [entry("serving.encoder_faulted", "s", 0.4)],
            baseline=[entry("serving.encoder_faulted", "s", 0.9)],
        )
        assert len(failures) == 1
        assert "regressed" in failures[0]


class TestBaselineTrend:
    def test_regression_beyond_tolerance_fails(self):
        failures = check_trend(
            [entry("spatha.spmm", "big", 1.7)],
            baseline=[entry("spatha.spmm", "big", 2.0)],
        )
        assert len(failures) == 1
        assert "regressed" in failures[0]

    def test_regression_within_tolerance_passes(self):
        assert (
            check_trend(
                [entry("spatha.spmm", "big", 1.85)],
                baseline=[entry("spatha.spmm", "big", 2.0)],
            )
            == []
        )

    def test_entries_matched_by_op_and_shape(self):
        # Same op at a different shape is a different measurement — no match,
        # no fabricated comparison (quick-mode records vs full baselines).
        assert (
            check_trend(
                [entry("spatha.spmm", "small", 1.0)],
                baseline=[entry("spatha.spmm", "big", 10.0)],
            )
            == []
        )

    def test_improvements_never_fail(self):
        assert (
            check_trend(
                [entry("serving.encoder", "s", 3.0)],
                baseline=[entry("serving.encoder", "s", 1.2)],
            )
            == []
        )

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            check_trend([], regression_tolerance=1.0)


class TestNaNIsNoData:
    def test_nan_serving_entry_skips_floor_with_warning(self):
        """``nan < floor`` is False, so without the explicit skip a NaN
        serving entry would silently *pass* the floor.  It must be skipped
        and warned about instead — and never counted as a failure."""
        warnings = []
        failures = check_trend(
            [entry("serving.decoder_continuous", "s", float("nan"))],
            warnings=warnings,
        )
        assert failures == []
        assert len(warnings) == 1
        assert "NaN" in warnings[0] and "skipped" in warnings[0]

    def test_nan_current_entry_skips_trend_too(self):
        warnings = []
        failures = check_trend(
            [entry("serving.x", "s", float("nan"))],
            baseline=[entry("serving.x", "s", 2.0)],
            warnings=warnings,
        )
        assert failures == []
        assert len(warnings) == 1  # one warning covers floor + trend

    def test_nan_baseline_skips_trend_with_warning(self):
        """A NaN *baseline* would make ``floor = nan * 0.9`` and every
        comparison against it False — a silently-passing trend check."""
        warnings = []
        failures = check_trend(
            [entry("serving.x", "s", 1.5)],
            baseline=[entry("serving.x", "s", float("nan"))],
            warnings=warnings,
        )
        assert failures == []
        assert len(warnings) == 1
        assert "baseline" in warnings[0] and "NaN" in warnings[0]

    def test_warnings_list_is_optional(self):
        assert check_trend([entry("serving.x", "s", float("nan"))]) == []

    def test_real_failures_still_fail_alongside_nan_entries(self):
        warnings = []
        failures = check_trend(
            [
                entry("serving.good", "s", 1.2),
                entry("serving.empty", "s", float("nan")),
                entry("serving.bad", "s", 0.5),
            ],
            warnings=warnings,
        )
        assert len(failures) == 1 and "serving.bad" in failures[0]
        assert len(warnings) == 1 and "serving.empty" in warnings[0]

    def test_cli_warns_but_exits_zero_on_nan(self, tmp_path, capsys):
        record = tmp_path / "nan.json"
        record.write_text(
            json.dumps({"benchmarks": [entry("serving.x", "s", None)]})
            .replace("null", "NaN")
        )
        assert main([str(record)]) == 0
        out = capsys.readouterr().out
        assert "WARN" in out and "NaN" in out

    def test_empty_sample_percentiles_are_nan_not_zero(self):
        """The producer side of the sentinel: a report with zero completed
        requests must report NaN percentiles and a NaN mean (``0.0`` used to
        masquerade as an impossibly perfect latency)."""
        from repro.serving.simulate import SimReport

        report = SimReport(
            num_requests=0,
            num_batches=0,
            makespan_us=0.0,
            latencies_us={},
        )
        assert math.isnan(report.mean_latency_us)
        assert math.isnan(report.p95_latency_us)
        assert math.isnan(report.p99_latency_us)
        assert math.isnan(report.p999_latency_us)
        assert all(
            math.isnan(report.per_class()[0][key])
            for key in ("p50_latency_us", "p99_latency_us", "p999_latency_us")
        )
        chaos = SimReport(
            seed=0, num_requests=0, makespan_us=0.0, outcomes={}, latencies_us={}
        )
        assert math.isnan(chaos.p99_latency_us)

    def test_nonempty_percentiles_unchanged(self):
        from repro.serving.simulate import SimReport

        report = SimReport(
            num_requests=4,
            num_batches=4,
            makespan_us=100.0,
            latencies_us={f"r{i}": float(i + 1) for i in range(4)},
        )
        assert report.p99_latency_us == pytest.approx(3.97)


class TestRecordShapes:
    def test_accepts_full_record_dict(self):
        record = {"benchmarks": [entry("serving.encoder", "s", 1.2)]}
        assert check_trend(record, baseline=record) == []

    def test_rejects_malformed_record(self):
        with pytest.raises(ValueError):
            check_trend({"nope": True})

    def test_cli_round_trip(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"benchmarks": [entry("serving.x", "s", 1.1)]}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"benchmarks": [entry("serving.x", "s", 0.5)]}))
        assert main([str(good), "--baseline", str(good)]) == 0
        assert main([str(bad)]) == 1


class TestCommittedRecord:
    def test_committed_bench_holds_its_own_gates(self):
        """The record the README/docs quote must pass the gate it documents."""
        record = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
        assert check_trend(record, baseline=record) == []

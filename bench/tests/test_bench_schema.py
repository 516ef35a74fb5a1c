"""Schema checks for the benchmark definition.

Run explicitly — the tier-1 ``testpaths`` do not collect this directory::

    python -m pytest bench/tests
"""

import ast
import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_extras():
    import sys

    sys.path.insert(0, str(ROOT))
    try:
        from bench import spec
    finally:
        sys.path.pop(0)
    return spec


def test_top_level_keys_and_limits():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    # Every run of the driver's plan must fit the time cap: a run is the
    # timed phase plus about 10 s of start-up, three set-ups and the check.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 10) <= 3420


def test_names_units_and_uniqueness():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"]] + [m["name"] for m in spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_end_to_end_metrics_carry_clock_bound_and_workloads():
    spec, extras = load_spec(), load_extras()
    workloads = {w["name"] for w in spec["workloads"]}
    assert [m["name"] for m in spec["end_to_end"]] == list(extras.END_TO_END)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    for metric in spec["end_to_end"]:
        extra = extras.END_TO_END[metric["name"]]
        assert extra["clock"] in ("wall", "modelled", "none")
        assert extra["definition"]
        assert set(extra["workloads"]) <= workloads and extra["workloads"]
        # The contract caps a bound at 0.25 (the issue's 0.10 does not hold on
        # a shared box, see README) and wants set-up to carry the largest.
        assert 0 < metric["bound"] <= 0.25
        assert metric["bound"] <= setup[0]["bound"]


def test_per_layer_metrics_say_what_they_should_move_and_where():
    spec, extras = load_spec(), load_extras()
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert [m["name"] for m in spec["per_layer"]] == list(extras.PER_LAYER)
    for name, (clock, moves, on, zero_on) in extras.PER_LAYER.items():
        assert clock in ("wall", "modelled", "none"), name
        assert moves and set(moves) <= end_to_end, name
        assert on and set(on) <= workloads, name
        assert set(zero_on) <= workloads and not set(on) & set(zero_on), name
        assert name.split(".")[0] in (
            "formats", "pruning", "integration", "kernels", "hardware", "models", "serving", "bench"
        ), name


def test_benchmark_imports_only_public_repro_names():
    """No underscore name from ``repro`` and no deprecated engine keyword, so
    an engine refactor that keeps the public surface lands unchanged."""
    deprecated = {"padding", "block_size", "capacity_blocks", "kv_budget_blocks"}
    engine_calls = {"ModelServingEngine", "DecoderServingEngine", "ServingEngine", "create_engine"}
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "repro":
                assert not any(part.startswith("_") for part in node.module.split(".")), (path, node.module)
                for alias in node.names:
                    assert not alias.name.startswith("_"), (path.name, alias.name)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__"):
                # Private attributes of the benchmark's own objects are fine;
                # reaching into another object's is what the rule forbids.
                owner = node.value
                assert isinstance(owner, ast.Name) and owner.id in ("self", "cls", "tracer"), (
                    path.name, node.lineno, node.attr,
                )
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in engine_calls:
                assert not deprecated & {kw.arg for kw in node.keywords}, (path.name, node.lineno)

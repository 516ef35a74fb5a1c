"""The repo benchmark's one command.

Driver form (one workload, one fresh process, JSON on the last line)::

    python3 bench/run.py --workload enc_online --seed 0 --seconds 12 --trace 0

Human form (every workload, each in its own fresh process, one after
another, every metric printed by name with unit, clock and direction)::

    python3 bench/run.py --workload all --seed 0 [--trace 1] [--smoke]

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` is a separate run: an untraced slice, then a traced slice of the same
phase, whose difference is the tracing overhead; it prints the per-layer
metrics and writes ``bench/out/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One driver thread and one BLAS thread: must be set before NumPy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# Import ``bench`` as a package from the checkout root (the script's own
# directory would otherwise shadow the standard library's ``trace``).
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

SMOKE_SECONDS = 1.0
OUT_DIR = os.path.join(ROOT, "bench", "out")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def workload_classes() -> dict:
    from bench.decoder import DecPrefill, DecShared
    from bench.encoder import EncOffline, EncOnline
    from bench.sweep import SpmmSweep

    return {cls.name: cls for cls in (EncOffline, EncOnline, DecPrefill, DecShared, SpmmSweep)}


def timed_setup(workload, smoke: bool) -> float:
    """Set the system up several times; the median is ``setup_s``.

    Set-up is everything a process pays once before it can serve: model
    init, prune + compress, engine construction, warming and one warm-up
    replay (first-call plan ranking, the first copy-on-write).  The seeded
    inputs were built by the constructor and are not part of it; each
    repeat builds the system afresh and the last build is the one measured.
    The repeat count is the workload's own constant, not a time budget, so
    that ``peak_rss_mb`` does not depend on how fast the host happened to be.
    """
    times = []
    for _ in range(1 if smoke else workload.setup_repeats):
        t0 = perf_counter()
        workload.setup()
        workload.warm_up()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_untraced(cls, args) -> dict:
    from bench.common import end_to_end

    workload = cls(args.seed, args.smoke)
    setup_s = timed_setup(workload, args.smoke)
    samples = workload.run(args.seconds)
    checked, mismatched = workload.verify()
    if checked == 0:
        raise SystemExit(f"{cls.name}: the output check had nothing to check")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = end_to_end(samples, setup_s, workload.modelled_speedup(), rss_mb)
    return finish(samples, mismatched, values)


def run_traced(cls, args) -> dict:
    from bench.common import TracedRun
    from bench.layers import breakdown
    from bench.trace import Table, Tracer

    tracer = Tracer()
    workload = cls(args.seed, args.smoke)
    workload.setup()
    workload.instrument(tracer)
    with tracer.span("bench.warm_up") as warm_root:
        workload.warm_up()
    tracer.detach()
    tracer.shapes.clear()
    # A-B-A: untraced, traced, untraced slices of the same phase.
    untraced = [workload.run(args.seconds * 0.2)]
    workload.instrument(tracer)
    before = workload.counters()
    with tracer.span("bench.phase") as root:
        samples = workload.run(args.seconds * 0.6, tracer)
    after = workload.counters()
    tracer.detach()
    untraced.append(workload.run(args.seconds * 0.2))
    workload.side_phases(args.seconds)
    checked, mismatched = workload.verify()
    if checked == 0:
        raise SystemExit(f"{cls.name}: the output check had nothing to check")
    run = TracedRun(tracer, root, warm_root, samples, untraced, before, after)
    values = workload.layer_metrics(run)
    values.update(run.untraced_tails())
    lines = breakdown(Table(tracer, root), values)
    if args.show:
        print("\n".join(lines))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_jsonl(os.path.join(OUT_DIR, f"{cls.name}.spans.jsonl"))
    for one in untraced:
        samples.attempted += one.attempted
        samples.failed += one.failed
        samples.errors += one.errors
    return finish(samples, mismatched, values)


def finish(samples, mismatched: int, values: dict) -> dict:
    for line in samples.errors[:5]:
        print(f"operation failed: {line}", file=sys.stderr)
    failed = samples.failed + mismatched
    return {
        "correct": mismatched == 0,
        "attempted": int(samples.attempted),
        "failed": int(failed),
        "values": values,
    }


def run_one(args) -> int:
    spec = load_spec()
    cls = workload_classes()[args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    result = (run_traced if args.trace else run_untraced)(cls, args)
    values = result.pop("values")
    metrics = {}
    for entry in spec[section]:
        value = float(values.get(entry["name"], 0.0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        if args.smoke:
            metrics[entry["name"]]["smoke"] = True
    undeclared = sorted(set(values) - set(metrics))
    if undeclared:
        raise SystemExit(f"{cls.name}: metrics not declared in BENCHMARK.json: {undeclared}")
    if args.show:
        show(args.workload, section, spec, metrics, result)
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


def show(workload: str, section: str, spec: dict, metrics: dict, result: dict) -> None:
    from bench.spec import CLOCKS

    print(f"== {workload}: {section} "
          f"(attempted {result['attempted']}, failed {result['failed']}, "
          f"outputs {'ok' if result['correct'] else 'MISMATCH'})")
    for entry in spec[section]:
        name = entry["name"]
        print(f"  {name:<48} {metrics[name]['value']:>14.4f} {entry['unit']:<9} "
              f"clock={CLOCKS.get(name, 'wall'):<8} better={entry['better']}")


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    spec = load_spec()
    code = 0
    for entry in spec["workloads"]:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", entry["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--show",
        ]
        if args.smoke:
            command.append("--smoke")
        code = max(code, subprocess.run(command, check=False).returncode)
    return code


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/20 of the work; values are flagged and not comparable")
    parser.add_argument("--show", action="store_true",
                        help="also print every metric with unit, clock and direction")
    args = parser.parse_args()
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

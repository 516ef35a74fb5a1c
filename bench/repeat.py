"""Repeat the whole benchmark and judge every metric against its own bound.

    python3 bench/repeat.py --sets 5

runs the full untraced benchmark ``--sets`` times — each set with another
seed, the workload order reversed on every other set — and prints, per
end-to-end metric and workload, the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (interquartile distance
as a share of the median) and the largest deviation from the median, with
PASS / FAIL against the metric's bound in ``BENCHMARK.json``.  A metric that
cannot hold its bound gets a longer run or is demoted to the per-layer list;
the bound is not widened to fit the noise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, os.path.join(ROOT, "bench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, check=True, capture_output=True, text=True, timeout=180)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed, correct={result['correct']}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first set")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    args = parser.parse_args()
    if args.sets < 2:
        parser.error("--sets must be at least 2 (quartiles need two values)")

    workloads = [entry["name"] for entry in spec["workloads"]]
    values: dict = {}
    for index in range(args.sets):
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            metrics = run_once(workload, args.seed + index, args.seconds)
            for name, value in metrics.items():
                values.setdefault((name, workload), []).append(value)
            print(f"set {index} seed {args.seed + index} {workload}: done", file=sys.stderr)

    failed = 0
    print(f"{'metric':<28} {'workload':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'max dev':>8} {'bound':>8}")
    for entry in spec["end_to_end"]:
        for workload in workloads:
            series = values[(entry["name"], workload)]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median)
            max_dev = max(abs(v - median) for v in series) / abs(median)
            ok = spread <= entry["bound"]
            failed += not ok
            print(f"{entry['name']:<28} {workload:<12} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.4f} {max_dev:>8.4f} {entry['bound']:>8.2g} {'PASS' if ok else 'FAIL'}")
    print(f"{failed} metric x workload pairs outside their bound" if failed else "every spread within its bound")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

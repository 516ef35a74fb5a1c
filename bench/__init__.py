"""The repo benchmark: workloads, runner, tracer (see bench/README.md)."""

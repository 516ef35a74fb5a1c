#!/usr/bin/env python
"""Reach ledger: the functions of ``src/repro`` that the product never calls.

Runs the product surface — the six examples, the paper-figure tests, the
repo benchmark (``bench/run.py --workload all --smoke``, untraced and with
``--trace 1``), ``benchmarks/run_bench.py --quick`` and the README / docs
snippets — with a call-event hook installed in every Python process they
start, then prints the body lines of every top-level function and method
that no process entered, per module and per function::

    python tools/reach_ledger.py

The hook is a ``sys.settrace`` function that records each frame's code
object and returns ``None`` (no line events).  It is installed through a
temporary ``sitecustomize.py`` placed first on ``PYTHONPATH``, so the
subprocesses the surface starts (``bench/run.py`` runs each workload in
its own) are traced too.  Functions are matched by ``(file,
co_firstlineno)``; for a decorated function that is its first decorator's
line.  Body lines run from the first statement after the docstring to the
function's last line.

Unreached is a candidate list, not a verdict: a branch taken only above a
size threshold the surface does not cross reads as unreached here.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

HOOK = '''\
import atexit, os, sys, tempfile, threading

_seen = set()


def _hook(frame, event, arg):
    _seen.add(frame.f_code)


sys.settrace(_hook)
threading.settrace(_hook)


@atexit.register
def _dump():
    sys.settrace(None)
    root = os.environ["REACH_ROOT"]
    files = {}
    lines = []
    for code in _seen:
        name = files.get(code.co_filename)
        if name is None:
            name = files[code.co_filename] = os.path.realpath(code.co_filename)
        if name.startswith(root):
            lines.append(f"{name}\\t{code.co_firstlineno}\\n")
    fd, _ = tempfile.mkstemp(dir=os.environ["REACH_OUT"], suffix=".reach")
    with os.fdopen(fd, "w") as out:
        out.writelines(lines)
'''


def functions(root: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """Every top-level function and method under ``root``.

    Maps ``(real file path, first line)`` to ``(qualified name, body
    lines)``, where the first line is what ``co_firstlineno`` reports.
    """
    found = {}
    for path in sorted(Path(root).rglob("*.py")):
        name = os.path.realpath(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        pending = [(node, "") for node in tree.body]
        while pending:
            node, prefix = pending.pop()
            if isinstance(node, ast.ClassDef):
                pending.extend((child, f"{prefix}{node.name}.") for child in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(name, first)] = (prefix + node.name, _body_lines(node))
    return found


def _body_lines(node: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    body = node.body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if not body:
        return 0
    return node.end_lineno - body[0].lineno + 1


def trace(commands, root: Path, cwd: Path, pythonpath=()) -> set[tuple[str, int]]:
    """Run ``commands`` under the call hook; the ``(file, line)`` keys reached under ``root``."""
    with tempfile.TemporaryDirectory() as scratch:
        hook_dir = Path(scratch, "hook")
        out_dir = Path(scratch, "out")
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        path = [str(hook_dir), *(str(Path(p).resolve()) for p in pythonpath)]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                   REACH_ROOT=os.path.realpath(root), REACH_OUT=str(out_dir))
        for command in commands:
            command = [str(part) for part in command]
            started = time.perf_counter()
            done = subprocess.run(command, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True, check=False)
            print(f"[{time.perf_counter() - started:6.1f} s] {' '.join(command)}", file=sys.stderr)
            if done.returncode:
                raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n"
                                 f"{done.stdout[-4000:]}")
        reached = set()
        for dump in out_dir.glob("*.reach"):
            for line in dump.read_text().splitlines():
                name, first = line.split("\t")
                reached.add((name, int(first)))
    return reached


def ledger(root: Path, reached: set[tuple[str, int]]):
    """``(total body lines, unreached body lines, {module: [(line, name, size)]})``."""
    total = unreached = 0
    by_module: dict[str, list[tuple[int, str, int]]] = {}
    base = Path(os.path.realpath(root)).parent
    for (name, first), (qualname, size) in functions(root).items():
        total += size
        if (name, first) in reached or size == 0:
            continue
        unreached += size
        module = Path(name).relative_to(base).as_posix()
        by_module.setdefault(module, []).append((first, qualname, size))
    return total, unreached, by_module


def render(total: int, unreached: int, by_module) -> str:
    lines = ["unreached body lines per module:"]
    for module in sorted(by_module):
        lines.append(f"  {sum(size for _, _, size in by_module[module]):5d}  {module}")
    lines.append(f"  {unreached:5d}  of {total} body lines in total")
    lines.append("")
    lines.append("unreached functions (body lines):")
    for module in sorted(by_module):
        for first, qualname, size in sorted(by_module[module]):
            lines.append(f"  {size:5d}  {module}:{first}  {qualname}")
    return "\n".join(lines)


def product_surface(scratch: Path) -> list[list]:
    """The commands the ledger counts as the product, run from the repo root."""
    python = sys.executable
    figures = sorted(
        str(path.relative_to(REPO))
        for pattern in ("test_fig*.py", "test_table*.py", "test_ablation*.py")
        for path in (REPO / "benchmarks").glob(pattern)
    )
    docs = ["README.md", *sorted(str(p.relative_to(REPO)) for p in (REPO / "docs").glob("*.md"))]
    return [
        *([python, str(path.relative_to(REPO))] for path in sorted((REPO / "examples").glob("*.py"))),
        # pytest-benchmark would otherwise time the figure bodies many times over.
        [python, "-m", "pytest", "-q", "--benchmark-disable", *figures],
        [python, "bench/run.py", "--workload", "all", "--smoke", "--trace", "0"],
        [python, "bench/run.py", "--workload", "all", "--smoke", "--trace", "1"],
        # Without --output the run overwrites the committed BENCH_engine.json,
        # whose recorded values the docs snippets assert.
        [python, "benchmarks/run_bench.py", "--quick", "--output", scratch / "bench.json"],
        [python, "tools/run_doc_snippets.py", *docs],
    ]


def main() -> int:
    root = REPO / "src" / "repro"
    with tempfile.TemporaryDirectory() as scratch:
        reached = trace(product_surface(Path(scratch)), root, REPO, pythonpath=[REPO / "src"])
    print(render(*ledger(root, reached)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

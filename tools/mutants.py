#!/usr/bin/env python
"""Historic-regression mutant gate: re-introduce fixed bugs, expect the tests to catch them.

Each row of :data:`MUTANTS` is a small source patch that puts back one bug
this repository has already fixed (CHANGES.md records each fix), plus the
test files that must catch (kill) it.  The tool copies
``src/`` and ``tests/`` into a temporary directory, checks that every row's
tests pass on the unpatched copy, then applies each patch in turn and runs
its tests with ``-x``::

    python tools/mutants.py            # every row
    python tools/mutants.py NAME ...   # the named rows

A mutant is killed when pytest reports a failing test.  The tool exits 1
if any mutant survives, or if a patch no longer applies (the code it
targets changed: update the row, or retire it in writing).  About 20 s
on one core.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    #: Row name (what the command line selects), naming the bug put back.
    name: str
    #: Source file, relative to the repository root.
    path: str
    #: ``(old, new)`` replacements; each ``old`` must occur exactly once.
    patches: Tuple[Tuple[str, str], ...]
    #: Test files (or node ids) that must kill the mutant.
    tests: Tuple[str, ...]


MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        "async-window-closes-at-next-arrival",
        "src/repro/serving/engine.py",
        ((
            "                        self.batcher.next_event_us(),\n",
            "                        None if admitted < len(queue) else self.batcher.next_event_us(),\n",
        ),),
        ("tests/serving/test_batcher.py",),
    ),
    Mutant(
        "decoder-duplicate-submit-of-held-id",
        "src/repro/serving/decoder.py",
        ((
            "if rid in self._residents or self.batcher.is_queued(rid):",
            "if self.batcher.is_queued(rid):",
        ),),
        ("tests/serving/test_decoder.py",),
    ),
    Mutant(
        "length-groups-run-longest-first",
        "src/repro/serving/model_engine.py",
        ((
            "    return [groups[tokens] for tokens in sorted(groups)]\n",
            "    return [groups[tokens] for tokens in sorted(groups, reverse=True)]\n",
        ),),
        ("tests/serving/test_length_groups.py",),
    ),
    Mutant(
        "modelled-engine-walks-projections-out-of-forward-order",
        "src/repro/serving/simulate.py",
        ((
            "            for qualified_name, lin in self.encoder.named_linear_layers():\n",
            "            for qualified_name, lin in reversed(list(self.encoder.named_linear_layers())):\n",
        ),),
        ("tests/serving/test_simulator_agreement.py",),
    ),
    Mutant(
        "decoder-batcher-prices-one-kv-block",
        "src/repro/serving/config.py",
        (("                return -(-total // block_size)\n", "                return 1\n"),),
        ("tests/serving/test_decoder.py",),
    ),
    Mutant(
        "evicted-request-keeps-its-kv-footprint",
        "src/repro/serving/continuous.py",
        ((
            "        self._take(self.bucket_key(request), [request])\n"
            "        self._kv_need.pop(request.request_id, None)\n",
            "        self._take(self.bucket_key(request), [request])\n",
        ),),
        (
            "tests/serving/test_kv_state_machine.py::TestDecoderKVMachine",
            "tests/serving/test_decoder.py::TestNoPerRequestStateOutlivesTheRequest",
        ),
    ),
    Mutant(
        "keep-n-of-4-ties-go-to-the-later-position",
        "src/repro/formats/vnm.py",
        (("        np.greater(aj, ai).view(np.uint8)\n", "        np.greater_equal(aj, ai).view(np.uint8)\n"),),
        ("tests/formats/test_vnm_select.py",),
    ),
    Mutant(
        "keep-n-of-4-without-the-nan-map",
        "src/repro/formats/vnm.py",
        (("    np.fmax(mag, -1, out=mag)\n", ""),),
        ("tests/formats/test_vnm_select.py",),
    ),
    Mutant(
        "quantize-chunk-finite-flag-not-cleared",
        "src/repro/formats/base.py",
        ((
            "        finite &= _round_into(flat_x[lo:hi], flat_out[lo:hi], scratch[: hi - lo])[1]\n",
            "        _round_into(flat_x[lo:hi], flat_out[lo:hi], scratch[: hi - lo])\n",
        ),),
        ("tests/formats/test_quantize_fp16.py",),
    ),
    Mutant(
        "copy-on-write-keeps-the-shared-block",
        "src/repro/models/kv_cache.py",
        ((
            "                cache._release_block(block_id)\n                cache.cow_copies += 1\n",
            "                cache._refcount[block_id] -= 1\n                cache.cow_copies += 1\n",
        ),),
        ("tests/models/test_kv_cache.py",),
    ),
    Mutant(
        "unshared-prefix-outlives-its-owner",
        "src/repro/models/kv_cache.py",
        (("            if entry.keep:  # copied now", "            if True:  # copied now"),),
        (
            "tests/serving/test_decoder.py::TestPrefixSharing::test_unique_prompts_leave_no_registry",
            "tests/serving/test_decoder.py::TestPrefixSharing"
            "::test_a_recurring_prompt_is_kept_on_its_second_registration",
        ),
    ),
    Mutant(
        "kept-prefix-skips-its-copy-at-release",
        "src/repro/models/kv_cache.py",
        ((
            "entry.keys, entry.values = (_mapped_copy(rows) for rows in entry.rows())",
            "entry.keys, entry.values = entry.rows()",
        ),),
        (
            "tests/models/test_kv_cache.py::TestExtentLifetime"
            "::test_registered_rows_are_a_private_copy_of_the_prompt",
            "tests/serving/test_decoder.py::TestPrefixSharing"
            "::test_a_late_sharer_reads_the_kept_copy_not_the_recycled_extent",
        ),
    ),
    Mutant(
        "nonfinite-screen-demotes-the-whole-batch",
        "src/repro/kernels/spatha/plan.py",
        ((
            "    if b.ndim == 2:\n        return safe(b)\n    return np.stack(",
            "    return safe(b)\n    return np.stack(",
        ),),
        ("tests/kernels/test_dispatch.py",),
    ),
    Mutant(
        "dense-fallback-skips-the-demotion-to-spatha",
        "src/repro/kernels/dispatch.py",
        ((
            '            return SpmmPlan.for_matrix(operand.vnm).execute(b, strategy="dense")\n',
            "            return np.matmul(operand.dense16(), quantize_fp16(b))\n",
        ),),
        ("tests/kernels/test_dispatch.py",),
    ),
    Mutant(
        "second-injector-arms-without-effect",
        "src/repro/serving/faults.py",
        ((
            '        self._check_owner(dispatcher, "arm")\n        dispatcher.injector = self\n',
            "        if dispatcher.injector is None:\n            dispatcher.injector = self\n",
        ),),
        ("tests/serving/test_faults.py::TestInjectorFailover::test_a_second_injector_cannot_arm_a_dispatcher",),
    ),
    Mutant(
        "decoder-admission-error-orphans-a-prefilled-batchmate",
        "src/repro/serving/decoder.py",
        ((
            "        finally:\n            for resident in newly:\n",
            "        else:\n            for resident in newly:\n",
        ),),
        (
            "tests/serving/test_decoder.py::TestDecoderIntakeAndStats"
            "::test_a_refused_admission_settles_every_popped_request",
        ),
    ),
    Mutant(
        "next-event-ranks-edf-heads-over-unarrived-members",
        "src/repro/serving/continuous.py",
        (("                if fitting:\n                    return instant\n", ""),),
        (
            "tests/serving/test_slo.py::TestBatcherChunkSequenceProperty"
            "::test_a_later_tighter_deadline_does_not_postpone_a_fitting_head",
            "tests/serving/test_slo.py::TestBatcherChunkSequenceProperty"
            "::test_idle_step_moves_next_event_past_now",
        ),
    ),
    Mutant(
        "breaker-walk-stops-at-the-first-failure",
        "src/repro/kernels/dispatch.py",
        ((
            "                    first_failed = name\n                continue\n",
            "                    first_failed = name\n                break\n",
        ),),
        ("tests/kernels/test_dispatch.py",),
    ),
    Mutant(
        "bias-checked-after-the-kernel",
        "src/repro/kernels/dispatch.py",
        (
            (
                "        r = operand.r\n"
                "        if bias is not None:\n"
                "            bias = np.asarray(bias, dtype=np.float32)\n"
                "            if bias.shape not in {(r,), (r, 1)}:\n"
                '                raise ValueError(f"bias must have shape ({r},), got {bias.shape}")\n'
                "        decision = self.dispatch(",
                "        r = operand.r\n        decision = self.dispatch(",
            ),
            (
                "        if bias is not None:\n            out += bias.reshape(r, 1)\n",
                "        if bias is not None:\n"
                "            bias = np.asarray(bias, dtype=np.float32)\n"
                "            if bias.shape not in {(r,), (r, 1)}:\n"
                '                raise ValueError(f"bias must have shape ({r},), got {bias.shape}")\n'
                "            out += bias.reshape(r, 1)\n",
            ),
        ),
        ("tests/kernels/test_dispatch.py",),
    ),
    Mutant(
        "trace-builds-a-fresh-record-per-launch",
        "src/repro/serving/model_engine.py",
        (
            ("        launches = self._launches.get(shape)\n", "        launches = None\n"),
            (
                "        return replace(execution, meta=MappingProxyType(execution.meta))\n",
                "        return execution\n",
            ),
        ),
        (
            "tests/serving/test_model_engine.py::TestModelEngineApi"
            "::test_equal_shape_micro_batches_share_their_records",
            "tests/serving/test_model_engine.py::TestModelEngineApi"
            "::test_trace_records_are_read_only",
            "tests/serving/test_model_engine.py::TestModelEngineApi"
            "::test_a_launch_costs_the_trace_one_list_slot",
        ),
    ),
    Mutant(
        "decoder-fallback-error-leaves-a-partial-step",
        "src/repro/serving/decoder.py",
        (("                    resident.handle.truncate(lengths[i])\n", ""),),
        (
            "tests/serving/test_decoder.py::TestDecoderIntakeAndStats"
            "::test_an_error_of_the_per_resident_fallback_rolls_that_resident_back",
        ),
    ),
)


def apply(mutant: Mutant, source: str) -> str:
    """``source`` with every patch of ``mutant`` applied (each ``old`` once)."""
    for old, new in mutant.patches:
        count = source.count(old)
        if count != 1:
            raise ValueError(f"{mutant.name}: patch target found {count} times in {mutant.path}")
        source = source.replace(old, new)
    return source


def run_tests(root: Path, tests: Sequence[str]) -> Tuple[int, str]:
    """pytest ``-x`` on ``tests`` in ``root``; its return code and last line."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()[-200:]


def main(argv: Sequence[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}; known: {[m.name for m in MUTANTS]}")
        return 2
    start = time.perf_counter()
    bad: List[str] = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(REPO / part, root / part, ignore=ignore)
        shutil.copy(REPO / "pytest.ini", root / "pytest.ini")
        baseline = sorted({t for m in chosen for t in m.tests})
        code, last = run_tests(root, baseline)
        if code != 0:
            print(f"baseline: the unpatched tests do not pass ({last})")
            return 1
        for mutant in chosen:
            target = root / mutant.path
            original = target.read_text()
            try:
                target.write_text(apply(mutant, original))
            except ValueError as exc:
                print(f"STALE     {mutant.name}: {exc}")
                bad.append(mutant.name)
                continue
            try:
                code, last = run_tests(root, mutant.tests)
            finally:
                target.write_text(original)
            # 1: tests ran and one failed.  Anything else (an import or
            # collection error, no tests) is not a kill.
            verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR {code}"
            print(f"{verdict:<9} {mutant.name}: {last}")
            if code != 1:
                bad.append(mutant.name)
    elapsed = time.perf_counter() - start
    print(f"{len(chosen) - len(bad)} of {len(chosen)} mutants killed in {elapsed:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

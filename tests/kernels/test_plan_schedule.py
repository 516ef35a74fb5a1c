"""The ``auto`` chooser of :class:`SpmmPlan`: its verdicts, and the bit
contracts on both sides of its crossover.

The verdict is a pure function of ``(R, K, V, kc, C)``
(:func:`~repro.kernels.spatha.plan.auto_schedule`), so the pinned table is
evaluated without building the operands.  Every pinned verdict is the
schedule measured faster on the box the cost model was fitted on, or
within 10% of it.
"""

import numpy as np
import pytest

import repro.kernels.spatha.plan as plan_module
from repro.formats.vnm import VNMSparseMatrix
from repro.kernels.spatha import SpmmPlan, spmm_loop_reference
from repro.kernels.spatha.plan import auto_schedule


def verdict(r, k, v, m, c):
    below, crossover, above = auto_schedule(r, k, v, k // m * 4)
    return below if c < crossover else above


def make_vnm(rng, rows, cols, v, m):
    dense = rng.normal(size=(rows, cols)).astype(np.float32)
    return VNMSparseMatrix.from_dense(dense, v=v, n=2, m=m, strict=False)


#: ``spmm_sweep``'s operands (BERT-large shapes x V:N:M) -> verdict at C = 1, 64, 512.
SWEEP_VERDICTS = {
    (1024, 1024, 64, 4): ("dense",) * 3,
    (1024, 1024, 64, 8): ("gather",) * 3,
    (1024, 1024, 128, 16): ("gather",) * 3,
    (1024, 1024, 64, 32): ("gather",) * 3,
    (4096, 1024, 64, 4): ("dense",) * 3,
    (4096, 1024, 64, 8): ("gather",) * 3,
    (4096, 1024, 128, 16): ("gather",) * 3,
    (4096, 1024, 64, 32): ("gather",) * 3,
    (1024, 4096, 64, 4): ("dense",) * 3,
    (1024, 4096, 64, 8): ("gather",) * 3,
    (1024, 4096, 128, 16): ("gather",) * 3,
    (1024, 4096, 64, 32): ("gather",) * 3,
}

#: The (R, K) of the bench encoder's 12 sparse projections (hidden 256,
#: intermediate 1024, every projection 16:2:8), per layer: Q, K, V and the
#: attention output, the FFN expansion and the FFN contraction.
ENCODER_PROJECTIONS = 2 * ([(256, 256)] * 4 + [(1024, 256), (256, 1024)])
ENCODER_COLUMNS = (1, 2, 4, 8, 16, 24, 32, 64, 128)


class TestVerdicts:
    @pytest.mark.parametrize("operand", sorted(SWEEP_VERDICTS), ids=str)
    def test_sweep_operands(self, operand):
        r, k, v, m = operand
        got = tuple(verdict(r, k, v, m, c) for c in (1, 64, 512))
        assert got == SWEEP_VERDICTS[operand]

    def test_encoder_projections_stay_dense_at_every_column_count(self):
        """What keeps every ``enc_*`` / ``dec_*`` call on the dense schedule,
        and so its bits unchanged."""
        for r, k in ENCODER_PROJECTIONS:
            for c in ENCODER_COLUMNS:
                assert verdict(r, k, 16, 8, c) == "dense", (r, k, c)

    def test_verdict_switches_with_c(self):
        """2048^2 at 32:2:8: the gather schedule reads half the operand and
        wins a decode-sized call; past the crossover one BLAS GEMM beats
        the 64 block GEMMs."""
        assert verdict(2048, 2048, 32, 8, 1) == "gather"
        assert verdict(2048, 2048, 32, 8, 2048) == "dense"
        below, crossover, above = auto_schedule(2048, 2048, 32, 1024)
        assert (below, above) == ("gather", "dense") and 1 < crossover < 2048

    def test_plan_resolves_the_functions_verdict(self, rng):
        for rows, cols, v, m in [(64, 1024, 32, 8), (128, 128, 64, 16), (64, 128, 16, 8)]:
            plan = SpmmPlan(make_vnm(rng, rows, cols, v, m))
            for c in (1, 7, 28, 29, 37, 38, 39, 63, 64, 512):
                assert plan.resolve_strategy(c) == verdict(rows, cols, v, m, c)

    @pytest.mark.parametrize("strategy", ["dense", "gather"])
    def test_forced_strategy_ignores_c(self, rng, strategy):
        plan = SpmmPlan(make_vnm(rng, 64, 1024, 32, 8), strategy=strategy)
        assert {plan.resolve_strategy(c) for c in (1, 37, 38, 4096)} == {strategy}


#: Small operands with a crossover, and a C on each side of it:
#: 64x1024 32:2:8 gathers below C = 38, 128x128 64:2:16 gathers from C = 29.
CROSSING = [
    ((64, 1024, 32, 8), {8: "gather", 64: "dense"}),
    ((128, 128, 64, 16), {8: "dense", 64: "gather"}),
]


class TestBitsAcrossTheCrossover:
    @pytest.mark.parametrize("operand,sides", CROSSING, ids=str)
    def test_slab_exact_on_both_sides(self, rng, operand, sides):
        rows, cols, v, m = operand
        plan = SpmmPlan(make_vnm(rng, rows, cols, v, m))
        for c, expected in sides.items():
            assert plan.resolve_strategy(c) == expected
            stack = rng.normal(size=(3, cols, c)).astype(np.float32)
            out = plan.execute(stack)
            for i in range(3):
                assert np.array_equal(out[i], plan.execute(stack[i])), (c, i)

    @pytest.mark.parametrize(
        "operand",
        [(64, 1024, 32, 8), (128, 128, 64, 16), (256, 256, 128, 16), (128, 512, 64, 32)],
        ids=str,
    )
    def test_auto_is_the_loop_reference_wherever_it_gathers(self, rng, operand):
        rows, cols, v, m = operand
        a = make_vnm(rng, rows, cols, v, m)
        plan = SpmmPlan(a)
        gathered = 0
        for c in (1, 8, 64, 200):
            if plan.resolve_strategy(c) != "gather":
                continue
            gathered += 1
            b = rng.normal(size=(cols, c)).astype(np.float32)
            assert np.array_equal(plan.execute(b), spmm_loop_reference(a, b)), c
        assert gathered

    def test_nonfinite_unselected_row_stays_isolated_under_gather(self, rng):
        """A B row no block selects may hold inf: the gather schedule never
        reads it, so the output is finite and the loop reference's."""
        a = make_vnm(rng, 256, 256, 128, 16)
        plan = SpmmPlan(a)
        assert plan.resolve_strategy(16) == "gather"
        unselected = np.setdiff1d(np.arange(256), a.selected_column_indices())
        b = rng.normal(size=(256, 16)).astype(np.float32)
        b[unselected[0]] = 1e6  # overflows fp16 -> inf
        out = plan.execute(b)
        assert np.isfinite(out).all()
        assert np.array_equal(out, spmm_loop_reference(a, b))

    @pytest.mark.parametrize("batched", [False, True])
    def test_chunking_does_not_change_bits(self, rng, monkeypatch, batched):
        """Chunks that split the 8 row blocks 3 + 3 + 2, or one per chunk,
        give the bits of one chunk over all of them."""
        a = make_vnm(rng, 256, 512, 32, 8)
        plan = SpmmPlan(a, strategy="gather")
        c, slabs = 12, 2
        b = rng.normal(size=(slabs, 512, c) if batched else (512, c)).astype(np.float32)
        block_bytes = (slabs if batched else 1) * plan.condensed_k * c * 4
        outs = []
        for chunk_bytes in (1 << 40, 3 * block_bytes, 1):
            monkeypatch.setattr(plan_module, "_GATHER_CHUNK_BYTES", chunk_bytes)
            outs.append(plan.execute(b))
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])


def test_plan_that_always_gathers_never_builds_dense16(rng):
    a = make_vnm(rng, 256, 256, 128, 16)
    assert auto_schedule(256, 256, 128, 64) == ("gather", 0, "gather")
    plan = SpmmPlan(a)
    for c in (1, 2, 64, 512):
        plan.execute(rng.normal(size=(256, c)).astype(np.float32))
    stack = rng.normal(size=(2, 256, 8)).astype(np.float32)
    stack[1, 0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        plan.execute(stack)
    assert plan._dense16 is None

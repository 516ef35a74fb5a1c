"""The array pricers are the scalar models, candidate for candidate.

``perf_model.estimate_times`` prices every row of a tuner's candidate table
in one NumPy pass, and ``cublas._tile_times`` prices cuBLAS's six heuristic
tiles the same way; the scalar ``estimate_time`` / ``_estimate_with_config``
are their references.  Every comparison here is exact (``==`` on the
floats), and the tuner's ranking must be the one the scalar sweep gave,
ties in candidate order.
"""

import re

import pytest

from repro.hardware.spec import rtx3090
from repro.kernels import cublas
from repro.kernels.common import GemmProblem
from repro.kernels.spatha import SpathaTuner, UnsupportedTilingError, candidate_configs, estimate_time
from repro.kernels.spatha.perf_model import candidate_table, estimate_times

NM = ((2, 4), (2, 8), (2, 16), (2, 32))
VS = (16, 32, 64, 128)
SHAPES = (
    (256, 256), (1024, 256), (256, 1024),  # the bench encoder's projections
    (1024, 1024), (4096, 1024), (1024, 4096),  # BERT-large
    (1024, 1022),  # K % M != 0 for every M above
)
#: Both sides of each C-class edge of the candidate list, and the extremes.
CS = (1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 4096)
GPU = rtx3090()
#: Two resident warps' worth of threads: the wider candidates fit no SM.
SMALL_GPU = GPU.with_overrides(max_threads_per_sm=256, max_warps_per_sm=8)


def grid():
    """Every pattern x V x C, on a shape that rotates so each meets every C."""
    for i, (n, m) in enumerate(NM):
        for j, v in enumerate(VS):
            for k, c in enumerate(CS):
                r, kk = SHAPES[(i + j + k) % len(SHAPES)]
                yield GemmProblem.from_nm(r=r, k=kk, c=c, n=n, m=m, v=v)


def scalar_sweep(problem, gpu):
    """The scalar tuner loop: each candidate the model accepts, with its time."""
    priced = []
    for config in candidate_configs(problem.v, problem.c):
        try:
            priced.append((config, estimate_time(problem, config=config, gpu=gpu).time_us))
        except ValueError:
            continue  # a block that fits no SM
    return priced


@pytest.mark.parametrize("gpu", [GPU, SMALL_GPU], ids=["rtx3090", "small"])
def test_every_candidate_time_and_ranking_match_the_scalar_model(gpu):
    tuner = SpathaTuner(gpu=gpu)
    dropped = ties = 0
    for problem in grid():
        priced = scalar_sweep(problem, gpu)
        table = candidate_table(candidate_configs(problem.v, problem.c), gpu)
        assert list(table.configs) == [config for config, _ in priced], problem
        assert estimate_times(problem, table, gpu).tolist() == [t for _, t in priced], problem
        assert tuner.tune(problem).results == sorted(priced, key=lambda pair: pair[1]), problem
        dropped += len(candidate_configs(problem.v, problem.c)) - len(priced)
        ties += len(priced) - len({t for _, t in priced})
    # The grid reaches both things the array pass must get right.
    assert dropped > 0 and ties > 0


def test_the_winner_is_priced_by_the_scalar_model():
    tuner = SpathaTuner(gpu=GPU)
    problem = GemmProblem.from_nm(r=1024, k=4096, c=512, n=2, m=8, v=64)
    record = tuner.tune(problem)
    best = tuner.best_result(problem)
    assert best.time_us == record.best_time_us
    assert best.details["config"] == record.best_config.describe()


def test_an_r_not_divisible_by_v_raises_as_before():
    problem = GemmProblem.from_nm(r=1000, k=1024, c=64, n=2, m=8, v=64)
    message = (
        "no launchable template instantiation for V=64 on R=1000 "
        "(R (1000) must be divisible by BSr=V (64); pad the operand first)"
    )
    with pytest.raises(UnsupportedTilingError, match=re.escape(message)):
        SpathaTuner(gpu=GPU).tune(problem)
    table = candidate_table(candidate_configs(64, 64), GPU)
    with pytest.raises(UnsupportedTilingError, match="must be divisible by BSr=V"):
        estimate_times(problem, table, GPU)


def test_a_gpu_that_launches_no_candidate_raises_as_before():
    tiny = GPU.with_overrides(registers_per_sm=1024)
    problem = GemmProblem.from_nm(r=1024, k=1024, c=64, n=2, m=8, v=64)
    assert candidate_table(candidate_configs(64, 64), tiny).configs == ()
    with pytest.raises(UnsupportedTilingError, match="kernel cannot run"):
        SpathaTuner(gpu=tiny).tune(problem)


def test_a_table_prices_its_own_v_only():
    table = candidate_table(candidate_configs(64, 64), GPU)
    with pytest.raises(ValueError, match="V=64"):
        estimate_times(GemmProblem.from_nm(r=1024, k=1024, c=64, n=2, m=8, v=32), table, GPU)


@pytest.mark.parametrize("gpu", [GPU, SMALL_GPU], ids=["rtx3090", "small"])
def test_cublas_tiles_match_the_scalar_model(gpu):
    for (r, k) in SHAPES:
        for c in CS:
            problem = GemmProblem(r=r, k=k, c=c)
            scalar = [
                cublas._estimate_with_config(problem, gpu, cublas.CublasConfig(tile_r=tr, tile_c=tc))
                for tr, tc in cublas._CUBLAS_TILE_CANDIDATES
            ]
            assert cublas._tile_times(problem, gpu).tolist() == [res.time_us for res in scalar]
            best = min(scalar, key=lambda res: res.time_us)
            chosen = cublas.estimate_time(problem, gpu=gpu)
            assert (chosen.time_us, chosen.details) == (best.time_us, best.details)

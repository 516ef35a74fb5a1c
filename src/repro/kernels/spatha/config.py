"""Kernel template configuration of Spatha (Section 4.1).

Spatha is a *template-based* library: the CUDA kernel is instantiated for a
particular combination of thread-block tile, warp tile, ``mma`` instruction
shape and software-pipelining depth, and the best instantiation depends on
the GEMM size and the V:N:M configuration.  :class:`KernelConfig` captures
exactly the parameters the paper lists:

* ``BSr x BSk x BSc`` — thread-block tile.  ``BSr`` always equals the
  vector size ``V`` (each thread block owns one block row of the V:N:M
  structure so the column-loc entries it loads apply to all of its rows).
* ``WSr x WSk x WSc`` — warp tile.
* ``MMA_r x MMA_k x MMA_c`` — instruction shape (``m16n8k32`` for fp16).
* ``batchSize`` — number of in-flight asynchronous copy stages.

The k-extent parameters (``BSk`` / ``WSk`` / ``MMA_k``) are expressed in
*condensed* columns — the selected-column space of the V:N:M format, where
each original group of M columns contributes four — because that is the
space the SPTC instructions actually traverse.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from ...hardware.isa import MmaShape, default_sparse_shape
from ...hardware.occupancy import BlockResources
from ...formats.vnm import SELECTED_COLUMNS


class UnsupportedTilingError(ValueError):
    """The problem has no launchable template instantiation.

    Raised when the template space cannot tile the operand — a V with no
    valid warp-tile divisor, or an R not divisible by ``BSr = V``.  This is
    the one *expected* tuner failure: the dispatcher handles it by costing
    the padded launch the real library would run instead.  A subclass of
    :class:`ValueError` so existing callers that treat it as an
    invalid-problem error keep working; the dispatcher catches exactly this
    type so genuine model bugs are never swallowed.
    """


@dataclass(frozen=True)
class KernelConfig:
    """One instantiation of the Spatha SpMM template."""

    #: Thread-block tile rows; must equal the V:N:M vector size V.
    bs_r: int = 128
    #: Thread-block tile k-extent in condensed (selected-column) space.
    bs_k: int = 32
    #: Thread-block tile output columns.
    bs_c: int = 64
    #: Warp tile rows.
    ws_r: int = 32
    #: Warp tile k-extent in condensed space.
    ws_k: int = 32
    #: Warp tile output columns.
    ws_c: int = 32
    #: Tensor-core instruction shape.
    mma: MmaShape = default_sparse_shape("fp16")
    #: Software pipelining depth of the GMEM->SMEM copies (cp.async stages).
    batch_size: int = 2
    #: Whether stage-3 stores to shared memory use 128-bit transactions
    #: with the conflict-free padded layout (Figure 8) or plain 32-bit ones.
    wide_output_stores: bool = True
    #: Whether the column-loc indirection is used (the ablation of Figure 9
    #: disables it to measure its overhead by using fixed indices instead).
    use_column_loc: bool = True

    def __post_init__(self) -> None:
        if min(self.bs_r, self.bs_k, self.bs_c, self.ws_r, self.ws_k, self.ws_c) <= 0:
            raise ValueError("all tile dimensions must be positive")
        if self.bs_r % self.ws_r or self.bs_c % self.ws_c:
            raise ValueError("warp tile must divide the thread-block tile (rows and cols)")
        if self.ws_r % self.mma.m or self.ws_c % self.mma.n:
            raise ValueError("mma shape must divide the warp tile (rows and cols)")
        if self.ws_k % self.mma.k:
            raise ValueError("mma k must divide the warp-tile k extent")
        if self.bs_k % self.ws_k:
            raise ValueError("warp-tile k extent must divide the block-tile k extent")
        if self.bs_k % SELECTED_COLUMNS:
            raise ValueError("bs_k must be a multiple of 4 condensed columns (one M-group)")
        if self.batch_size < 1:
            raise ValueError("batch_size (pipeline depth) must be >= 1")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def warps_per_block(self) -> int:
        """Number of warps per thread block."""
        return (self.bs_r // self.ws_r) * (self.bs_c // self.ws_c)

    @property
    def threads_per_block(self) -> int:
        """Threads per thread block."""
        return self.warps_per_block * 32

    @property
    def values_per_condensed_column_pair(self) -> int:
        """Stored values per row per 4 condensed columns (the 2 of 2:4)."""
        return 2

    def smem_bytes(self) -> int:
        """Shared memory footprint of one thread block.

        Double-buffered (``batch_size`` deep) A-value and B tiles plus the
        fp32 output staging buffer of stage 3 (with its padding) and the
        column-loc prefetch buffer.
        """
        a_tile = self.bs_r * (self.bs_k // 2) * 2  # half the condensed cols stored, fp16
        b_tile = self.bs_k * self.bs_c * 2
        staging = self.bs_r * self.bs_c * 4
        staging += staging // 32  # padding elements of the conflict-free layout
        column_loc = self.bs_k * 4  # int32 per condensed column of the current tile
        return self.batch_size * (a_tile + b_tile) + staging + column_loc

    def registers_per_thread(self) -> int:
        """Estimated register usage per thread (accumulators + fragments)."""
        acc = (self.ws_r * self.ws_c) // 32  # fp32 accumulators per thread
        frag = (self.mma.lhs_elements + self.mma.rhs_elements) // 32 + 8
        return min(255, acc + frag + 40)

    def block_resources(self) -> BlockResources:
        """Resource record used by the occupancy model."""
        return BlockResources(
            threads=self.threads_per_block,
            registers_per_thread=self.registers_per_thread(),
            smem_bytes=self.smem_bytes(),
        )

    def with_options(self, **kwargs) -> "KernelConfig":
        """Copy of this config with selected fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """Human-readable one-line description (used in benchmark tables)."""
        return (
            f"BS={self.bs_r}x{self.bs_k}x{self.bs_c} WS={self.ws_r}x{self.ws_k}x{self.ws_c} "
            f"{self.mma.name} pipe={self.batch_size} "
            f"{'128b' if self.wide_output_stores else '32b'}-stores "
            f"{'cloc' if self.use_column_loc else 'fixed-idx'}"
        )


def default_config(v: int = 128, bs_c: int = 64) -> KernelConfig:
    """The template instantiation used when no tuning is requested."""
    ws_r = 32 if v >= 32 else max(16, v)
    return KernelConfig(bs_r=v, bs_c=bs_c, ws_r=ws_r)


#: Thread-block output widths (``BSc``) the auto-tuner searches.
TUNED_BS_C = (32, 64, 128)


def widest_bs_c(c: int) -> int:
    """The widest ``BSc`` the tuner tries at output width ``c``.

    :func:`candidate_configs` depends on ``c`` through this value alone, so
    it names the C-class of a candidate list.
    """
    return max(bs_c for bs_c in TUNED_BS_C if bs_c <= max(32, c))


def candidate_configs(v: int, c: int) -> List[KernelConfig]:
    """Search space the auto-tuner explores for a given V and output width C.

    The space mirrors the template parameters the paper tunes: output-tile
    width, warp tile, pipelining depth.  ``BSr`` is pinned to ``V``.
    """
    configs: List[KernelConfig] = []
    ws_r = 32 if v >= 32 else max(16, v)
    widest = widest_bs_c(c)
    for bs_c in TUNED_BS_C:
        if bs_c > widest:
            continue
        for ws_c in (16, 32, 64):
            if ws_c > bs_c or bs_c % ws_c:
                continue
            if ws_c % 8:
                continue
            for batch in (2, 3, 4):
                for bs_k in (32, 64):
                    try:
                        config = KernelConfig(
                            bs_r=v,
                            bs_k=bs_k,
                            bs_c=bs_c,
                            ws_r=ws_r,
                            ws_k=32,
                            ws_c=ws_c,
                            batch_size=batch,
                        )
                    except ValueError:
                        continue
                    # Instantiations that do not fit the per-block shared
                    # memory limit cannot be launched; skip them here so the
                    # tuner only ranks viable kernels.
                    if config.smem_bytes() > 100 * 1024:
                        continue
                    configs.append(config)
    if not configs:
        try:
            configs.append(default_config(v))
        except ValueError as exc:
            raise UnsupportedTilingError(
                f"no launchable template instantiation for V={v}"
            ) from exc
    return configs

"""Tensor-core instruction set description (Table 1 of the paper).

Sparse Tensor Cores are programmed through the PTX ``mma.sp`` instruction.
Each precision supports a small set of instruction *shapes* ``m x n x k``
where ``m`` and ``n`` are fixed (16 and 8) and ``k`` is the sparsified
dimension.  The paper's Table 1 enumerates the supported shapes; this module
encodes that table and the native N:M pattern of each precision, and picks
the instruction shape a Spatha kernel configuration
(:mod:`repro.kernels.spatha.config`) decomposes its warp tiles into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class MmaShape:
    """Shape of one ``mma`` / ``mma.sp`` tensor-core instruction.

    Attributes
    ----------
    m, n, k:
        Logical GEMM dimensions covered by a single instruction.  For
        ``mma.sp`` the LHS operand is stored 50% compressed, i.e. the real
        LHS fragment holds ``m x k/2`` elements plus metadata.
    precision:
        Input element type: ``"fp16"``, ``"fp32"`` (tf32 path), ``"uint8"``
        or ``"uint4"``.
    sparse:
        ``True`` for ``mma.sp`` (Sparse Tensor Core), ``False`` for dense
        ``mma``.
    """

    m: int
    n: int
    k: int
    precision: str = "fp16"
    sparse: bool = False

    @property
    def name(self) -> str:
        """NVIDIA-style mnemonic, e.g. ``m16n8k32``."""
        return f"m{self.m}n{self.n}k{self.k}"

    @property
    def flops(self) -> int:
        """Multiply-add FLOPs performed by one instruction (2*m*n*k)."""
        return 2 * self.m * self.n * self.k

    @property
    def lhs_elements(self) -> int:
        """Number of LHS elements physically held in registers.

        For sparse instructions the LHS is stored at 50% density so the
        fragment carries ``m * k / 2`` values (plus 2-bit metadata per
        value, accounted separately).
        """
        if self.sparse:
            return self.m * self.k // 2
        return self.m * self.k

    @property
    def rhs_elements(self) -> int:
        """Number of RHS elements consumed by one instruction (k*n)."""
        return self.k * self.n

    @property
    def acc_elements(self) -> int:
        """Number of accumulator elements produced (m*n)."""
        return self.m * self.n

    @property
    def metadata_bits(self) -> int:
        """Bits of sparsity metadata consumed by one sparse instruction.

        Two bits per kept LHS element; zero for dense instructions.
        """
        if not self.sparse:
            return 0
        return 2 * self.lhs_elements


# ----------------------------------------------------------------------
# Table 1: Matrix shapes for mma.sp on SPTCs (m and n fixed to 16 and 8)
# ----------------------------------------------------------------------
SPARSE_MMA_SHAPES: Dict[str, List[MmaShape]] = {
    "fp32": [
        MmaShape(16, 8, 8, "fp32", sparse=True),
        MmaShape(16, 8, 16, "fp32", sparse=True),
    ],
    "fp16": [
        MmaShape(16, 8, 16, "fp16", sparse=True),
        MmaShape(16, 8, 32, "fp16", sparse=True),
    ],
    "uint8": [
        MmaShape(16, 8, 32, "uint8", sparse=True),
        MmaShape(16, 8, 64, "uint8", sparse=True),
    ],
    "uint4": [
        MmaShape(16, 8, 64, "uint4", sparse=True),
        MmaShape(16, 8, 128, "uint4", sparse=True),
    ],
}

#: N:M pattern natively supported by the hardware for each precision
#: (Table 1, "Format" column).
NATIVE_NM_PATTERN: Dict[str, Tuple[int, int]] = {
    "fp32": (1, 2),
    "fp16": (2, 4),
    "uint8": (2, 4),
    "uint4": (2, 4),
}

def sparse_mma_shapes(precision: str = "fp16") -> List[MmaShape]:
    """Return the list of supported ``mma.sp`` shapes for a precision.

    Raises
    ------
    KeyError
        If the precision has no Sparse Tensor Core support.
    """
    key = precision.lower()
    if key not in SPARSE_MMA_SHAPES:
        raise KeyError(
            f"no mma.sp support for precision {precision!r}; "
            f"supported: {sorted(SPARSE_MMA_SHAPES)}"
        )
    return list(SPARSE_MMA_SHAPES[key])


def default_sparse_shape(precision: str = "fp16") -> MmaShape:
    """The shape used by Spatha's kernels by default (largest k).

    The paper's kernels use ``m16n8k32`` for half precision.
    """
    shapes = sparse_mma_shapes(precision)
    return max(shapes, key=lambda s: s.k)

"""Common infrastructure shared by every sparse storage format.

All formats in this subpackage implement the same small interface
(:class:`SparseFormat`): construction from a dense matrix (assumed to
already carry the zeros of whichever pruning pattern produced it),
reconstruction back to dense, the number of explicitly stored non-zero
values and the compressed footprint in bytes.  The SpMM kernels consume the
format-specific attributes directly; the shared interface exists so tests,
benchmarks and the energy/footprint studies can treat every format
uniformly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Tuple

import numpy as np


def as_float_matrix(dense: np.ndarray, name: str = "dense") -> np.ndarray:
    """Validate and canonicalise a dense input matrix.

    Accepts any 2-D array-like with a real floating or integer dtype and
    returns a C-contiguous ``float32`` copy (float32 is used as the
    in-simulator stand-in for the paper's fp16 storage; numerical tests
    account for the representation separately via
    :func:`repro.formats.base.quantize_fp16`).
    """
    arr = np.asarray(dense)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.issubdtype(arr.dtype, np.number):
        raise TypeError(f"{name} must be numeric, got dtype {arr.dtype}")
    if np.iscomplexobj(arr):
        raise TypeError(f"{name} must be real-valued")
    return np.ascontiguousarray(arr, dtype=np.float32)


#: Magnitudes from here up round to infinity in fp16 (65504 plus half an ulp).
_FP16_OVERFLOW = 65520.0
#: Below this many elements NumPy's own cast beats the bit kernel (the two
#: break even near 150 elements on one x86 core; both give the same bits).
_KERNEL_MIN_SIZE = 256
#: float32 exponent fields: the whole field, 2**15 (every smaller exponent
#: is finite in fp16) and 2**-14 (the finest fp16 spacing, 2**-24, starts
#: there); added to a field, the offset turns 2**e into 1.5 * 2**(e + 13).
_EXPONENT_BITS = np.uint32(0x7F800000)
_FP16_TOP_EXPONENT = np.uint32(142 << 23)
_FP16_MIN_EXPONENT = np.uint32(113 << 23)
_MAGIC_OFFSET = np.uint32((13 << 23) | 0x400000)


def fp16_finite(x: np.ndarray) -> bool:
    """True when every value of ``x`` stays finite rounded to fp16 (NaN
    propagates through both reductions; ``|x| >= 65520`` rounds to inf)."""
    x = np.asarray(x)
    if x.size == 0:
        return True
    return bool(
        np.maximum.reduce(x, axis=None) < _FP16_OVERFLOW
        and np.minimum.reduce(x, axis=None) > -_FP16_OVERFLOW
    )


def quantize_fp16_checked(x: np.ndarray) -> Tuple[np.ndarray, bool]:
    """:func:`quantize_fp16` plus :func:`fp16_finite` of the input.

    A float32 input in range skips NumPy's cast for a magic-number add:
    with ``c = 1.5 * 2**(max(e, -14) + 13)`` for the element's exponent
    ``e``, the float32 ulp of ``x + c`` is the element's fp16 ulp, so that
    add rounds to nearest-even at fp16 granularity and ``- c`` is exact;
    ``copysign`` keeps the sign of values that round to zero.  Bit for bit
    the cast on every finite float32 below 65520 (a test sweeps all 2**32
    patterns), at about half its cost past a few thousand elements.  One
    integer reduction over the exponents clears the range check in the
    common case (every ``|x| < 2**15``).  Other dtypes, non-finite or
    overflowing values and small inputs take the cast.  Either way the
    result keeps the input's memory layout.
    """
    x = np.asarray(x)
    if x.dtype == np.float32 and x.size >= _KERNEL_MIN_SIZE:
        c = np.bitwise_and(x.view(np.uint32), _EXPONENT_BITS)
        if np.maximum.reduce(c, axis=None) < _FP16_TOP_EXPONENT or fp16_finite(x):
            np.maximum(c, _FP16_MIN_EXPONENT, out=c)
            c += _MAGIC_OFFSET
            c = c.view(np.float32)
            y = x + c
            y -= c
            return np.copysign(y, x, out=y), True
    with np.errstate(over="ignore"):
        return x.astype(np.float16).astype(np.float32), fp16_finite(x)


def quantize_fp16(matrix: np.ndarray) -> np.ndarray:
    """Round an array through IEEE half precision and back to float32.

    The paper's kernels operate on fp16 operands with fp32 accumulation.
    The simulator stores values as float32 for convenience; this helper
    reproduces the storage rounding so numerical comparisons against the
    dense reference use the same precision the real library would; every
    kernel rounds its operands through here.
    """
    return quantize_fp16_checked(matrix)[0]


def sparsity_of(matrix: np.ndarray, tol: float = 0.0) -> float:
    """Fraction of entries whose magnitude is <= ``tol`` (0 = dense)."""
    arr = np.asarray(matrix)
    if arr.size == 0:
        raise ValueError("cannot compute sparsity of an empty matrix")
    return float(np.count_nonzero(np.abs(arr) <= tol)) / arr.size


def density_of(matrix: np.ndarray, tol: float = 0.0) -> float:
    """Fraction of entries whose magnitude is > ``tol``."""
    return 1.0 - sparsity_of(matrix, tol)


@dataclass(frozen=True)
class FormatFootprint:
    """Compressed storage footprint of a sparse matrix, per structure."""

    values_bytes: float
    metadata_bytes: float
    index_bytes: float

    @property
    def total_bytes(self) -> float:
        """Total compressed bytes (values + metadata + indices)."""
        return self.values_bytes + self.metadata_bytes + self.index_bytes

    def compression_ratio(self, dense_bytes: float) -> float:
        """Dense bytes divided by compressed bytes (higher is better)."""
        if self.total_bytes <= 0:
            raise ValueError("compressed footprint must be positive")
        return dense_bytes / self.total_bytes


class SparseFormat(abc.ABC):
    """Abstract interface implemented by every compressed format."""

    #: Short identifier used in benchmark tables ("nm", "vnm", "csr", ...).
    format_name: str = "abstract"

    @property
    @abc.abstractmethod
    def shape(self) -> Tuple[int, int]:
        """Logical (rows, cols) shape of the represented matrix."""

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of explicitly stored values."""

    @abc.abstractmethod
    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense float32 matrix (zeros included)."""

    @abc.abstractmethod
    def footprint(self, precision: str = "fp16") -> FormatFootprint:
        """Compressed storage footprint for the given value precision."""

    # ------------------------------------------------------------------
    # Conveniences shared by all formats
    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Number of logical rows."""
        return self.shape[0]

    @property
    def cols(self) -> int:
        """Number of logical columns."""
        return self.shape[1]

    @property
    def density(self) -> float:
        """Stored non-zeros divided by logical size."""
        r, c = self.shape
        return self.nnz / float(r * c)

    @property
    def sparsity(self) -> float:
        """1 - density."""
        return 1.0 - self.density

    def dense_bytes(self, precision: str = "fp16") -> float:
        """Bytes of the dense representation at ``precision``."""
        from ..hardware.memory import dtype_bytes

        r, c = self.shape
        return r * c * dtype_bytes(precision)

    def compression_ratio(self, precision: str = "fp16") -> float:
        """Dense footprint divided by compressed footprint."""
        return self.footprint(precision).compression_ratio(self.dense_bytes(precision))

    def allclose_to(self, dense: np.ndarray, atol: float = 1e-6) -> bool:
        """True when decompression matches ``dense`` to ``atol``."""
        return bool(np.allclose(self.to_dense(), np.asarray(dense, dtype=np.float32), atol=atol))

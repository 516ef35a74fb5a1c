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
from typing import Optional, Tuple

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
#: Below this many elements NumPy's own cast, with its finite check, beats
#: the kernel.  On one x86 core (Xeon, 4 MiB L2) the two tie at 256
#: normal-distributed elements (about 10 us, all per-call overhead); on
#: inputs with values that underflow fp16, such as GELU outputs, the cast
#: is slower and the kernel already wins there.  Both give the same bits.
_KERNEL_MIN_SIZE = 256
#: Elements per kernel pass.  A larger contiguous input is rounded in chunks
#: of this size, so every pass after a chunk's first read hits L2.
_CHUNK = 1 << 15
#: The float32 exponent field: ANDed onto a value it leaves 2**e for a
#: normal value, 0 for zero and float32 subnormals, inf for inf and NaN.
_EXPONENT_BITS = np.uint32(0x7F800000)
#: 2**15: every smaller power of two stays finite in fp16.
_FP16_TOP = np.float32(2.0**15)
#: 2**-14: the finest fp16 spacing, 2**-24, starts here.
_FP16_MIN_NORMAL = np.float32(2.0**-14)
#: 2**-25: only magnitudes up to here round to zero.
_FP16_ZERO_TIE = np.float32(2.0**-25)
#: 1.5 * 2**13: times 2**e it is the magic number whose float32 ulp is the
#: fp16 ulp of a value of exponent e.
_MAGIC_SCALE = np.float32(1.5 * 2.0**13)


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


def _cast_fp16(x: np.ndarray) -> Tuple[np.ndarray, bool]:
    """NumPy's own round trip, and :func:`fp16_finite` of ``x`` (which
    tells whether the cast may overflow, so the error state is only
    switched when it must be)."""
    if fp16_finite(x):
        return x.astype(np.float16).astype(np.float32), True
    with np.errstate(over="ignore"):
        return x.astype(np.float16).astype(np.float32), False


def _round_into(
    x: np.ndarray, out: Optional[np.ndarray] = None, scratch: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, bool]:
    """Round float32 ``x`` (into ``out`` when given, else a new array laid
    out like ``x``); return the result and the finite flag."""
    c = np.bitwise_and(x.view(np.uint32), _EXPONENT_BITS, out=scratch).view(np.float32)
    if np.maximum.reduce(c, axis=None) >= _FP16_TOP and not fp16_finite(x):
        if out is None:
            return _cast_fp16(x)
        out[...] = _cast_fp16(x)[0]
        return out, False
    low = np.minimum.reduce(c, axis=None)
    if low < _FP16_MIN_NORMAL:
        np.maximum(c, _FP16_MIN_NORMAL, out=c)
    c *= _MAGIC_SCALE
    out = np.add(x, c, out=out)
    out -= c
    if low <= _FP16_ZERO_TIE:
        np.copysign(out, x, out=out)
    return out, True


def quantize_fp16_checked(x: np.ndarray) -> Tuple[np.ndarray, bool]:
    """:func:`quantize_fp16` plus :func:`fp16_finite` of the input.

    A float32 input skips NumPy's cast for a magic-number add: with
    ``c = 1.5 * 2**(max(e, -14) + 13)`` for the element's exponent ``e``,
    the float32 ulp of ``x + c`` is the element's fp16 ulp, so that add
    rounds to nearest-even at fp16 granularity and ``- c`` is exact.  Bit
    for bit the cast on every finite float32 below 65520 (a test sweeps all
    2**32 patterns).

    The passes, per chunk of :data:`_CHUNK` elements (a C- or F-contiguous
    input; any other layout is one chunk):

    1. ``c = x & exponent field`` — 2**e as a float32;
    2. max-reduce ``c``: below 2**15 every value is in range; otherwise
       :func:`fp16_finite` decides, and a chunk holding a NaN, an inf or a
       magnitude from 65520 up takes the cast and clears the flag;
    3. min-reduce ``c``;
    4. only if that minimum is below 2**-14: clamp ``c`` up to 2**-14;
    5. ``c *= 1.5 * 2**13``;
    6. ``out = x + c``; 7. ``out -= c``;
    8. only if the minimum is at most 2**-25 (only such values round to
       zero): ``copysign(out, x)`` restores the sign of -0.

    Step 3 buys skipping steps 4 and 8 on most inputs; one holding zeros
    or tiny values (GELU outputs) runs all eight.  Other dtypes and inputs under :data:`_KERNEL_MIN_SIZE` elements take
    the cast.  Either way the result keeps the input's memory layout.
    """
    x = np.asarray(x)
    if x.dtype != np.float32 or x.size < _KERNEL_MIN_SIZE:
        return _cast_fp16(x)
    if x.size <= _CHUNK or not (x.flags.c_contiguous or x.flags.f_contiguous):
        return _round_into(x)
    return _round_chunks(x, np.empty_like(x))


def _round_chunks(x: np.ndarray, out: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Round a contiguous float32 ``x`` into ``out`` (same shape and layout)
    :data:`_CHUNK` elements at a time; return ``out`` and the finite flag."""
    order = "C" if x.flags.c_contiguous else "F"
    flat_x, flat_out = x.reshape(-1, order=order), out.reshape(-1, order=order)
    scratch = np.empty(min(_CHUNK, x.size), dtype=np.uint32)
    finite = True
    for lo in range(0, x.size, _CHUNK):
        hi = min(lo + _CHUNK, x.size)
        finite &= _round_into(flat_x[lo:hi], flat_out[lo:hi], scratch[: hi - lo])[1]
    return out, finite


#: Byte alignment of the kernels' long-lived fp16 operand copies: one cache
#: line.  NumPy aligns only to 16 bytes, and OpenBLAS's C=1 GEMV reads an
#: operand starting 16, 32 or 48 bytes past a line measurably slower (1024 x
#: 256 on one AMD EPYC core: 9.8 us aligned, 11.6-12.8 us off).
ALIGNMENT = 64


def empty_aligned(shape, dtype=np.float32, order: str = "C") -> np.ndarray:
    """An uninitialised contiguous array whose data starts on an
    :data:`ALIGNMENT`-byte boundary."""
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = np.empty(nbytes + ALIGNMENT, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGNMENT
    return raw[start : start + nbytes].view(dtype).reshape(shape, order=order)


def quantize_fp16_aligned(x: np.ndarray) -> np.ndarray:
    """:func:`quantize_fp16` of a float32 array into a new
    :data:`ALIGNMENT`-aligned array of the same shape (Fortran order when
    ``x`` is Fortran-contiguous, else C): the rounding writes straight
    into the aligned buffer, so no second full-size copy is made."""
    x = np.asarray(x, dtype=np.float32)
    order = "F" if x.flags.f_contiguous and not x.flags.c_contiguous else "C"
    out = empty_aligned(x.shape, order=order)
    if x.size < _KERNEL_MIN_SIZE:
        out[...] = _cast_fp16(x)[0]
        return out
    return _round_chunks(np.asarray(x, order=order), out)[0]


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

"""Packing and unpacking of 2-bit sparsity metadata.

Both the native 2:4 format (Figure 1) and the V:N:M format (Figure 3) carry
one 2-bit index per stored non-zero: the position of the value inside its
group of four candidate columns.  The real hardware consumes this metadata
as packed 16-/32-bit words laid out so that one warp can fetch the metadata
of a whole ``mma.sp`` instruction with a single 32-bit load per thread pair
(the "16 bits" column of the paper's Figure 7).

This module implements bit-exact packing/unpacking of those indices into
``uint32`` words plus helpers to validate index ranges.  The packed form is
what the footprint accounting and the storage-order tests exercise; the
functional SpMM kernels use the unpacked index arrays for clarity.
"""

from __future__ import annotations

import numpy as np

#: Number of metadata bits per stored non-zero value.
BITS_PER_INDEX = 2
#: Number of 2-bit indices that fit in one 32-bit metadata word.
INDICES_PER_WORD = 32 // BITS_PER_INDEX


def validate_indices(indices: np.ndarray, group_size: int = 4) -> np.ndarray:
    """Validate that metadata indices are integers in ``[0, group_size)``.

    Returns the indices as a contiguous ``uint8`` array.
    """
    arr = np.asarray(indices)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        if not np.allclose(arr, np.round(arr)):
            raise TypeError("metadata indices must be integers")
        arr = np.round(arr).astype(np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= group_size):
        raise ValueError(f"metadata indices must lie in [0, {group_size}), got range [{arr.min()}, {arr.max()}]")
    return np.ascontiguousarray(arr, dtype=np.uint8)


def pack_indices(indices: np.ndarray) -> np.ndarray:
    """Pack a flat array of 2-bit indices into ``uint32`` words.

    The first index occupies the least-significant bits of the first word,
    matching the little-endian packing the ``mma.sp`` metadata operand
    expects.  The output is padded with zero indices to a multiple of 16
    indices per word.
    """
    flat = validate_indices(np.asarray(indices).ravel())
    n = flat.size
    n_words = (n + INDICES_PER_WORD - 1) // INDICES_PER_WORD if n else 0
    padded = np.zeros(n_words * INDICES_PER_WORD, dtype=np.uint32)
    padded[:n] = flat.astype(np.uint32)
    padded = padded.reshape(n_words, INDICES_PER_WORD) if n_words else padded.reshape(0, INDICES_PER_WORD)
    shifts = (np.arange(INDICES_PER_WORD, dtype=np.uint32) * BITS_PER_INDEX).astype(np.uint32)
    words = np.bitwise_or.reduce(padded << shifts, axis=1).astype(np.uint32)
    return words


def unpack_indices(words: np.ndarray, count: int) -> np.ndarray:
    """Unpack ``count`` 2-bit indices from packed ``uint32`` words."""
    if count < 0:
        raise ValueError("count must be non-negative")
    words = np.ascontiguousarray(words, dtype=np.uint32)
    capacity = words.size * INDICES_PER_WORD
    if count > capacity:
        raise ValueError(f"requested {count} indices but words only hold {capacity}")
    if count == 0:
        return np.zeros(0, dtype=np.uint8)
    shifts = (np.arange(INDICES_PER_WORD, dtype=np.uint32) * BITS_PER_INDEX).astype(np.uint32)
    expanded = (words[:, None] >> shifts[None, :]) & np.uint32(0b11)
    return expanded.reshape(-1)[:count].astype(np.uint8)


def metadata_bytes(nnz: int) -> float:
    """Bytes of packed metadata for ``nnz`` stored values (2 bits each)."""
    if nnz < 0:
        raise ValueError("nnz must be non-negative")
    return nnz * BITS_PER_INDEX / 8.0

"""2-bit sparsity metadata: index validation and its byte count.

Both the native 2:4 format (Figure 1) and the V:N:M format (Figure 3) carry
one 2-bit index per stored non-zero: the position of the value inside its
group of four candidate columns.  The real hardware consumes this metadata
as packed 16-/32-bit words laid out so that one warp can fetch the metadata
of a whole ``mma.sp`` instruction with a single 32-bit load per thread pair
(the "16 bits" column of the paper's Figure 7).

The host formats keep the indices unpacked, one per ``uint8``, which is
what the functional SpMM kernels read.  Footprints price the packed form
by formula (:func:`metadata_bytes`, :data:`BITS_PER_INDEX` bits a value);
no host path builds the packed words.
"""

from __future__ import annotations

import numpy as np

#: Number of metadata bits per stored non-zero value.
BITS_PER_INDEX = 2


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


def metadata_bytes(nnz: int) -> float:
    """Bytes of packed metadata for ``nnz`` stored values (2 bits each)."""
    if nnz < 0:
        raise ValueError("nnz must be non-negative")
    return nnz * BITS_PER_INDEX / 8.0

"""Sparse storage formats.

This subpackage implements every compressed format the paper touches:

* :class:`~repro.formats.nm.NMSparseMatrix` — NVIDIA's native row-wise N:M
  (2:4) layout (paper Figure 1).
* :class:`~repro.formats.vnm.VNMSparseMatrix` — the paper's V:N:M format
  (Figure 3): values, 2-bit m-indices and the column-loc structure.
* :class:`~repro.formats.csr.CSRMatrix` — CSR, the substrate of the Sputnik
  baseline.
* :class:`~repro.formats.cvse.CVSEMatrix` — column-vector sparse encoding,
  the substrate of vectorSparse / CLASP.
* :class:`~repro.formats.blocked_ell.BlockedEllMatrix` — Blocked-ELL, the
  cuSPARSE-style block format used by block-wise pruning comparisons.
"""

from .base import (
    FormatFootprint,
    SparseFormat,
    as_float_matrix,
    density_of,
    quantize_fp16,
    sparsity_of,
)
from .blocked_ell import BlockedEllMatrix
from .csr import CSRMatrix
from .cvse import CVSEMatrix
from .metadata import BITS_PER_INDEX, metadata_bytes, validate_indices
from .nm import NMSparseMatrix, check_nm_pattern, nm_violations
from .vnm import SELECTED_COLUMNS, VNMSparseMatrix, check_vnm_pattern, validate_vnm_shape

__all__ = [
    "FormatFootprint",
    "SparseFormat",
    "as_float_matrix",
    "density_of",
    "quantize_fp16",
    "sparsity_of",
    "BlockedEllMatrix",
    "CSRMatrix",
    "CVSEMatrix",
    "BITS_PER_INDEX",
    "metadata_bytes",
    "validate_indices",
    "NMSparseMatrix",
    "check_nm_pattern",
    "nm_violations",
    "SELECTED_COLUMNS",
    "VNMSparseMatrix",
    "check_vnm_pattern",
    "validate_vnm_shape",
]

"""``VNMTensor`` — what :class:`~repro.integration.sparsifier.VNMSparsifier` returns.

The paper's Listing 1 introduces a ``VNMTensor`` class "that serves as a
container for tensors in the V:N:M format".  Here it pairs the compressed
:class:`~repro.formats.vnm.VNMSparseMatrix` with the weight's logical shape,
which :func:`~repro.integration.linear.sparsify_encoder` reads to build a
:class:`~repro.models.layers.Linear` that crops the sparsifier's
divisibility padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..formats.vnm import VNMSparseMatrix


@dataclass
class VNMTensor:
    """A weight tensor stored in the V:N:M format.

    Attributes
    ----------
    matrix:
        The underlying compressed matrix.
    original_shape:
        Logical (out_features, in_features) shape before any padding the
        sparsifier applied to satisfy the V/M divisibility constraints.
    """

    matrix: VNMSparseMatrix
    original_shape: Tuple[int, int]

    def __post_init__(self) -> None:
        if not isinstance(self.matrix, VNMSparseMatrix):
            raise TypeError("matrix must be a VNMSparseMatrix")
        r, c = self.original_shape
        pr, pc = self.matrix.shape
        if r > pr or c > pc:
            raise ValueError("original shape cannot exceed the compressed (padded) shape")

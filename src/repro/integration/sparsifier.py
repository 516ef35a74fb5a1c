"""``VNMSparsifier`` — prune a dense tensor into the V:N:M format.

Mirrors the class of the same name in the paper's Listing 1: it carries the
``n``, ``m`` and ``v`` hyper-parameters, prunes an incoming dense weight to
the V:N:M pattern (magnitude pruning by default, the second-order pruner on
request) and produces a :class:`~repro.integration.vnm_tensor.VNMTensor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .vnm_tensor import VNMTensor
from ..formats.vnm import VNMSparseMatrix, vnm_select
from ..pruning.second_order.obs_vnm import SecondOrderConfig, second_order_vnm_prune
from ..pruning.vnm import pad_to_vnm_shape


@dataclass
class VNMSparsifier:
    """Sparsifier producing V:N:M tensors.

    The magnitude path stores the selection its pruner made: one
    :func:`~repro.formats.vnm.vnm_select` of the padded weight (the
    survivors of :func:`~repro.pruning.vnm.vnm_mask`) goes straight to
    :meth:`~repro.formats.vnm.VNMSparseMatrix.from_selection`, and the
    pruned copy is never ranked again.  The second-order pruner's weights
    go through the strict :meth:`~repro.formats.vnm.VNMSparseMatrix.from_dense`.

    Parameters
    ----------
    n, m, v:
        The target V:N:M configuration.
    method:
        ``"magnitude"`` (default) or ``"second_order"``.
    second_order_config:
        Optional configuration for the second-order pruner.
    """

    n: int = 2
    m: int = 8
    v: int = 64
    method: str = "magnitude"
    second_order_config: Optional[SecondOrderConfig] = None

    def __post_init__(self) -> None:
        if self.n <= 0 or self.m <= 0 or self.v <= 0:
            raise ValueError("n, m and v must be positive")
        if self.n > min(4, self.m):
            raise ValueError("n must be <= 4 (and <= m) to map onto 2:4 SPTCs")
        if self.method not in {"magnitude", "second_order"}:
            raise ValueError(f"unknown pruning method {self.method!r}")

    def sparsify(self, tensor: np.ndarray, grads: Optional[np.ndarray] = None) -> VNMTensor:
        """Prune ``tensor`` to V:N:M and compress it.

        Tensors whose shape is not divisible by (V, M) are zero-padded (the
        padding stays pruned, so it never contributes to the SpMM result)
        and the original shape is recorded on the returned
        :class:`VNMTensor`.  A float32 tensor is pruned in float32 and any
        other dtype in float64 (see :mod:`repro.pruning.vnm`); the
        second-order pruner widens to float64 itself.
        """
        dense = np.asarray(tensor)
        if dense.ndim != 2:
            raise ValueError("VNMSparsifier expects a 2-D weight tensor")
        original_shape = dense.shape
        padded, _ = pad_to_vnm_shape(dense, self.v, self.m)

        if self.method == "second_order":
            result = second_order_vnm_prune(
                padded, v=self.v, n=self.n, m=self.m, config=self.second_order_config, grads=grads
            )
            matrix = VNMSparseMatrix.from_dense(result.pruned_weights, v=self.v, n=self.n, m=self.m)
        else:
            selection = vnm_select(padded, self.v, self.n, self.m)
            matrix = VNMSparseMatrix.from_selection(selection, self.v, self.n, self.m)
        return VNMTensor(matrix=matrix, original_shape=original_shape)

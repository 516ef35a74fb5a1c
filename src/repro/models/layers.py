"""The linear layer: one module over one dispatchable operand.

Every projection of the transformer substrate is a :class:`Linear` whose
weight is an :class:`~repro.kernels.dispatch.SpmmOperand` — a V:N:M
matrix once the projection is sparsified, a dense matrix before.  The
layer does not care which: ``forward`` runs ``W @ xᵀ`` through the kernel
dispatcher, which ranks the backends the operand's formats allow (Spatha's
planned engine or the dense cuBLAS fallback for a V:N:M weight, cuBLAS
alone for a dense one), and the modelled cost of a projection is the
dispatcher's ``estimate`` for the same operand — so the per-operator time
accounting of Figure 15 is one query per layer.

A sparse layer is made from a dense one by pruning its weight with one of
the algorithms in :mod:`repro.pruning` and compressing it into a
:class:`~repro.formats.vnm.VNMSparseMatrix` — the same flow the paper's
STen integration automates (Listing 1 swaps ``nn.Linear`` for an ``Spmm``
module over the compressed tensor), wrapped here by
:func:`~repro.integration.sparsify_encoder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..kernels.dispatch import KernelDispatcher, SpmmOperand, default_dispatcher


@dataclass
class Linear:
    """A linear layer ``y = x Wᵀ + b`` executed through the kernel dispatcher.

    ``operand`` holds the weight, shape ``(out_features, in_features)`` (the
    layout the paper sparsifies: the weight is the LHS of the SpMM with the
    activation matrix as RHS).  Execution routes through ``dispatcher`` (the
    shared default unless one is injected).

    ``logical_shape`` is the ``(out_features, in_features)`` of the layer
    when the sparsifier zero-padded the weight up to V/M-divisible
    (:attr:`VNMTensor.original_shape <repro.integration.vnm_tensor.VNMTensor>`);
    ``None`` means the operand's own shape.
    """

    operand: SpmmOperand
    bias: Optional[np.ndarray] = None
    name: str = "linear"
    dispatcher: Optional[KernelDispatcher] = None
    logical_shape: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.operand, SpmmOperand):
            raise TypeError("operand must be an SpmmOperand")
        padded = self.operand.shape
        if len(padded) != 2:
            raise ValueError("weight must be 2-D (out_features, in_features)")
        rows, cols = padded if self.logical_shape is None else self.logical_shape
        self.logical_shape = (int(rows), int(cols))
        if not (0 < rows <= padded[0] and 0 < cols <= padded[1]):
            raise ValueError(
                f"logical_shape {self.logical_shape} must fit the weight's shape {padded}"
            )
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float32)
            if self.bias.shape != (self.out_features,):
                raise ValueError("bias must have shape (out_features,)")
        # Settled here, not compared per call: ``forward`` is the C=1 decode
        # hot path.
        self._padded = self.logical_shape != padded

    @property
    def out_features(self) -> int:
        return self.logical_shape[0]

    @property
    def in_features(self) -> int:
        return self.logical_shape[1]

    @property
    def weight(self) -> np.ndarray:
        """The float32 ``(out_features, in_features)`` weight (dense view)."""
        rows, cols = self.logical_shape
        return self.operand.dense()[:rows, :cols]

    @property
    def sparsity(self) -> float:
        """Logical sparsity of a V:N:M weight (1 - N/M); 0.0 for a dense one."""
        vnm = self.operand.vnm
        return vnm.logical_sparsity if vnm is not None else 0.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the layer to ``x`` of shape ``(..., in_features)``.

        3-D (and higher) activations ``(..., seq, in_features)`` run as one
        batched ``(B, K, seq)`` RHS — one kernel call for the whole batch,
        slab-bit-exact with the per-sample calls — so slab ``i`` of a batch
        produces the bits of the same sequence forwarded alone.  A padded
        weight takes activations zero-padded on K (zero rows contribute
        nothing) and its padded output rows are cropped before the bias.
        """
        x = np.asarray(x, dtype=np.float32)
        out_features, in_features = self.logical_shape
        if x.shape[-1] != in_features:
            raise ValueError(f"input feature dimension {x.shape[-1]} != {in_features}")
        rows = x.reshape((-1, x.shape[-2], in_features) if x.ndim >= 3 else (-1, in_features))
        rhs = np.swapaxes(rows, -1, -2)  # (..., K, C)
        dispatcher = self.dispatcher if self.dispatcher is not None else default_dispatcher()
        if self._padded:
            padded = np.zeros(rhs.shape[:-2] + (self.operand.k, rhs.shape[-1]), dtype=np.float32)
            padded[..., :in_features, :] = rhs
            out = dispatcher.execute(self.operand, padded)[..., :out_features, :]
            if self.bias is not None:
                out = out + self.bias.reshape(-1, 1)
        else:
            out = dispatcher.execute(self.operand, rhs, bias=self.bias)
        return np.swapaxes(out, -1, -2).reshape(*x.shape[:-1], out_features)


def init_dense_linear(
    out_features: int,
    in_features: int,
    name: str = "linear",
    seed: int = 0,
    with_bias: bool = True,
) -> Linear:
    """A dense layer randomly initialised with transformer-like statistics."""
    if out_features <= 0 or in_features <= 0:
        raise ValueError("layer dimensions must be positive")
    rng = np.random.default_rng(seed)
    weight = rng.normal(0.0, 0.02, size=(out_features, in_features)).astype(np.float32)
    bias = rng.normal(0.0, 0.01, size=out_features).astype(np.float32) if with_bias else None
    return Linear(SpmmOperand(dense=weight, name=name), bias=bias, name=name)

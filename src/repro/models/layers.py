"""Linear-layer abstractions: dense and V:N:M-sparse.

The transformer substrate is built from these two layer types.  Both expose
the same ``forward`` interface and, crucially for the end-to-end latency
model, the same ``gemm_problem``/``kernel_result`` interface: the dense
layer reports a cuBLAS execution, the sparse layer a Spatha SpMM, so the
per-operator time accounting of Figure 15 is just a sum over layers.

A sparse layer is created *from* a dense layer by pruning its weight with
one of the algorithms in :mod:`repro.pruning` and compressing it into a
:class:`~repro.formats.vnm.VNMSparseMatrix` — the same flow the paper's
STen integration automates (Listing 1), which is wrapped at a higher level
in :mod:`repro.integration`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..formats.vnm import VNMSparseMatrix
from ..hardware.spec import GPUSpec, rtx3090
from ..kernels import cublas
from ..kernels.common import (
    GemmProblem,
    KernelResult,
    reference_matmul_fp16,
    reference_matmul_fp16_batched,
)
from ..kernels.dispatch import KernelDispatcher, SpmmOperand, default_dispatcher
from ..kernels.spatha import Spatha
from ..pruning.masks import apply_mask
from ..pruning.vnm import vnm_mask


@dataclass
class DenseLinear:
    """A dense linear layer ``y = x Wᵀ + b``.

    ``weight`` has shape ``(out_features, in_features)`` (the layout the
    paper sparsifies: the weight is the LHS of the SpMM with the activation
    matrix as RHS).
    """

    weight: np.ndarray
    bias: Optional[np.ndarray] = None
    name: str = "linear"

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float32)
        if self.weight.ndim != 2:
            raise ValueError("weight must be 2-D (out_features, in_features)")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float32)
            if self.bias.shape != (self.weight.shape[0],):
                raise ValueError("bias must have shape (out_features,)")

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the layer to ``x`` of shape ``(..., in_features)``.

        3-D (and higher) activations run as a batched matmul over the
        leading dims instead of one flattened GEMM, so the computation is
        *slab-exact*: slab ``i`` of a batch produces the bits of the same
        sequence forwarded alone.  Model-level serving batches same-length
        sequences through every layer of an encoder and asserts batched ==
        sequential bit for bit — which only holds if the dense layers are
        slab-exact too, not just the dispatched sparse ones.
        """
        x = np.asarray(x, dtype=np.float32)
        if x.ndim >= 3:
            out = reference_matmul_fp16_batched(x, self.weight.T)
            if self.bias is not None:
                out = out + self.bias
            return out
        flat = x.reshape(-1, x.shape[-1])
        out = reference_matmul_fp16(self.weight, flat.T).T
        if self.bias is not None:
            out = out + self.bias
        return out.reshape(*x.shape[:-1], self.out_features)

    def gemm_problem(self, tokens: int) -> GemmProblem:
        """The R x K x C GEMM this layer performs on ``tokens`` activations."""
        return GemmProblem(r=self.out_features, k=self.in_features, c=tokens, name=self.name)

    def kernel_result(self, tokens: int, gpu: Optional[GPUSpec] = None) -> KernelResult:
        """Modelled cuBLAS execution of this layer's GEMM."""
        return cublas.estimate_time(self.gemm_problem(tokens), gpu=gpu or rtx3090())


@dataclass
class SparseLinear:
    """A V:N:M-sparse linear layer executed through the kernel dispatcher.

    Execution routes through a :class:`~repro.kernels.dispatch.KernelDispatcher`
    (the shared default unless one is injected), which ranks the registered
    backends with the tuner/perf-model cost estimates; for a V:N:M weight
    the candidates are Spatha's planned engine and the dense cuBLAS
    fallback.  The ``spatha`` handle is kept for the performance-model
    accounting (:meth:`kernel_result`).

    ``logical_shape`` is the ``(out_features, in_features)`` of the layer
    when the sparsifier zero-padded the weight up to V/M-divisible
    (:attr:`VNMTensor.original_shape <repro.integration.vnm_tensor.VNMTensor>`);
    ``None`` means the weight's own shape.
    """

    sparse_weight: VNMSparseMatrix
    bias: Optional[np.ndarray] = None
    name: str = "sparse_linear"
    spatha: Spatha = field(default_factory=Spatha)
    dispatcher: Optional[KernelDispatcher] = None
    logical_shape: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.sparse_weight, VNMSparseMatrix):
            raise TypeError("sparse_weight must be a VNMSparseMatrix")
        padded = self.sparse_weight.shape
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
        # hot path and ``sparse_weight.shape`` is a computed property.
        self._padded = self.logical_shape != padded
        self._operand = SpmmOperand.from_vnm(self.sparse_weight, name=self.name)

    @classmethod
    def from_dense(
        cls,
        dense: DenseLinear,
        v: int,
        n: int,
        m: int,
        spatha: Optional[Spatha] = None,
        mask: Optional[np.ndarray] = None,
    ) -> "SparseLinear":
        """Prune a dense layer (magnitude V:N:M unless a mask is given) and compress it."""
        weight = dense.weight.astype(np.float64)
        if mask is None:
            mask = vnm_mask(weight, v=v, n=n, m=m)
        pruned = apply_mask(weight, mask)
        sparse = VNMSparseMatrix.from_dense(pruned, v=v, n=n, m=m, strict=True)
        return cls(
            sparse_weight=sparse,
            bias=None if dense.bias is None else dense.bias.copy(),
            name=dense.name,
            spatha=spatha or Spatha(),
        )

    @property
    def out_features(self) -> int:
        return self.logical_shape[0]

    @property
    def in_features(self) -> int:
        return self.logical_shape[1]

    @property
    def sparsity(self) -> float:
        """Logical sparsity of the weight (1 - N/M)."""
        return self.sparse_weight.logical_sparsity

    @property
    def operand(self) -> SpmmOperand:
        """The dispatchable operand wrapping the sparse weight."""
        return self._operand

    def _dispatcher(self) -> KernelDispatcher:
        return self.dispatcher if self.dispatcher is not None else default_dispatcher()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the layer to ``x`` of shape ``(..., in_features)``.

        Execution goes through the kernel dispatcher; 3-D (and higher)
        activations ``(..., seq, in_features)`` run through the batched RHS
        path — one kernel call for the whole batch, slab-bit-exact with the
        per-sample calls — and the weight's memoized plan is reused either
        way.
        """
        x = np.asarray(x, dtype=np.float32)
        if self._padded:
            return self._forward_padded(x)
        dispatcher = self._dispatcher()
        if x.ndim >= 3:
            lead = x.shape[:-2]
            seq = x.shape[-2]
            rhs = np.swapaxes(x.reshape(-1, seq, x.shape[-1]), 1, 2)  # (B, K, seq)
            out = dispatcher.execute(self._operand, rhs, bias=self.bias)  # (B, R, seq)
            return np.swapaxes(out, 1, 2).reshape(*lead, seq, self.out_features)
        flat = x.reshape(-1, x.shape[-1])
        out = dispatcher.execute(self._operand, flat.T, bias=self.bias).T
        return out.reshape(*x.shape[:-1], self.out_features)

    def _forward_padded(self, x: np.ndarray) -> np.ndarray:
        """``forward`` for a weight the sparsifier zero-padded.

        The activations are zero-padded on K to match (zero rows contribute
        nothing to the product), the padded output rows are cropped, and the
        bias lands on the cropped rows.  Same 2-D / batched split as the
        unpadded path, so batched execution stays slab-bit-exact.
        """
        out_features, in_features = self.logical_shape
        if x.shape[-1] != in_features:
            raise ValueError(f"input feature dimension {x.shape[-1]} != {in_features}")
        rows = x.reshape((-1, x.shape[-2], in_features) if x.ndim >= 3 else (-1, in_features))
        rhs = np.zeros(
            rows.shape[:-2] + (self.sparse_weight.shape[1], rows.shape[-2]), dtype=np.float32
        )
        rhs[..., :in_features, :] = np.swapaxes(rows, -1, -2)
        out = self._dispatcher().execute(self._operand, rhs)[..., :out_features, :]
        if self.bias is not None:
            out = out + self.bias.reshape(-1, 1)
        return np.swapaxes(out, -1, -2).reshape(*x.shape[:-1], out_features)

    def gemm_problem(self, tokens: int) -> GemmProblem:
        """The sparse R x K x C problem this layer launches (the padded
        shape when the sparsifier padded the weight)."""
        w = self.sparse_weight
        return GemmProblem.from_nm(
            r=w.shape[0], k=w.shape[1], c=tokens, n=w.n, m=w.m, v=w.v, name=self.name
        )

    def kernel_result(self, tokens: int, gpu: Optional[GPUSpec] = None) -> KernelResult:
        """Modelled Spatha execution of this layer's SpMM."""
        if gpu is not None and gpu is not self.spatha.gpu:
            return Spatha(gpu=gpu, autotune=self.spatha.autotune).estimate(self.gemm_problem(tokens))
        return self.spatha.estimate(self.gemm_problem(tokens))


def init_dense_linear(
    out_features: int,
    in_features: int,
    name: str = "linear",
    seed: int = 0,
    with_bias: bool = True,
) -> DenseLinear:
    """Randomly initialise a dense layer with transformer-like statistics."""
    if out_features <= 0 or in_features <= 0:
        raise ValueError("layer dimensions must be positive")
    rng = np.random.default_rng(seed)
    weight = rng.normal(0.0, 0.02, size=(out_features, in_features)).astype(np.float32)
    bias = rng.normal(0.0, 0.01, size=out_features).astype(np.float32) if with_bias else None
    return DenseLinear(weight=weight, bias=bias, name=name)

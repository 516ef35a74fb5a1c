"""Model-integration layer (paper Section 7.2.2, Listing 1)."""

from .linear import sparsify_encoder
from .sparsifier import VNMSparsifier
from .vnm_tensor import VNMTensor

__all__ = [
    "sparsify_encoder",
    "VNMSparsifier",
    "VNMTensor",
]

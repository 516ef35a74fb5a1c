"""The model sparsification pass (Listing 1 / Section 7.2.2).

The paper replaces ``torch.nn.Linear`` modules whose weights were marked
sparse with an ``Spmm`` module that unpacks the ``VNMTensor`` (values,
columns, metadata) and calls ``spatha.spmm``.  Here both are the one
:class:`~repro.models.layers.Linear`: :func:`sparsify_encoder` walks a
:class:`~repro.models.transformer.TransformerEncoder`, applies a
:class:`~repro.integration.sparsifier.VNMSparsifier` to a selected list of
weights and swaps each selected dense layer for a ``Linear`` over the
compressed V:N:M operand — the "few lines of code" user experience the
paper advertises.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from .sparsifier import VNMSparsifier
from ..kernels.dispatch import SpmmOperand
from ..models.layers import Linear
from ..models.transformer import TransformerEncoder


def sparsify_encoder(
    encoder: TransformerEncoder,
    sparsifier: VNMSparsifier,
    weight_filter: Optional[Callable[[str], bool]] = None,
    weight_names: Optional[Sequence[str]] = None,
) -> List[str]:
    """Sparsify the selected weights of an encoder in place.

    Parameters
    ----------
    encoder:
        The model to modify.
    sparsifier:
        The V:N:M sparsifier to apply.
    weight_filter:
        Predicate on the qualified layer name (e.g. keep only
        ``"attention."`` layers).  Defaults to "all prunable weights", the
        choice the paper's end-to-end study makes.
    weight_names:
        Alternatively, an explicit list of qualified names ("users can
        specify a list of weights to be made sparse").

    Returns
    -------
    list of str
        The qualified names of the layers that were replaced.
    """
    if weight_filter is not None and weight_names is not None:
        raise ValueError("pass either weight_filter or weight_names, not both")
    selected: Optional[set] = set(weight_names) if weight_names is not None else None
    replaced: List[str] = []

    def convert(name: str, layer: Linear):
        if layer.operand.vnm is not None:
            return None
        if selected is not None and name not in selected:
            return None
        if weight_filter is not None and not weight_filter(name):
            return None
        weight = sparsifier.sparsify(layer.weight)
        replaced.append(name)
        return Linear(
            SpmmOperand.from_vnm(weight.matrix, name=layer.name),
            bias=None if layer.bias is None else layer.bias.copy(),
            name=layer.name,
            logical_shape=weight.original_shape,
        )

    encoder.apply_to_linears(convert)
    if selected is not None:
        missing = selected - set(replaced)
        if missing:
            raise KeyError(f"weights not found in the encoder: {sorted(missing)}")
    return replaced

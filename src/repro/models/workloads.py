"""Benchmark workloads: matrices "extracted from real-world LLMs".

The micro-benchmarks of the paper (Figures 9, 10, 12 and 13) run on weight
matrices whose outer dimensions come from BERT linear layers — e.g. the
``1024 x K x 4096`` sweep of Figure 9 corresponds to one BERT-large FFN
weight with a variable (scaled) inner dimension — while the energy study
(Figure 11) uses the ``768 x 768`` query projection of BERT-base's encoder
layer 8.  Since trained checkpoints are not available offline, this module
synthesises that weight with trained-like statistics (see
:func:`repro.pruning.second_order.proxy.synthesize_trained_layer`) and
names the K sweep the figures iterate over.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .config import BERT_BASE, ModelConfig
from ..pruning.second_order.proxy import synthesize_trained_layer


#: Inner-dimension (K) sweep of Figures 9 and 12: 768 .. 12288 in steps of 768.
K_SWEEP: Tuple[int, ...] = tuple(768 * i for i in range(1, 17))


def synthetic_bert_weight(
    layer: str = "encoder.layer.8.attention.self.query.weight",
    config: ModelConfig = BERT_BASE,
    seed: int = 8,
) -> np.ndarray:
    """Synthesise the weight tensor used by the energy study (Figure 11).

    The paper uses BERT-base's layer-8 query projection (768 x 768); the
    substitution generates a matrix of the same shape with transformer-like
    magnitude statistics (README, "Reproduction ledger").
    """
    shapes = config.linear_layer_shapes()
    key = None
    for name in shapes:
        if name.split(".")[-1] in layer or name in layer:
            key = name
            break
    if key is None:
        key = "attention.query"
    rows, cols = shapes[key]
    return synthesize_trained_layer(rows=rows, cols=cols, seed=seed)

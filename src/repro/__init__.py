"""repro — reproduction of VENOM: A Vectorized N:M Format for Unleashing
the Power of Sparse Tensor Cores (SC 2023).

The package is organised as the paper is:

* :mod:`repro.hardware` — simulated GPU substrate (RTX 3090 with SPTCs).
* :mod:`repro.formats` — sparse storage formats, including the V:N:M format.
* :mod:`repro.pruning` — magnitude / N:M / vector-wise / V:N:M /
  second-order pruning and the energy metric.
* :mod:`repro.kernels` — Spatha and the baseline SpMM/GEMM libraries.
* :mod:`repro.models` — transformer substrate (BERT / GPT-2 / GPT-3).
* :mod:`repro.integration` — the sparsifier and the pass that swaps an
  encoder's dense projections for V:N:M ``SparseLinear`` layers.
* :mod:`repro.evaluation` — the experiment harness behind every figure and
  table of the paper's evaluation.
"""

__version__ = "1.0.0"

__all__ = [
    "hardware",
    "formats",
    "pruning",
    "kernels",
    "models",
    "integration",
    "evaluation",
]

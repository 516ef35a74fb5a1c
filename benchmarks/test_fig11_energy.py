"""Figure 11 — energy evaluation of the V:N:M format.

Reproduced on a synthesised 768 x 768 BERT-base query-projection weight
(the trained-checkpoint substitution in the README's "Reproduction
ledger").  The qualitative claims checked:

* unstructured ("ideal") selection dominates every structured policy;
* the V:N:M format sits between ideal and vector-wise pruning, and even
  V=128 retains more energy than vw_8 and vw_4;
* energy decreases with sparsity for every policy, and by 95% sparsity only
  a small fraction of the original energy remains (the paper's motivation
  for second-order methods).
"""

from repro.evaluation.figures import figure11_energy
from repro.evaluation.reporting import dominates, format_table, is_monotonic_decreasing

SPARSITIES = (0.5, 0.6, 0.75, 0.8, 0.9, 0.95)
V_VALUES = (1, 16, 32, 64, 128)
VW_LENGTHS = (4, 8, 16, 32)


def test_fig11_energy(run_once):
    study = run_once(
        figure11_energy, sparsities=SPARSITIES, v_values=V_VALUES, vw_lengths=VW_LENGTHS
    )

    headers = ["policy"] + [f"{int(s * 100)}%" for s in SPARSITIES]
    rows = [[label] + [round(e, 3) for e in series] for label, series in study.items()]
    print()
    print(
        format_table(
            headers,
            rows,
            title="Figure 11: energy of each selection policy on a 768x768 BERT-base layer",
        )
    )

    ideal = study["ideal"]

    # Energy decreases with sparsity for every policy, and the ideal policy
    # dominates every structured one (small tolerance for the padding of
    # non-divisible N:M group sizes, e.g. M=20 on 768 columns).
    for label, series in study.items():
        assert is_monotonic_decreasing(series, tolerance=0.01), label
        if label != "ideal":
            assert dominates(ideal, series, tolerance=0.03), label

    # V:N:M is robust to the vector size: even V=128 beats vw_8 and vw_4
    # (small tolerance at the 90/95% points where the N:M group size does
    # not divide the 768-wide layer and padding blurs the comparison).
    assert dominates(study["128:N:M"], study["vw_8"], tolerance=0.012)
    assert dominates(study["128:N:M"], study["vw_4"], tolerance=0.012)
    mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
    assert mean(study["128:N:M"]) > mean(study["vw_8"])
    assert mean(study["128:N:M"]) > mean(study["vw_4"])

    # Longer dense vectors lose more energy (vw_4 >= vw_8 >= vw_16 >= vw_32).
    assert dominates(study["vw_4"], study["vw_8"], tolerance=1e-9)
    assert dominates(study["vw_8"], study["vw_16"], tolerance=1e-9)
    assert dominates(study["vw_16"], study["vw_32"], tolerance=1e-9)

    # Smaller V values sit closer to the ideal (1:N:M >= 64:N:M >= 128:N:M).
    assert dominates(study["1:N:M"], study["64:N:M"], tolerance=0.02)
    assert dominates(study["64:N:M"], study["128:N:M"], tolerance=0.02)

    # Magnitude-based selection bleeds energy quickly: at 50% sparsity some
    # energy is already gone, and at 95% only a small fraction remains.
    assert ideal[0] < 0.95
    assert ideal[-1] < 0.45

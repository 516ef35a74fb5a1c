"""The mutant table stays applicable: every row's patch targets live code.

Running the gate itself takes about 20 s (CI job ``mutants``); this checks
only that no refactor has left a row pointing at code that is gone.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from mutants import MUTANTS, Mutant, apply  # noqa: E402


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_row_applies_to_the_tree_and_names_existing_tests(mutant):
    source = (REPO_ROOT / mutant.path).read_text()
    assert apply(mutant, source) != source
    for test in mutant.tests:
        assert (REPO_ROOT / test.split("::")[0]).is_file(), test


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


def test_a_missing_or_repeated_target_is_stale():
    row = Mutant("toy", "toy.py", (("x = 1\n", "x = 2\n"),), ("tests",))
    assert apply(row, "x = 1\n") == "x = 2\n"
    for source in ("y = 1\n", "x = 1\nx = 1\n"):
        with pytest.raises(ValueError, match="toy: patch target found"):
            apply(row, source)

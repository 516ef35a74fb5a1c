"""The reach ledger on a toy package: reached vs unreached, subprocesses included."""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from reach_ledger import functions, ledger, render, trace  # noqa: E402

TOY = '''\
def called():
    """Docstring lines are not body lines."""
    return 1


def never():
    x = 2
    return x


class Box:
    @property
    def size(self):
        return 3
'''

SCRIPT = '''\
import subprocess, sys
import toy
toy.called()
subprocess.run([sys.executable, "-c", "import toy; toy.Box().size"], check=True)
'''


def test_toy_package_ledger(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "toy.py").write_text(TOY)
    (tmp_path / "run.py").write_text(SCRIPT)

    found = {name: size for name, size in functions(package).values()}
    assert found == {"called": 1, "never": 2, "Box.size": 1}

    reached = trace([[sys.executable, "run.py"]], package, tmp_path, pythonpath=[package])
    total, unreached, by_module = ledger(package, reached)
    assert (total, unreached) == (4, 2)
    # Box.size ran only in the child process: the hook followed it there.
    assert by_module == {"pkg/toy.py": [(6, "never", 2)]}
    assert render(total, unreached, by_module).splitlines()[1:3] == [
        "      2  pkg/toy.py",
        "      2  of 4 body lines in total",
    ]


def test_failing_command_stops_the_run(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    with pytest.raises(SystemExit, match="exited 3"):
        trace([[sys.executable, "-c", "raise SystemExit(3)"]], package, tmp_path)

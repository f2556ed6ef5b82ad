"""Let the CLI tests' child interpreters import graphbench from src/ as well.

pyproject.toml's pytest ``pythonpath`` only reaches this process, so in a
fresh checkout ``python -m graphbench.cli`` subprocesses would not find the
package.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def src_on_child_pythonpath():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield

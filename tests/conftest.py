"""Fixtures for every test: graphbench on child interpreters' path, and no stray children.

pyproject.toml's pytest ``pythonpath`` only reaches this process, so in a
fresh checkout ``python -m graphbench.cli`` subprocesses would not find the
package.
"""

import multiprocessing
import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def src_on_child_pythonpath():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a multiprocessing child (a pool worker, say) alive."""
    yield
    assert multiprocessing.active_children() == [], "a multiprocessing child outlived the test"

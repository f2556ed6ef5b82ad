"""Fixtures for every test: graphbench on child interpreters' path, and no stray children.

pyproject.toml's pytest ``pythonpath`` only reaches this process, so in a
fresh checkout ``python -m graphbench.cli`` subprocesses would not find the
package.

Hypothesis draws the same examples on every run and keeps no example
database, so a run's verdict depends only on the tree, not on earlier runs
in the same checkout.
"""

import multiprocessing
import os
from pathlib import Path

import pytest
from hypothesis import settings

SRC = str(Path(__file__).resolve().parents[1] / "src")

settings.register_profile("tree", derandomize=True, database=None)
settings.load_profile("tree")


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

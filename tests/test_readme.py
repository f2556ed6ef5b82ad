"""README.md's code examples run as written against the installed package."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_recovers_its_three_blobs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert float(capsys.readouterr().out) == pytest.approx(1.0)  # the AMI it prints

"""Every python block of README.md runs as written, each in a fresh namespace."""

import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = [(README[:m.start()].count("\n") + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", README, re.S | re.M)]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, code):
    exec(compile(code, f"README.md:{line}", "exec"), {"__name__": "__readme__"})

"""Every python block of README.md runs as written, each in a fresh namespace,
and every `awalk` command line of its bash blocks parses."""

import re
import shlex
from pathlib import Path

import pytest

from awalk.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = [(README[:m.start()].count("\n") + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", README, re.S | re.M)]
COMMANDS = [line for m in re.finditer(r"^```bash\n(.*?)^```", README, re.S | re.M)
            for line in m.group(1).splitlines() if line.startswith("awalk ")]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


# ids from each block's position, so that README edits above it keep them
@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_python_block_runs(line, code):
    exec(compile(code, f"README.md:{line}", "exec"), {"__name__": "__readme__"})


def test_readme_shows_every_command():
    _, subs = build_parser()
    assert {shlex.split(line)[1] for line in COMMANDS} == set(subs)


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_line_parses(line):
    parser, _ = build_parser()
    args = parser.parse_args(shlex.split(line, comments=True)[1:])
    assert args.command == shlex.split(line)[1]

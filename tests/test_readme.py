"""Every python block of README.md runs as written, each in a fresh namespace,
every `awalk` command line of its bash blocks parses, and every one but the
long simulations runs."""

import json
import os
import re
import shlex
import subprocess
import sys
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


# each about 10^9 path-steps: these lines are only parsed
LONG = {"recurrence", "signs", "growth"}


def test_readme_command_lines_run_on_runtime_dependencies(tmp_path):
    # the short lines, as written, in one fresh process, which must not
    # import a package the runtime does not declare (it needs numpy alone)
    lines = [line for line in COMMANDS if shlex.split(line)[1] not in LONG]
    code = ("import json, shlex, sys; from awalk.cli import main; "
            "codes = [main(shlex.split(line, comments=True)[1:]) for line in sys.argv[1:]]; "
            "extra = [m for m in ('mpmath', 'scipy', 'hypothesis', 'pytest') "
            "if m in sys.modules]; print(json.dumps([codes, extra]))")
    proc = subprocess.run([sys.executable, "-c", code, *lines], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    codes, extra = json.loads(proc.stdout.strip().splitlines()[-1])
    assert dict(zip(lines, codes)) == dict.fromkeys(lines, 0) and extra == []
    # "the z=0 row has count 14"
    assert any(row.startswith("0,14,") for row in (tmp_path / "dist.csv").read_text().splitlines())

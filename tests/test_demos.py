"""Each demo script, and the README's library quickstart, runs to completion
in a fresh working directory, and the README's commands print what they say."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import semitotal
from semitotal.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    src = str(Path(semitotal.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,  # demo 05 writes scan_records.jsonl into its cwd
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demo_set():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = _run([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_readme_quickstart(tmp_path):
    # the block must keep running against the current API, and each print
    # commented with its output must print exactly that
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    expected = {i: line.split("# ", 1)[1] for i, line in enumerate(prints) if "# " in line}
    assert expected == {0: "3", 1: "VertexSet(n=6, {0,3})"}
    proc = _run(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(prints)
    assert {i: lines[i] for i in expected} == expected


def test_readme_command_lines(capsys):
    # each line of the command-line block commented # -> "..." runs through
    # the CLI and must print exactly the quoted line
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    checked = []
    for line in block.splitlines():
        command, sep, comment = line.partition("# -> ")
        if sep:
            assert comment[0] == comment[-1] == '"', line
            argv = shlex.split(command)
            assert argv[0] == "semitotal", line
            assert main(argv[1:]) == 0, line
            assert capsys.readouterr().out == comment[1:-1] + "\n", line
            checked.append(argv[1])
    assert checked == ["solve", "solve", "solve", "product"]

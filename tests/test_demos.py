"""Each demo script runs to completion in a fresh working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import semitotal

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demo_set():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    src = str(Path(semitotal.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,  # demo 05 writes scan_records.jsonl into its cwd
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

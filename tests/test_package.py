import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semitotal


def test_export_list_matches_the_public_imports():
    names = semitotal.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [name for name in names if not hasattr(semitotal, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
    tree = ast.parse(Path(semitotal.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(names) == {name for name in imported if not name.startswith("_")}


def test_runtime_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies: every absolute import in the
    # package names a standard-library module or the package itself
    outside = []
    for path in sorted(Path(semitotal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "semitotal" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} imports {name}")
    assert not outside, outside


# each snippet runs in a fresh interpreter, since pytest's own plugins may
# import multiprocessing; it sets the exit codes of the commands it runs,
# which write into the directory named by its first argument
_SERIAL_RUNS = {
    "import": "codes = []",
    "serial-commands": """
import os
from semitotal.cli import main
out = os.path.join(sys.argv[1], "scan.jsonl")
codes = [
    main(["solve", "--graph", "path:4", "--kind", "gamma_t2"]),
    main(["product", "--left", "path:2", "--right", "path:3"]),
    main(["scan", "--spec", "path:2 x paths:2-3", "--out", out, "--workers", "1"]),
    main(["verify-proof", "--left", "path:2", "--right", "path:3"]),
    main(["report", "--jsonl", out]),
]
""",
}


@pytest.mark.parametrize("run", sorted(_SERIAL_RUNS))
def test_serial_work_loads_no_process_pool(tmp_path, run):
    # only a scan that starts a pool imports concurrent.futures, and with it
    # multiprocessing
    code = "\n".join([
        "import json, sys",
        "import semitotal, semitotal.cli",
        _SERIAL_RUNS[run],
        "pool = [m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')]",
        "print(json.dumps([codes, sorted(pool)]))",
    ])
    src = str(Path(semitotal.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    codes, pool = json.loads(proc.stdout.splitlines()[-1])
    assert not any(codes) and pool == [], proc.stdout

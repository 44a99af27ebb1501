import ast
import sys
from pathlib import Path

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

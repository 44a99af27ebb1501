import ast
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

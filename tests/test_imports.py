"""Static check of the package sources: every imported name is used."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "appellsys"


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports names only to re-export them
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names = sorted(set(imported_names(tree)) - used)
        if names:
            unused[path.name] = names
    assert unused == {}

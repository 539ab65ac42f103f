"""Each module of the package uses every name it imports.  Checked on the
syntax tree with the standard library, since no linter is a dependency;
__init__.py is left out because it imports names to re-export them."""

import ast
from pathlib import Path

import connexive


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_detected():
    assert unused_imports("import os\nimport a.b\nfrom x import y, z as w\nos.sep, w\n") == ["a", "y"]


def test_no_unused_imports():
    package = Path(connexive.__file__).parent
    found = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert found == {}

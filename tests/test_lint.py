"""Static checks on the package source, with the standard library's ast."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dimred"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``from __future__`` excepted)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in used]


def test_unused_imports_detects_a_leftover():
    source = "import math\nimport os.path\nfrom x import a, b as c\nprint(a, os)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: c"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_modules_import_only_what_they_use(path):
    assert unused_imports(path.read_text()) == []

"""Static checks on the package source, with the standard library's ast."""

import ast
from pathlib import Path

import pytest

from dimred.config import DEFAULT_CONFIG_TEXT, parse_kv_text

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


CONFIG_KEYS = set(parse_kv_text(DEFAULT_CONFIG_TEXT)) | {"sequence.points"}


def config_key_literals(source: str) -> list[str]:
    """String literals of a module that are config keys."""
    return [f"line {node.lineno}: {node.value}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in CONFIG_KEYS]


def test_config_key_literals_detects_a_read():
    source = 'seed = cfg.get("seed")\nprint("seed = 1", f"{seed}.dir")\nd = {"nls.dt": 1}\n'
    assert config_key_literals(source) == ["line 1: seed", "line 3: nls.dt"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "config.py"),
                         ids=lambda p: p.name)
def test_only_the_config_module_names_config_keys(path):
    # config.ExperimentConfig is the one reader: no other module looks a key up
    assert config_key_literals(path.read_text()) == []

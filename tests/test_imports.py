"""Every module of the package, but __init__.py, whose imports are its
exports, and every demo reads each name it imports at top level."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [p for p in sorted((ROOT / "src" / "layoutdiff").glob("*.py"))
           if p.name != "__init__.py"] + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source):
    """The names that source's top-level imports bind and it never reads,
    each as "line N: name"; __future__ imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_unused_imports_finds_a_name_never_read():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from json import dumps as d, loads\nsys.exit(d(os.path.sep))\n")
    assert unused_imports(source) == ["line 4: loads"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_top_level_import_is_read(path):
    assert unused_imports(path.read_text()) == []

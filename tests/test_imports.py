"""Lints: no module of the package imports a name it never uses, and no
module-level private name goes unreferenced in the package."""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "simplespectrum"
# __init__.py imports names to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
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
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detects_unused_import():
    assert unused_imports("import os\nfrom x import y, z\nprint(z)\n") == [
        "os (line 1)",
        "y (line 2)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants (one leading
    underscore) that no statement of any source references, apart from the
    statement that defines them; `sources` maps file names to source."""
    defined, users = [], defaultdict(set)
    for fname, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [
                (fname, i, name, stmt.lineno)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    users[node.id].add((fname, i))
                elif isinstance(node, ast.Attribute):
                    users[node.attr].add((fname, i))
    return [
        f"{fname}: {name} (line {line})"
        for fname, i, name, line in defined
        if not users[name] - {(fname, i)}
    ]


def test_detects_unused_private_name():
    sources = {
        "a.py": "def _f():\n    pass\ndef _g():\n    return _g()\n_X = 1\n",
        "b.py": "from a import _X\nprint(_X)\n__all__ = []\n",
    }
    assert unused_private_names(sources) == ["a.py: _f (line 1)", "a.py: _g (line 3)"]


def test_no_unused_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []

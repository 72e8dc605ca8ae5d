"""Lints: no module of the package imports a name it never uses, no
module-level private name goes unreferenced in the package, no function
leaves a parameter unread, no dataclass field goes unread outside the
tests, and no public method, property, module-level function or class is
read only by the unit tests, a classmethod counting as read only through
its own class; and every layer function the benchmark traces, and every
package name the benchmark imports or reads, exists."""

import ast
import importlib
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


def unread_parameters(source: str) -> list[str]:
    """Parameters, apart from self and cls, that the body of their function
    (nested functions included) never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [
            f"{name}: {p.arg} (line {p.lineno})"
            for p in params
            if p.arg not in ("self", "cls") and p.arg not in read
        ]
    return found


def test_detects_unread_parameter():
    source = (
        "def f(self, a, b=1, *args, c, **kw):\n"
        "    b = 2\n"
        "    def g(d):\n"
        "        return a + c\n"
        "    return g, lambda x, y: y\n"
    )
    assert unread_parameters(source) == [
        "f: b (line 1)",
        "f: args (line 1)",
        "f: kw (line 1)",
        "g: d (line 3)",
        "<lambda>: x (line 5)",
    ]


def test_no_unread_parameters():
    found = [
        f"{path.name}: {unread}"
        for path in sorted(SRC.glob("*.py"))
        for unread in unread_parameters(path.read_text())
    ]
    assert found == []


def attribute_loads(sources: list[str]) -> set[str]:
    """The attribute names that some attribute load in `sources` reads."""
    return {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_dataclass_fields(defining: dict[str, str], readers: list[str]) -> list[str]:
    """Fields of @dataclass classes in `defining` (file names to source)
    whose name no attribute load in `readers` (sources) reads."""
    read = attribute_loads(readers)
    found = []
    for fname, source in defining.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
            if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
                continue
            found += [
                f"{fname}: {cls.name}.{stmt.target.id} (line {stmt.lineno})"
                for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                and stmt.target.id not in read
            ]
    return found


def test_detects_unread_dataclass_field():
    defining = {
        "a.py": (
            "@dataclass(frozen=True)\nclass R:\n    p: float\n    window: float = 0.0\n"
            "@dataclasses.dataclass\nclass S:\n    q: int\n"
            "class Plain:\n    x: int\n"
            "def f(r, s):\n    s.q = r.window\n"
        ),
    }
    readers = [defining["a.py"], "print(R(1).p)\n"]
    assert unread_dataclass_fields(defining, readers) == ["a.py: S.q (line 7)"]


def test_no_unread_dataclass_fields():
    # Reads in tests do not count: a field only a test reads is dead weight.
    root = SRC.parents[1]
    readers = [
        p.read_text()
        for p in sorted([*SRC.glob("*.py"), *root.glob("bench/*.py"), *root.glob("demos/*.py")])
        if not p.name.startswith("test_")
    ]
    defining = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_dataclass_fields(defining, readers) == []


def classmethod_loads(sources: list[str]) -> set[tuple[str, str]]:
    """The (class, name) pairs that some attribute load in `sources` reads
    as <Class>.<name>, <module>.<Class>.<name>, or cls.<name> inside the
    class <Class>."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = node.value
                if isinstance(owner, ast.Name):
                    read.add((owner.id, node.attr))
                elif isinstance(owner, ast.Attribute):
                    read.add((owner.attr, node.attr))
            if isinstance(node, ast.ClassDef):
                read.update(
                    (node.name, n.attr)
                    for n in ast.walk(node)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                    and isinstance(n.value, ast.Name) and n.value.id == "cls"
                )
    return read


def _is_classmethod(stmt) -> bool:
    return any(getattr(d, "id", None) == "classmethod" for d in stmt.decorator_list)


def unread_public_methods(defining: dict[str, str], readers: list[str]) -> list[str]:
    """Public methods and properties of the classes in `defining` (file
    names to source) whose name no attribute load in `readers` (sources)
    reads; a classmethod counts as read only through its own class, as
    classmethod_loads finds it, since other classes share names such as
    from_json."""
    read, class_read = attribute_loads(readers), classmethod_loads(readers)
    return [
        f"{fname}: {cls.name}.{stmt.name} (line {stmt.lineno})"
        for fname, source in defining.items()
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not stmt.name.startswith("_")
        and (
            (cls.name, stmt.name) not in class_read
            if _is_classmethod(stmt)
            else stmt.name not in read
        )
    ]


def test_detects_unread_public_method():
    defining = {
        "a.py": (
            "class M:\n"
            "    def __eq__(self, o):\n        return self.n == o.n\n"
            "    @property\n    def n(self):\n        return 1\n"
            "    @property\n    def size(self):\n        return 2\n"
            "    def permuted(self, p):\n        return self\n"
            "    @classmethod\n    def from_rows(cls, rows):\n        return cls()\n"
            "    def _helper(self):\n        pass\n"
            "def free():\n    pass\n"
        ),
    }
    readers = [defining["a.py"], "M.from_rows([]).permuted\nM().size = 1\n"]
    assert unread_public_methods(defining, readers) == ["a.py: M.size (line 8)"]


def test_detects_classmethod_read_only_through_another_class():
    defining = {
        "a.py": (
            "class R:\n"
            "    def to_json(self):\n        return {}\n"
            "    @classmethod\n    def from_json(cls, obj):\n        return cls()\n"
            "    @classmethod\n    def build(cls):\n        return cls.parse()\n"
            "    @classmethod\n    def parse(cls):\n        return cls()\n"
            "class S:\n"
            "    @classmethod\n    def from_json(cls, obj):\n        return cls()\n"
            "    @classmethod\n    def load(cls):\n        return cls()\n"
        ),
    }
    readers = [
        defining["a.py"],
        "S.from_json({}).to_json()\nmod.S.load()\nR().build\nother.from_json\n",
    ]
    assert unread_public_methods(defining, readers) == [
        "a.py: R.from_json (line 5)",
        "a.py: R.build (line 8)",
    ]


def _users() -> list[Path]:
    """The package's users: the package itself, the benchmark, the demos
    and the acceptance criteria."""
    root = SRC.parents[1]
    return sorted(
        [*SRC.glob("*.py"), *root.glob("bench/*.py"), *root.glob("demos/*.py"),
         root / "tests" / "test_acceptance.py"]
    )


def test_no_test_only_public_methods():
    # A method only the unit tests call is dead weight.
    readers = [p.read_text() for p in _users()]
    defining = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_public_methods(defining, readers) == []


def unread_public_names(defining: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Public module-level functions and classes of `defining` that no
    statement of `readers` reads, by name or as an attribute, apart from
    the statement that defines them; both map file names to source."""
    users = defaultdict(set)
    for fname, source in readers.items():
        for i, stmt in enumerate(ast.parse(source).body):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    users[node.id].add((fname, i))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    users[node.attr].add((fname, i))
    return [
        f"{fname}: {stmt.name} (line {stmt.lineno})"
        for fname, source in defining.items()
        for i, stmt in enumerate(ast.parse(source).body)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and not users[stmt.name] - {(fname, i)}
    ]


def test_detects_unread_public_name():
    defining = {
        "a.py": (
            "def f():\n    return f()\n"
            "def g():\n    pass\n"
            "class C:\n    pass\n"
            "class D:\n    pass\n"
            "def _h():\n    pass\n"
            "x = 1\n"
        ),
    }
    readers = {**defining, "b.py": "import a\nprint(a.g(), C)\nD = None\n"}
    assert unread_public_names(defining, readers) == ["a.py: f (line 1)", "a.py: D (line 7)"]


def test_no_test_only_public_functions():
    # A function or class only the unit tests read is dead weight; the
    # re-exports of __init__ read nothing.
    root = SRC.parents[1]
    readers = {
        str(p.relative_to(root)): p.read_text() for p in _users() if p.name != "__init__.py"
    }
    defining = {str(p.relative_to(root)): p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_public_names(defining, readers) == []


def bench_layer_functions() -> dict[str, tuple[str, str]]:
    """LAYER_FUNCTIONS of bench/spans.py, read from its source, so that the
    benchmark is not imported."""
    source = (SRC.parents[1] / "bench" / "spans.py").read_text()
    for stmt in ast.parse(source).body:
        targets = [getattr(t, "id", None) for t in getattr(stmt, "targets", [])]
        if targets == ["LAYER_FUNCTIONS"]:
            return ast.literal_eval(stmt.value)
    raise AssertionError("bench/spans.py defines no LAYER_FUNCTIONS")


def test_bench_layer_functions_resolve():
    # The traced benchmark wraps each layer function by name: one the
    # package no longer defines breaks every traced run.
    layers = bench_layer_functions()
    assert layers
    missing = [
        f"{span}: {module}.{name}"
        for span, (module, name) in layers.items()
        if not callable(getattr(importlib.import_module(f"simplespectrum.{module}"), name, None))
    ]
    assert missing == []


def _dotted(node, bound: dict[str, str]):
    """The dotted name of an attribute chain whose root is a name in
    `bound`, that root replaced by what it is bound to; else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in bound:
        return ".".join([bound[node.id], *reversed(attrs)])
    return None


def package_references(source: str, package: str = "simplespectrum") -> set[str]:
    """The dotted names of `package` that `source` imports, and every
    attribute chain it reads off a name so imported, such as
    package.module.name for module.name after from package import module."""
    tree = ast.parse(source)
    bound, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                refs.add(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == package:
                    bound[alias.asname or package] = alias.name if alias.asname else package
                    refs.add(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if name := _dotted(node, bound):
                refs.add(name)
    return refs


def unresolved(names) -> list[str]:
    """The dotted names, sorted, that neither an attribute nor an
    importable submodule resolves, part by part from the top package."""
    missing = []
    for name in sorted(names):
        parts = name.split(".")
        obj = importlib.import_module(parts[0])
        for i, part in enumerate(parts[1:], 2):
            if hasattr(obj, part):
                obj = getattr(obj, part)
                continue
            try:
                obj = importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                missing.append(name)
                break
    return missing


def test_detects_unresolved_package_reference():
    source = (
        "import simplespectrum\n"
        "from simplespectrum import spectrum, nosuch\n"
        "from simplespectrum.errors import PreconditionError as PE, Gone\n"
        "def f(other):\n"
        "    spectrum.simplicity_exact, spectrum.char_polys_stack, PE.args\n"
        "    simplespectrum.harness.missing, other.char_polys_stack\n"
    )
    refs = package_references(source)
    assert "simplespectrum.errors.PreconditionError.args" in refs
    assert not any("other" in name for name in refs)
    assert unresolved(refs) == [
        "simplespectrum.errors.Gone",
        "simplespectrum.harness.missing",
        "simplespectrum.nosuch",
        "simplespectrum.spectrum.char_polys_stack",
    ]


def test_bench_package_references_resolve():
    # Tier-1 runs none of bench/, so a name the package drops would break
    # the benchmark unseen.
    refs = set().union(*(package_references(p.read_text())
                         for p in sorted((SRC.parents[1] / "bench").glob("*.py"))))
    assert "simplespectrum.spectrum.simplicity_exact" in refs
    assert unresolved(refs) == []

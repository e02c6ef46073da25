"""Everything the package defines is reachable from the package itself.

A top-level function or class of `src/hopfadjoint` must be named
somewhere in the package outside its own body and outside
`__init__.py`; a non-dunder method must be read as an attribute
somewhere outside its own body.  Code that only the tests call belongs
in `tests/support.py`, not in the package.  The scan is by name, so it
finds a dead definition once nothing else spells its name."""

import ast
from collections import Counter
from pathlib import Path

import hopfadjoint

PACKAGE = Path(hopfadjoint.__file__).parent

# qualified name -> why it stays although no package code reads it
ALLOWED = {
    "Matrix.entries": "perfbench/run.py's traced nonzero count reads it",
}

DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(qualified name, node, is_method) for every top-level function and
    class and every non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, DEF_NODES):
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, DEF_NODES) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                        yield f"{node.name}.{sub.name}", sub, True


def _mentions(node) -> tuple[Counter, Counter]:
    """How often each attribute name and each bare name is spelt in node."""
    attributes, names = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            attributes[sub.attr] += 1
        elif isinstance(sub, ast.Name):
            names[sub.id] += 1
    return attributes, names


def unreached_definitions(package: Path) -> set[str]:
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"]
    attributes, names = Counter(), Counter()
    for tree in trees:
        a, n = _mentions(tree)
        attributes.update(a)
        names.update(n)
    unreached = set()
    for tree in trees:
        for qualname, node, is_method in _definitions(tree):
            own_attributes, own_names = _mentions(node)
            outside = attributes[node.name] - own_attributes[node.name]
            if not is_method:
                outside += names[node.name] - own_names[node.name]
            if not outside:
                unreached.add(qualname)
    return unreached


def test_every_definition_has_a_caller_in_the_package():
    unreached = unreached_definitions(PACKAGE)
    assert unreached - set(ALLOWED) == set(), "move test-only code to tests/support.py or delete it"
    assert set(ALLOWED) - unreached == set(), "the package reads these now: drop them from ALLOWED"


def test_scan_sees_a_test_only_definition(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return helper()\n\n\ndef helper():\n    return helper()\n\n\n"
                                   "class C:\n    def m(self):\n        return self.m()\n\n    def n(self):\n"
                                   "        return 1\n\n\ndef unused():\n    return C().m\n")
    (tmp_path / "b.py").write_text("from .a import used\n\nused()\nn = 1\n")
    (tmp_path / "__init__.py").write_text("from .a import unused\n\nunused()\nC.n\n")
    assert unreached_definitions(tmp_path) == {"C.n", "unused"}


# The dead-name scan: neither pyflakes nor ruff is a dependency, so this
# is the package's only check for unused imports and dead locals.

def _reads(node) -> set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}


def _assigned(node) -> set[str]:
    """The names that assignment statements in node bind, tuple targets
    unpacked; loop and comprehension variables are not counted."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            targets = sub.targets
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets = [sub.target]
        else:
            continue
        for target in targets:
            out |= {t.id for t in ast.walk(target) if isinstance(t, ast.Name)}
    return out


def dead_names(package: Path) -> set[str]:
    """"module: name" for each name a module imports and never reads, and
    "module.function: name" for each local that an assignment in a
    function binds and that function never reads.  `__init__.py` is
    skipped for imports: they are the package's exports.  Names that
    start with an underscore and names declared global or nonlocal are
    exempt."""
    dead = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        module = path.stem
        if path.name != "__init__.py":
            imported = {(alias.asname or alias.name).split(".")[0]
                        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                        and getattr(node, "module", None) != "__future__" for alias in node.names}
            dead |= {f"{module}: {name}" for name in imported - _reads(tree)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                declared = {name for sub in ast.walk(node) if isinstance(sub, (ast.Global, ast.Nonlocal))
                            for name in sub.names}
                unread = _assigned(node) - _reads(node) - declared
                dead |= {f"{module}.{node.name}: {name}" for name in unread if not name.startswith("_")}
    return dead


def test_no_unused_import_or_dead_local():
    assert dead_names(PACKAGE) == set()


def test_scan_sees_an_unused_import_and_a_dead_local(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\nimport os\nfrom math import pi, tau\n\n\n"
        "def f(x):\n    z, y = 0, x\n    _unused = 1\n    w = 2\n    w += 1\n\n"
        "    def g():\n        nonlocal y\n        y = tau\n        return y\n\n    return g() + pi\n")
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    assert dead_names(tmp_path) == {"a: os", "a.f: z", "a.f: w"}

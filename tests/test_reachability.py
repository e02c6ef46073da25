"""Everything the package defines is reachable from the package itself.

A top-level function or class of `src/hopfadjoint` must be named
somewhere in the package outside its own body and outside
`__init__.py`; a non-dunder method must be read as an attribute
somewhere outside its own body.  Code that only the tests call belongs
in `tests/support.py`, not in the package.  The scan is by name, so it
finds a dead definition once nothing else spells its name.  One scan
pins the package's vector format: `dense` is called only inside a
`to_jsonable`, so every other vector stays a term list; another pins
the format of the solved maps: `hom_columns`, which spreads abar over the
Hom-space, is read only inside a `to_jsonable`.  The last scan
checks the other direction for the benchmark: every package name that
`perfbench/` reads must exist."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import hopfadjoint

PACKAGE = Path(hopfadjoint.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# qualified name -> why it stays although no package code reads it
ALLOWED = {
    "Matrix.entries": "perfbench/run.py's traced nonzero count reads it",
    "condition_system": "the tests' full oracle; perfbench/run.py's LAYERS traces it, and Tracer.install "
                        "reads every name there with no default",
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


# The format scans: inside the package a vector is a term list, and a
# dense list is built only for a field that the JSON writes; a map of the
# solved algebra is abar, and it is spread over the Hom-space only for the
# JSON basis.

def reads_outside_serialisers(package: Path, name: str) -> set[str]:
    """"module:line" for each read of name, bare or as an attribute, that
    lies outside the body of every function named `to_jsonable`."""
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(sub) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "to_jsonable" for sub in ast.walk(node)}
        found |= {f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in inside
                  and (isinstance(node, ast.Name) and node.id == name
                       or isinstance(node, ast.Attribute) and node.attr == name)}
    return found


def test_dense_vectors_are_built_only_in_to_jsonable():
    assert reads_outside_serialisers(PACKAGE, "dense") == set(), "keep the vector a term list; densify in to_jsonable"


def test_hom_space_views_are_built_only_in_to_jsonable():
    assert reads_outside_serialisers(PACKAGE, "hom_columns") == set(), \
        "re-check and compute on abar (bar_terms); spread it over the Hom-space only in to_jsonable"


def test_scan_sees_a_dense_call_outside_to_jsonable(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import linalg\nfrom .linalg import dense\n\n\n"
        "class A:\n    def to_jsonable(self):\n        return [dense(1, 2, []), linalg.dense(1, 2, [])]\n\n"
        "    def unit(self):\n        return dense(1, 2, [])\n\n\n"
        "def f():\n    return linalg.dense(1, 2, [])\n")
    assert reads_outside_serialisers(tmp_path, "dense") == {"a:10", "a:14"}


def test_scan_sees_a_hom_columns_read_outside_to_jsonable(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n    def hom_columns(self, i):\n        return []\n\n"
        "    def to_jsonable(self):\n        return list(map(self.hom_columns, range(2)))\n\n\n"
        "def f(alg):\n    views = [alg.hom_columns(i) for i in range(alg.dim)]\n"
        "    return views, map(alg.hom_columns, range(2))\n")
    assert reads_outside_serialisers(tmp_path, "hom_columns") == {"a:10", "a:11"}


# The names the benchmark reads: perfbench/ runs the package from outside,
# and its traced runs rebind names with getattr and no default, so a
# removed name breaks every traced run.  perfbench's own tests would
# notice, but they are slow and outside testpaths; this scan is the
# tier-1 guard.

def _module_aliases(tree) -> dict[str, str]:
    """Local name -> package module, for `import hopfadjoint`,
    `from hopfadjoint import <module>` and
    `<name> = importlib.import_module("hopfadjoint.<module>")`."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {alias.asname or alias.name: alias.name for alias in node.names
                        if alias.name == "hopfadjoint"}
        elif isinstance(node, ast.ImportFrom) and node.module == "hopfadjoint":
            aliases |= {alias.asname or alias.name: f"hopfadjoint.{alias.name}" for alias in node.names
                        if (PACKAGE / f"{alias.name}.py").exists()}
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Attribute) and node.value.func.attr == "import_module"
              and node.value.args and isinstance(node.value.args[0], ast.Constant)
              and str(node.value.args[0].value).startswith("hopfadjoint")):
            aliases |= {target.id: node.value.args[0].value for target in node.targets
                        if isinstance(target, ast.Name)}
    return aliases


def _dotted(node, aliases) -> tuple[str, str] | None:
    """(module, attribute path) of an attribute chain on a module alias,
    the path "" for the module itself; None for anything else."""
    path = []
    while isinstance(node, ast.Attribute):
        path.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in aliases:
        return aliases[node.id], ".".join(reversed(path))
    return None


def benchmark_names(bench: Path) -> set[tuple[str, str]]:
    """(module, attribute path) for each package name that the scripts in
    bench read: attribute reads of package modules, the (metric, owner,
    "attribute") triples of LAYERS and the names of
    `from hopfadjoint... import`."""
    names = set()
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (name := _dotted(node, aliases)) is not None:
                names.add(name)
            elif (isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("hopfadjoint")
                  and node.level == 0):
                names |= {(node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                                                      for t in node.targets):
                for layer in node.value.elts:
                    owner, attr = layer.elts[1], layer.elts[2].value
                    module, owner_path = _dotted(owner, aliases)
                    names.add((module, f"{owner_path}.{attr}" if owner_path else attr))
    return names


def _resolves(module: str, path: str) -> bool:
    obj = importlib.import_module(module)
    for part in filter(None, path.split(".")):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_names_the_benchmark_reads_exist():
    # Matrix.entries is read on a matrix, not through a module
    names = benchmark_names(PERFBENCH) | {("hopfadjoint.linalg", "Matrix.entries")}
    assert {("hopfadjoint.adjoint", "condition_system"),
            ("hopfadjoint.adjoint", "AdjointAlgebra.compute_structure")} <= names
    assert {f"{module}: {path}" for module, path in names if not _resolves(module, path)} == set()


def test_scan_sees_the_names_a_benchmark_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "import importlib\nimport hopfadjoint\nfrom hopfadjoint import adjoint, cli_main\n"
        "from hopfadjoint.cyclotomic import make_field\n"
        "braiding = importlib.import_module('hopfadjoint.braiding')\n"
        "LAYERS = (('x', adjoint, 'gone'), ('y', adjoint.AdjointAlgebra, 'compute_structure'))\n"
        "hopfadjoint.__file__\nbraiding.check_yd\nother.ignored\n")
    names = benchmark_names(tmp_path)
    assert names == {("hopfadjoint.adjoint", "gone"), ("hopfadjoint.adjoint", "AdjointAlgebra"),
                     ("hopfadjoint.adjoint", "AdjointAlgebra.compute_structure"),
                     ("hopfadjoint", "cli_main"), ("hopfadjoint", "adjoint"),
                     ("hopfadjoint.cyclotomic", "make_field"), ("hopfadjoint", "__file__"),
                     ("hopfadjoint.braiding", "check_yd")}
    assert [name for name in sorted(names) if not _resolves(*name)] == [("hopfadjoint.adjoint", "gone")]

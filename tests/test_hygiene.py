"""Dead-code and layering checks on the package source, built on the
standard library's ast.

Every module of src/nctorus/ other than __init__.py (which re-exports) uses
each name it imports, every module-level _private function, class or
constant is referenced somewhere in src/ outside its own definition, and
only the command line imports the oracle, so that the reference
implementations stay references.  A cold import of the command line and
the modules it runs loads neither dataclasses (nor the inspect module it
pulls in) nor numpy, which loads on first use.  Every record names its
fields once, in __slots__ = _fields, and only the records that check or
coerce their input write their own constructor.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import nctorus

PACKAGE = Path(nctorus.__file__).parent


def loaded_names(node: ast.AST) -> set[str]:
    """Names read under node: bare names, attributes and names imported from a module."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


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
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def defined_privates(stmt: ast.stmt) -> list[str]:
    """The _private names, not dunders, that a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """module:name for each _private top-level definition used by no other statement."""
    stmts = [(module, stmt) for module, source in sources.items()
             for stmt in ast.parse(source).body]
    uses = [loaded_names(stmt) for _, stmt in stmts]
    dead = []
    for i, (module, stmt) in enumerate(stmts):
        for name in defined_privates(stmt):
            if not any(name in names for j, names in enumerate(uses) if j != i):
                dead.append(f"{module}:{name}")
    return dead


def imports_module(source: str, name: str) -> bool:
    """Whether the source imports a module whose last dotted part is name,
    or a name from it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any(module.split(".")[-1] == name for module in modules):
            return True
    return False


def imports_oracle(source: str) -> bool:
    """Whether the source imports the oracle module or a name from it."""
    return imports_module(source, "oracle")


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_modules_use_their_imports():
    found = {module: unused_imports(source) for module, source in package_sources().items()
             if module != "__init__.py"}
    assert {module: names for module, names in found.items() if names} == {}


def test_private_definitions_are_referenced():
    assert unreferenced_privates(package_sources()) == []


def test_checks_see_dead_code():
    source = (
        "import os\n"
        "from math import gcd, lcm\n"
        "_USED = 1\n"
        "_DEAD = 2\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else lcm(_USED, 2)\n"
    )
    assert unused_imports(source) == ["gcd (line 2)", "os (line 1)"]
    assert unreferenced_privates({"m.py": source}) == ["m.py:_DEAD", "m.py:_recursive"]
    assert unreferenced_privates({"m.py": source, "n.py": "from .m import _DEAD\n"}) == [
        "m.py:_recursive"]


def test_only_the_command_line_imports_the_oracle():
    assert [module for module, source in package_sources().items()
            if module != "cli.py" and imports_oracle(source)] == []


def test_oracle_check_sees_each_import_form():
    for source in ("from .oracle import brute_n0\n", "from . import oracle\n",
                   "import nctorus.oracle\n", "from nctorus import algebra, oracle\n",
                   "def f():\n    from nctorus.oracle import gram_psd\n"):
        assert imports_oracle(source), source
    assert not imports_oracle("from .states import evaluate\nORACLE = 'oracle'\n")


def test_no_module_imports_dataclasses():
    assert [module for module, source in package_sources().items()
            if imports_module(source, "dataclasses")] == []
    for source in ("import dataclasses\n", "from dataclasses import dataclass\n",
                   "def f():\n    import dataclasses as dc\n"):
        assert imports_module(source, "dataclasses"), source
    assert not imports_module("DATACLASSES = 'dataclasses'\n", "dataclasses")


def test_cold_import_loads_no_dataclasses_inspect_or_numpy():
    code = ("import sys\n"
            "import nctorus.cli, nctorus.states, nctorus.symmetry, nctorus.expr, nctorus.oracle\n"
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'numpy') if m in sys.modules))\n")
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


# The records that keep their own __init__, and why
OWN_INIT = {
    "QQi": "coerces ints to Fractions without a binding step on the arithmetic path",
    "TableMap": "refuses an empty window or values that do not increase strictly",
    "_BlockFamily": "refuses a negative half width or a base that is not shift invariant",
    "MixtureState": "coerces the weights to Fractions and refuses any that do not sum to 1",
}


def record_classes() -> list[type]:
    """Every _Record subclass defined in the package, with every module imported."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"nctorus.{path.stem}")
    from nctorus.deformation import _Record

    found, todo = [], [_Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("nctorus.") and cls not in found:
                found.append(cls)
                todo.append(cls)
    return found


def test_records_name_each_field_once():
    classes = record_classes()
    assert {"QQi", "PsdVerdict", "CesaroState", "_Token"} <= {c.__name__ for c in classes}
    assert [c.__name__ for c in classes
            if "_fields" in c.__dict__ and c.__dict__.get("__slots__") != c._fields] == []
    assert sorted(c.__name__ for c in classes if "__init__" in c.__dict__) == sorted(OWN_INIT)


def setattr_sites(source: str) -> list[str]:
    """Where the source reads object.__setattr__: Class.member within a class,
    else the top-level name."""
    out = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            members = [(f"{top.name}.", stmt) for stmt in top.body]
        else:
            members = [("", top)]
        for prefix, stmt in members:
            if any(isinstance(sub, ast.Attribute) and sub.attr == "__setattr__"
                   and isinstance(sub.value, ast.Name) and sub.value.id == "object"
                   for sub in ast.walk(stmt)):
                name = getattr(stmt, "name", None) or ast.unparse(stmt).split(" =")[0]
                out.append(prefix + name)
    return out


def test_only_the_record_constructors_set_fields_by_hand():
    sites = [site for source in package_sources().values() for site in setattr_sites(source)]
    assert sorted(sites) == ["PsdVerdict.__setattr__", "QQi.__init__", "_Record.__init__"]
    source = ("class A:\n    __setattr__ = object.__setattr__\n"
              "    def f(self):\n        object.__setattr__(self, 'x', 1)\n"
              "def g(x):\n    set_ = object.__setattr__\n"
              "H = object.__setattr__\nI = setattr\n")
    assert setattr_sites(source) == ["A.__setattr__", "A.f", "g", "H"]

"""Dead-code and layering checks on the package source, built on the
standard library's ast.

Every module of src/nctorus/ other than __init__.py (which re-exports) uses
each name it imports, every module-level _private function, class or
constant is referenced somewhere in src/ outside its own definition, and
only the command line imports the oracle, so that the reference
implementations stay references.  A cold import of the command line and
the modules it runs loads neither dataclasses (nor the inspect module it
pulls in) nor numpy, which loads on first use.
"""

import ast
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

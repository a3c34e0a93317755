"""tools/unexecuted.py lists the package statements a pytest run never executes."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "unexecuted.py"

CALLS = '''
from nctorus import factorize


def test_factorize():
    assert factorize(12) == ((2, 2), (3, 1))
'''


def function(name):
    tree = ast.parse((ROOT / "src" / "nctorus" / "deformation.py").read_text())
    [node] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


def statement_lines(node):
    """First lines of the statements in a function body, its docstring left out."""
    body = node.body[1:] if ast.get_docstring(node) else node.body
    return {sub.lineno for stmt in body for sub in ast.walk(stmt) if isinstance(sub, ast.stmt)}


def test_lists_only_the_statements_the_run_skips(tmp_path):
    (tmp_path / "test_calls.py").write_text(CALLS)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(TOOL), "--", "-q", "-p", "no:cacheprovider",
                           "test_calls.py"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    found = re.findall(r"^nctorus/(\w+\.py):(\d+): ", done.stdout, re.MULTILINE)
    listed = {int(line) for module, line in found if module == "deformation.py"}

    assert statement_lines(function("isotropy_generator_table")) <= listed
    # factorize ran, all but its refusal of a nonpositive argument
    factorize = function("factorize")
    refusal = {n.lineno for n in ast.walk(factorize) if isinstance(n, ast.Raise)}
    assert statement_lines(factorize) & listed == refusal
    assert "nctorus/cli.py: never imported" in done.stdout.splitlines()
    assert done.stdout.splitlines()[-1] == f"{len(found)} statements unexecuted"

"""List the statements of the nctorus package that a pytest run never executes.

    python tools/unexecuted.py -- <pytest args>

The tool locates the nctorus package on the path without importing it, sets
a sys.settrace hook that records the line events of frames in the package's
files, and runs pytest in this process.  After the run it prints, for each
module the run imported, the statements none of whose lines ran, as
`nctorus/<module>.py:<line>: <first line of the statement>`, then one line
per module that was never imported, then a count.  A statement counts once
with its own lines: its header (decorators included) for a compound
statement, every line for a simple one; statements that compile to no code,
such as docstrings, are left out.  Children the tests start with
`python -m ...` are not traced.  The exit code is pytest's.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import threading
import types

_BODIES = ("body", "orelse", "finalbody", "handlers", "cases")


def executable_lines(code: types.CodeType) -> set[int]:
    """Lines that code, or a code object nested in it, has instructions on."""
    lines, stack = set(), [code]
    while stack:
        c = stack.pop()
        lines.update(line for _, _, line in c.co_lines() if line is not None)
        stack.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return lines


def _span(node) -> set[int]:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return set(range(first, node.end_lineno + 1))


def statements(source: str, filename: str) -> list[tuple[int, set[int]]]:
    """(first line, own executable lines) of each statement that compiles to code.

    A statement's own lines are its span less the spans of the statements
    nested in its bodies (except handlers and match cases included).
    """
    executable = executable_lines(compile(source, filename, "exec"))
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.stmt):
            continue
        own = _span(node)
        for field in _BODIES:
            for child in getattr(node, field, ()):
                for sub in [child] if isinstance(child, ast.stmt) else child.body:
                    own -= _span(sub)
        own &= executable
        if own:
            out.append((min(_span(node)), own))
    return sorted(out, key=lambda s: s[0])


class LineTracer:
    """Records the line events of the frames whose code lives under a directory.

    Each such file gets a bytearray with one byte per line and one line hook
    that sets its bytes, both made at the file's first frame, so recording a
    line allocates nothing that outlives it (a tracemalloc peak reads about
    the same as in an untraced run).
    """

    def __init__(self, directory: str):
        self.prefix = os.path.join(os.path.realpath(directory), "")
        self.hits: dict[str, bytearray] = {}  # path -> 1 at each line that ran
        self._hooks: dict[str, object] = {}  # co_filename -> its line hook or None

    def _hook(self, filename: str):
        path = os.path.realpath(filename)
        if not path.startswith(self.prefix):
            return None
        if path not in self.hits:
            with open(path, "rb") as f:
                self.hits[path] = bytearray(f.read().count(b"\n") + 2)
        ran = self.hits[path]

        def local(frame, event, arg):
            if event == "line":
                ran[frame.f_lineno] = 1
            return local

        return local

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._hooks:
            self._hooks[filename] = self._hook(filename)
        return self._hooks[filename]

    def __enter__(self):
        threading.settrace(self.trace)
        sys.settrace(self.trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def report(directory: str, hits: dict[str, bytearray], imported: set[str]) -> list[str]:
    """The unexecuted statements of each imported module, then the modules never imported."""
    lines, never = [], []
    package = os.path.basename(directory)
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(directory, name))
        if path not in imported:
            never.append(f"{package}/{name}: never imported")
            continue
        with open(path, encoding="utf-8") as f:
            source = f.read()
        text = source.splitlines()
        ran = hits.get(path, bytearray(len(text) + 2))
        for first, own in statements(source, path):
            if not any(ran[line] for line in own):
                lines.append(f"{package}/{name}:{first}: {text[first - 1].strip()}")
    return lines + never + [f"{len(lines)} statements unexecuted"]


def main(argv: list[str]) -> int:
    if not argv or argv[0] != "--":
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: unexecuted.py -- <pytest args>", file=sys.stderr)
        return 2
    import pytest

    spec = importlib.util.find_spec("nctorus")
    if spec is None or not spec.submodule_search_locations:
        print("error: the nctorus package is not on the path", file=sys.stderr)
        return 2
    directory = spec.submodule_search_locations[0]
    with LineTracer(directory) as tracer:
        code = int(pytest.main(argv[1:]))
    imported = {os.path.realpath(m.__file__) for m in list(sys.modules.values())
                if getattr(m, "__file__", None)}
    print("\n".join(report(directory, tracer.hits, imported)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

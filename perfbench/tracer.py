"""Per-layer tracing by rebinding public functions from outside the package.

Each traced function is replaced, on its defining module or class and on
every nctorus module that imported a copy of it, by a wrapper that times
the call.  A parent stack of child-time accumulators makes self time exact:
a call's self time is its duration minus the durations of the traced calls
nested inside it.  Only per-name aggregates are kept, because the symmetry
workload makes tens of millions of calls.
"""

from __future__ import annotations

import sys
from time import perf_counter


class Span:
    """Aggregate of every call recorded under one name."""

    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0


class Tracer:
    """Installs timing wrappers; use as a context manager around traced work.

    targets: (owner, attribute, name, tag, extra) tuples.  owner is a module
    or class, tag maps the call's arguments to a suffix of the name (or is
    None), and extra maps (arguments, result) to a count added to the span's
    `extra` field (or is None).
    """

    def __init__(self, targets, modules):
        self.targets = targets
        self.modules = modules
        self.spans: dict[str, Span] = {}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str) -> Span:
        s = self.spans.get(name)
        if s is None:
            s = self.spans[name] = Span()
        return s

    def _wrap(self, fn, name, tag, extra):
        stack = self._stack
        span = self.span
        fixed = None if tag is not None else span(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                s = fixed if fixed is not None else span(f"{name}.{tag(args)}")
                s.calls += 1
                s.self_s += dt - child
            if extra is not None:
                s.extra += extra(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def __enter__(self):
        for owner, attr, name, tag, extra in self.targets:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, tag, extra)
            # rebind every alias: imported copies in other modules and
            # class-level aliases such as __rmul__ = __mul__
            holders = list(self.modules) + [owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)
        return False


def nctorus_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "nctorus" or n.startswith("nctorus.")]

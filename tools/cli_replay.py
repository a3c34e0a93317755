"""Record the nctorus.cli.main calls a pytest run makes, and replay them.

    python tools/cli_replay.py record LOG -- <pytest args>
    python tools/cli_replay.py replay LOG

record runs pytest in this process with a plugin that wraps nctorus.cli.main
in pytest_configure, before the test modules import it.  Each call appends
one JSON line to LOG: the argv, the bytes of every argument that names a
file, stdout, stderr and the exit code.  replay reruns each call in a fresh
temporary directory, against whichever nctorus is on the path, and lists
the calls whose stdout, stderr or exit code differ; it exits 1 if any do.
main prints each warning as a stderr line, so warnings are compared too.
Recording at one commit and replaying at another shows whether a change
keeps the CLI's output byte-identical.  Children the tests start with
`python -m nctorus.cli` are not recorded.
"""

from __future__ import annotations

import base64
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout


def _run(main, argv):
    """main(argv) with its output captured: (stdout, stderr, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


class Recorder:
    """pytest plugin: logs every nctorus.cli.main call to an open file."""

    def __init__(self, log):
        self.log = log

    def pytest_configure(self, config):
        import nctorus.cli as cli

        self.cli, self.main = cli, cli.main

        def recorded(argv=None):
            argv = [str(a) for a in (sys.argv[1:] if argv is None else argv)]
            files = {}
            for a in argv:
                if os.path.isfile(a):
                    with open(a, "rb") as f:
                        files[a] = base64.b64encode(f.read()).decode("ascii")
            stdout, stderr, code = _run(self.main, argv)
            sys.stdout.write(stdout)
            sys.stderr.write(stderr)
            self.log.write(json.dumps({"argv": argv, "files": files, "stdout": stdout,
                                       "stderr": stderr, "code": code}) + "\n")
            return code

        cli.main = recorded

    def pytest_unconfigure(self, config):
        self.cli.main = self.main


def record(log_path: str, pytest_args: list[str]) -> int:
    import pytest

    with open(log_path, "w", encoding="utf-8") as log:
        return int(pytest.main(pytest_args, plugins=[Recorder(log)]))


def replay_call(main, call: dict, workdir: str) -> list[str]:
    """Rerun one logged call in workdir; the names of the outputs that differ.

    Each file argument is written afresh under workdir and the argv points
    at the copy; the copy's path reads back as the logged one in the output.
    """
    argv, renames = list(call["argv"]), {}
    for k, (path, data) in enumerate(call["files"].items()):
        copy = os.path.join(workdir, str(k), os.path.basename(path))
        os.makedirs(os.path.dirname(copy))
        with open(copy, "wb") as f:
            f.write(base64.b64decode(data))
        argv = [copy if a == path else a for a in argv]
        renames[copy] = path
    stdout, stderr, code = _run(main, argv)
    for copy, path in renames.items():
        stdout, stderr = stdout.replace(copy, path), stderr.replace(copy, path)
    got = {"stdout": stdout, "stderr": stderr, "code": code}
    return [name for name, value in got.items() if value != call[name]]


def replay(log_path: str) -> int:
    from nctorus.cli import main

    with open(log_path, encoding="utf-8") as log:
        calls = [json.loads(line) for line in log]
    differing = 0
    for n, call in enumerate(calls, 1):
        with tempfile.TemporaryDirectory() as workdir:
            diff = replay_call(main, call, workdir)
        if diff:
            differing += 1
            print(f"call {n}: {' '.join(call['argv'])}: {', '.join(diff)} differ")
    print(f"{len(calls)} calls replayed, {differing} differ")
    return 1 if differing else 0


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "record" and argv[2] == "--":
        return record(argv[1], argv[3:])
    if len(argv) == 2 and argv[0] == "replay":
        return replay(argv[1])
    print(__doc__.strip().splitlines()[0], file=sys.stderr)
    print("usage: cli_replay.py record LOG -- <pytest args> | replay LOG", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

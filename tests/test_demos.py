"""The demos run end to end and print exactly the text kept in demo_stdout/."""

import os
import subprocess
import sys

import pytest

import nctorus

TESTS = os.path.dirname(os.path.abspath(__file__))
DEMOS = os.path.join(os.path.dirname(TESTS), "demos")
NAMES = sorted(name[:-3] for name in os.listdir(DEMOS) if name.endswith(".py"))


def test_every_demo_has_kept_output():
    assert NAMES == sorted(name[:-4] for name in os.listdir(os.path.join(TESTS, "demo_stdout")))


@pytest.mark.parametrize("name", NAMES)
def test_demo_stdout(name):
    src = os.path.dirname(os.path.dirname(nctorus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, os.path.join(DEMOS, f"{name}.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    with open(os.path.join(TESTS, "demo_stdout", f"{name}.txt"), encoding="utf-8") as f:
        assert done.stdout == f.read()

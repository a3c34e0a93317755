"""tools/cli_replay.py records cli.main calls under pytest and replays them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_replay.py"

CALLS = '''
import json

from nctorus.cli import main


def test_three_calls(tmp_path):
    state = tmp_path / "block.json"
    state.write_text(json.dumps({"kind": "block", "n": 1, "base": {"kind": "mixture", "parts": [
        ["1/2", {"kind": "product", "moments": [[2, "1/2", 0]]}],
        ["1/2", {"kind": "product", "moments": []}]]}}))
    assert main(["normal-form", "--alpha", "1/2", "u[1]*u[0]"]) == 0
    assert main(["check", "stationary", "--alpha", "1/2", "--state", str(state),
                 "--max-factors", "2", "--max-index", "1", "--trials", "0"]) == 1
    assert main(["eval", "--alpha", "1/0", "--state", str(state), "1"]) == 2
'''


def run_tool(*args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_recorded_calls_replay_without_difference(tmp_path):
    (tmp_path / "test_calls.py").write_text(CALLS)
    log = tmp_path / "calls.jsonl"
    done = run_tool("record", str(log), "--", "-q", "-p", "no:cacheprovider",
                    "test_calls.py", cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    assert [c["code"] for c in calls] == [0, 1, 2]
    assert calls[0]["stdout"] == "input: u[1]*u[0]\nnormal form: -1*u[0]*u[1]\n"
    assert "witness word: u[-1]^-2*u[1]^-2" in calls[1]["stdout"]
    assert calls[2]["stderr"].startswith("error: bad deformation parameter")
    assert [len(c["files"]) for c in calls] == [0, 1, 1]

    # replay writes the logged bytes of the state file afresh
    for path in calls[1]["files"]:
        os.remove(path)
    done = run_tool("replay", str(log), cwd=tmp_path)
    assert (done.returncode, done.stdout) == (0, "3 calls replayed, 0 differ\n")

    calls[1]["stdout"] = calls[1]["stdout"].replace("1/16", "1/8")
    log.write_text("".join(json.dumps(c) + "\n" for c in calls))
    done = run_tool("replay", str(log), cwd=tmp_path)
    assert done.returncode == 1
    assert done.stdout.splitlines()[-2:] == [
        f"call 2: {' '.join(calls[1]['argv'])}: stdout differ", "3 calls replayed, 1 differ"]

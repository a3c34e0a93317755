"""tools/ab.py runs a stub benchmark on two commits of a throwaway repository,
and its verdicts follow the paired protocol."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "end_to_end": [
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
        {"name": "work_per_s", "unit": "1/s", "better": "higher"},
    ],
}

# reads its commit's VALUE and reports what the run saw of its surroundings
STUB = '''
import json, os, sys
args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
value = float(open("VALUE").read())
print(json.dumps({"report": {"stamp": {"commit": "unknown", "seed": seed, "cpu": "stub"}}}))
print(json.dumps({
    "correct": True, "attempted": 3, "failed": 0,
    "metrics": {"peak_rss_mb": {"value": value + seed / 100, "unit": "MB"},
                "work_per_s": {"value": 100 - value, "unit": "1/s"}},
    "argv": args, "cwd": os.getcwd(),
    "bytecode_off": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    "pycache": os.path.isdir(os.path.join("perfbench", "__pycache__")),
}))
'''


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=repo, check=True, capture_output=True, timeout=60)


def make_repo(path: Path) -> Path:
    """Two commits: VALUE 20 (tagged base), then VALUE 18 with a stray __pycache__."""
    (path / "perfbench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (path / "perfbench" / "run.py").write_text(STUB)
    (path / "VALUE").write_text("20")
    git(path, "init", "-q")
    git(path, "add", "-A")
    git(path, "commit", "-q", "-m", "base")
    git(path, "tag", "base")
    (path / "VALUE").write_text("18")
    (path / "perfbench" / "__pycache__").mkdir()
    (path / "perfbench" / "__pycache__" / "run.cpython.pyc").write_text("")
    git(path, "add", "-A", "-f")
    git(path, "commit", "-q", "-m", "change")
    return path


def run_tool(*args, cwd):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def test_pairs_alternate_and_the_change_wins(tmp_path):
    repo = make_repo(tmp_path / "repo")
    out = tmp_path / "ab.json"
    done = run_tool("--base", "base", "--workload", "w", "--pairs", "3",
                    "--seeds", "5-6", "9", "--seconds", "0.5", "--out", str(out), cwd=repo)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert report["command"] == ("python3 tools/ab.py --base base --workload w --pairs 3 "
                                 "--seeds 5-6 9 --seconds 0.5 --out " + str(out))
    head = subprocess.run(["git", "rev-parse", "HEAD", "base"], cwd=repo, text=True,
                          capture_output=True, check=True).stdout.split()
    assert [report["change"]["commit"], report["base"]["commit"]] == head
    assert report["machine"] == {"cpu": "stub"}
    runs = report["runs"]
    assert [(r["pair"], r["seed"], r["side"]) for r in runs] == [
        (0, 5, "base"), (0, 5, "change"), (1, 6, "change"), (1, 6, "base"),
        (2, 9, "base"), (2, 9, "change")]
    for r in runs:
        result = r["result"]
        assert result["argv"] == ["--workload", "w", "--seed", str(r["seed"]),
                                  "--seconds", "0.5", "--trace", "0"]
        assert result["bytecode_off"] == "1" and not result["pycache"]
        assert not Path(result["cwd"]).is_relative_to(repo)
    rss = report["summary"]["peak_rss_mb"]
    assert rss["pairs"] == [[20.05, 18.05], [20.06, 18.06], [20.09, 18.09]]
    assert rss["base_median"] == 20.06 and rss["change_median"] == 18.06
    assert rss["change_won"] == "3/3" and rss["verdict"] == "better"
    work = report["summary"]["work_per_s"]
    assert work["change_won"] == "3/3" and work["verdict"] == "better"
    assert report["operations"]["change"] == {"attempted": 9, "failed": 0, "runs_failed": 0}


def test_a_a_control_resolves_nothing(tmp_path):
    repo = make_repo(tmp_path / "repo")
    out = tmp_path / "aa.json"
    done = run_tool("--base", "HEAD", "--workload", "w", "--pairs", "2",
                    "--seconds", "1", "--out", str(out), cwd=repo)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert report["base"]["commit"] == report["change"]["commit"]
    assert [r["seed"] for r in report["runs"]] == [1, 1, 2, 2]
    rss = report["summary"]["peak_rss_mb"]
    assert rss["change_won"] == "0/2" and rss["verdict"].startswith("unresolved")


def test_refusals_exit_2(tmp_path):
    repo = make_repo(tmp_path / "repo")
    out = tmp_path / "x.json"
    for args, message in [
        (["--base", "base", "--pairs", "0"], "--pairs must be at least 1"),
        (["--base", "no-such-rev", "--pairs", "1"], "unknown revision 'no-such-rev'"),
        (["--base", "base", "--pairs", "2", "--seeds", "1"], "1 seeds for 2 pairs"),
    ]:
        done = run_tool(*args, "--workload", "w", "--out", str(out), cwd=repo)
        assert done.returncode == 2 and message in done.stderr, (args, done.stderr)
    assert not out.exists()


def verdict(base, change, better="lower"):
    """summarize's entry for one metric measured on pairs (base[i], change[i])."""
    runs = [{"pair": i, "side": side, "result": {"metrics": {"m": {"value": value}}}}
            for i, pair in enumerate(zip(base, change)) for side, value in zip(ab.SIDES, pair)]
    return ab.summarize(runs, [{"name": "m", "better": better}])["m"]


def test_verdicts_need_the_median_beyond_the_iqr_and_9_of_10_pairs():
    base = list(range(10, 20))  # median 14.5, quartiles 12.25 and 16.75
    assert verdict(base, base)["verdict"] == "unresolved: inside the base's IQR"
    lower = [b - 5 for b in base]
    s = verdict(base, lower)
    assert (s["base_iqr"], s["change_median"]) == (4.5, 9.5)
    assert (s["change_won"], s["change_lost"], s["verdict"]) == ("10/10", "0/10", "better")
    assert verdict(base, lower, better="higher")["verdict"] == "worse"
    assert verdict(base, [b + 5 for b in base])["verdict"] == "worse"
    assert verdict(base, lower[:9] + [20])["verdict"] == "better"  # 9 of 10 pairs
    s = verdict(base, lower[:8] + [19, 20])  # the median still moves by 5
    assert s["change_median"] == 9.5
    assert s["verdict"] == "unresolved: won 8, lost 2 of 10 pairs"
    s = verdict(base, [b + 7 for b in base[:8]] + [0, 1])  # median 19.5
    assert s["verdict"] == "unresolved: won 2, lost 8 of 10 pairs"
    assert verdict(base[:3], [b - 5 for b in base[:3]])["verdict"] == "better"
    assert verdict(base[:5], [1, 2, 3, 4, 99])["verdict"] == "unresolved: won 4, lost 1 of 5 pairs"

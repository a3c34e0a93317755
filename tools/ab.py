"""Paired A/B runs of the benchmark: two commits, alternating, one JSON file.

    python tools/ab.py --base REV [--change REV] --workload W --pairs N \
        [--seeds S ...] [--seconds T] --out BENCH_x.json

Run it from inside a git checkout of the repository.  Both commits (the
change defaults to HEAD) are exported with `git archive` into a temporary
directory outside the repository, so both sides are the same kind of
checkout.  Pair i runs seed i of the benchmark command from BENCHMARK.json
(`perfbench/run.py --workload W --seed S --seconds T --trace 0`) once in
each export, with no __pycache__ and PYTHONDONTWRITEBYTECODE=1; even pairs
run the base first, odd pairs the change first.  The number of pairs and
the seeds are fixed before the first run: the seeds are N integers or
ranges A-B (default 1..N).

The output holds, for every end-to-end metric of BENCHMARK.json, the
per-pair values, each side's median and quartiles
(statistics.quantiles(n=4, method="inclusive")), the pairs the change won
and lost in the metric's `better` direction, and a verdict.  The verdict
is "better" (or "worse") only when the change's median moves that way by
more than the base's interquartile range and the change wins (or loses)
at least 9 of every 10 pairs; anything else is "unresolved".  It also
holds both commits, the exact command and every run's result.  `--base HEAD` with the
default change is the A/A control.  Exit codes: 0 when every run
completed, 1 when a run failed, 2 for bad input (no pairs, an unknown
revision, seeds that do not number the pairs, no directory for the output).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("base", "change")


class Refusal(Exception):
    """Input the tool cannot run: exit code 2."""


def git(repo: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", repo, *args], capture_output=True, timeout=120)


def resolve(repo: str, rev: str) -> str:
    done = git(repo, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    if done.returncode != 0:
        raise Refusal(f"unknown revision {rev!r}")
    return done.stdout.decode().strip()


def export(repo: str, commit: str, dest: str) -> None:
    """The committed files of commit, extracted into dest."""
    done = git(repo, "archive", "--format=tar", commit)
    if done.returncode != 0:
        raise Refusal(f"git archive {commit} failed: {done.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **safe)


def parse_seeds(tokens: list[str] | None, pairs: int) -> list[int]:
    if not tokens:
        return list(range(1, pairs + 1))
    seeds = []
    for token in tokens:
        lo, sep, hi = token.partition("-") if not token.startswith("-") else (token, "", "")
        try:
            seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(token)])
        except ValueError:
            raise Refusal(f"bad seed {token!r}: expected an integer or a range A-B") from None
    if len(seeds) != pairs:
        raise Refusal(f"{len(seeds)} seeds for {pairs} pairs; give one seed per pair")
    return seeds


def strip_bytecode(root: str) -> None:
    for here, dirs, _ in os.walk(root):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(here, "__pycache__"))
            dirs.remove("__pycache__")


def benchmark_command(root: str) -> tuple[list[str], list[dict]]:
    """The run command and the end-to-end metrics declared in root's
    BENCHMARK.json."""
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        command, metrics = list(spec["command"]), list(spec["end_to_end"])
    except (OSError, ValueError, KeyError) as exc:
        raise Refusal(f"no usable BENCHMARK.json in the change: {exc}") from None
    return command, metrics


def run_side(root: str, command: list[str], workload: str, seed: int,
             seconds: float) -> tuple[dict, dict | None]:
    """One benchmark run in root, by this interpreter: its last stdout line
    as JSON (or an error), and the stamp of the report line before it."""
    strip_bytecode(root)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if command and os.path.basename(command[0]).startswith("python"):
        command = [sys.executable, *command[1:]]
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return {"error": f"last line is not JSON: {lines[-1][:200]}"}, None
    try:
        stamp = json.loads(lines[-2])["report"]["stamp"]
    except (IndexError, ValueError, TypeError, KeyError):
        stamp = None
    return result, stamp


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]] if values else []
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric pair values, medians, quartiles, pairs won and lost, and
    verdict, over the pairs whose two runs both completed."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    complete = [sides for _, sides in sorted(by_pair.items())
                if all("error" not in sides.get(s, {"error": 1}) for s in SIDES)]
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric.get("better", "lower") == "lower"
        pairs = [[sides[s]["metrics"][name]["value"] for s in SIDES] for sides in complete
                 if all(name in sides[s].get("metrics", {}) for s in SIDES)]
        if not pairs:
            out[name] = {"pairs": [], "verdict": "no complete pair"}
            continue
        base, change = [p[0] for p in pairs], [p[1] for p in pairs]
        won = sum((c < b) if lower else (c > b) for b, c in pairs)
        lost = sum((c > b) if lower else (c < b) for b, c in pairs)
        q_base = quartiles(base)
        b_med, c_med = statistics.median(base), statistics.median(change)
        iqr = q_base[1] - q_base[0]
        improved = (c_med < b_med) == lower
        if abs(c_med - b_med) <= iqr:
            verdict = "unresolved: inside the base's IQR"
        elif 10 * (won if improved else lost) < 9 * len(pairs):
            verdict = f"unresolved: won {won}, lost {lost} of {len(pairs)} pairs"
        else:
            verdict = "better" if improved else "worse"
        out[name] = {
            "unit": metric.get("unit"), "better": metric.get("better"),
            "pairs": pairs,
            "base_median": b_med, "base_quartiles": q_base, "base_iqr": iqr,
            "change_median": c_med, "change_quartiles": quartiles(change),
            "change_over_base": c_med / b_med if b_med else None,
            "change_won": f"{won}/{len(pairs)}", "change_lost": f"{lost}/{len(pairs)}",
            "verdict": verdict,
        }
    return out


def operations(runs: list[dict]) -> dict:
    """Per side: operations attempted and failed, and runs that failed."""
    out = {}
    for side in SIDES:
        results = [run["result"] for run in runs if run["side"] == side]
        out[side] = {"attempted": sum(r.get("attempted", 0) for r in results),
                     "failed": sum(r.get("failed", 0) for r in results),
                     "runs_failed": sum("error" in r for r in results)}
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--change", default="HEAD", help="changed revision (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", nargs="+", help="one seed per pair: integers or A-B")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    command_line = shlex.join(["python3", "tools/ab.py", *argv])
    tmp = None
    try:
        if args.pairs < 1:
            raise Refusal("--pairs must be at least 1")
        if args.seconds <= 0:
            raise Refusal("--seconds must be positive")
        seeds = parse_seeds(args.seeds, args.pairs)
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise Refusal(f"no directory for --out {args.out!r}")
        done = git(os.getcwd(), "rev-parse", "--show-toplevel")
        if done.returncode != 0:
            raise Refusal("not inside a git checkout")
        repo = done.stdout.decode().strip()
        commits = {"base": resolve(repo, args.base), "change": resolve(repo, args.change)}
        tmp = tempfile.mkdtemp(prefix="nctorus-ab-")
        roots = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            export(repo, commits[side], roots[side])
        command, metrics = benchmark_command(roots["change"])
        runs, machine = [], None
        for pair, seed in enumerate(seeds):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result, stamp = run_side(roots[side], command, args.workload, seed,
                                         args.seconds)
                machine = machine or stamp
                runs.append({"pair": pair, "seed": seed, "side": side, "result": result})
                print(f"pair {pair} seed {seed} {side}: "
                      f"{result.get('error') or json.dumps(result.get('metrics'))}",
                      file=sys.stderr)
    except Refusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    report = {
        "command": command_line,
        "protocol": (
            f"fixed before the first run: {args.pairs} pairs, seeds {seeds}; each pair "
            "runs one seed on both sides, one after the other; even pairs run the base "
            "first, odd pairs the change first; both sides are git archive exports in a "
            "temporary directory, run with no __pycache__ and PYTHONDONTWRITEBYTECODE=1; "
            "quartiles by statistics.quantiles(n=4, method='inclusive'); a verdict needs "
            "a median difference beyond the base's IQR and the change winning (better) "
            "or losing (worse) at least 9 of every 10 pairs, else it is unresolved"),
        "base": {"rev": args.base, "commit": commits["base"]},
        "change": {"rev": args.change, "commit": commits["change"]},
        "workload": args.workload, "seconds": args.seconds,
        "run": shlex.join([*command, "--workload", args.workload, "--seed", "S",
                           "--seconds", str(args.seconds), "--trace", "0"]),
        "machine": {k: v for k, v in (machine or {}).items() if k not in ("commit", "seed")},
        "summary": summarize(runs, metrics),
        "operations": operations(runs),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, s in report["summary"].items():
        if s["pairs"]:
            print(f"{name}: base {s['base_median']:.6g} change {s['change_median']:.6g} "
                  f"won {s['change_won']} {s['verdict']}")
    failed = any("error" in run["result"] for run in runs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

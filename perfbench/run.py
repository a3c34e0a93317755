"""nctorus benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload symmetry --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is loaded from ./src.  With
--trace 0 the workload runs whole rounds (see workloads.py) until --seconds
have passed, with no tracing, and the last line of stdout is one JSON object
with the end-to-end metrics.  With --trace 1 one round runs untraced and then
again under the tracer, and the metrics are the per-layer ones.  The line
before the last is a report: machine stamp, input properties, the metrics
under the names of their workload, sample counts, and the failures seen.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 7
LAYER_PROBES = 5  # child processes per cli.*_s.p50 split


def percentile(samples, q: float):
    """Nearest-rank q-quantile; a tail quantile needs ten samples beyond it.

    Returns None when fewer than ten samples lie above a q > 0.5 quantile
    (so p90 needs at least 100 samples); the median is always reported.
    """
    if not samples:
        return None
    v = sorted(samples)
    if q == 0.5:
        return statistics.median(v)
    rank = max(1, -(-int(q * 1000) * len(v) // 1000))  # ceil(q * n)
    if q > 0.5 and len(v) - rank < 10:
        return None
    return v[rank - 1]


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(seed: int) -> dict:
    from importlib import metadata
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"commit": git_commit(), "seed": seed,
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu_model()}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def child_time(argv) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = perf_counter()
    subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return perf_counter() - t0


def measure_setup(workload: str, seed: int, workdir: str) -> list[float]:
    """Set-up times of fresh processes: import plus round-0 inputs, each."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only", "--workdir", workdir],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Tally:
    """Samples and gate outcomes of the operations of one run."""

    def __init__(self):
        self.samples: list[dict] = []
        self.ops: list[dict] = []
        self.failures: list[str] = []
        self.known: list[str] = []

    def record(self, op, sample, verdict):
        self.samples.append(sample)
        self.ops.append(op)
        if verdict is None:
            return
        from workloads import Known
        (self.known if isinstance(verdict, Known) else self.failures).append(str(verdict))


def run_round(W, seed, rnd, tally, in_process=False, tracer=None) -> float:
    """Prepare and run one round, then gate it; returns the run phase's wall time.

    The tracer, if given, is active only while the round is prepared and
    run, so the gates' own calls into the package are not recorded.
    """
    ops = W.make_round(seed, rnd)
    runner = getattr(W, "run_in_process", W.run) if in_process else W.run
    results = []
    t0 = perf_counter()
    with tracer if tracer is not None else contextlib.nullcontext():
        for op in ops:
            try:
                results.append(runner(op, W.prepare(op)))
            except Exception as exc:  # a crash is a failed operation, not a stop
                results.append((None, exc))
    wall = perf_counter() - t0
    for index, (op, (sample, result)) in enumerate(zip(ops, results)):
        if isinstance(result, Exception):
            verdict = f"{type(result).__name__}: {result}"
        else:
            try:
                verdict = W.check(op, result, index)
            except Exception as exc:
                verdict = f"{type(exc).__name__}: {exc}"
        tally.record(op, sample, verdict)
    return wall


def work_per_s(tally: Tally) -> float:
    samples = [s for s in tally.samples if s is not None]
    busy = sum(s["op_s"] for s in samples)
    return sum(s["work"] for s in samples) / busy if busy else 0.0


def named_metrics(workload: str, tally: Tally, setup_s: float, peak: float) -> dict:
    """The metrics under their workload's names, each with its sample count."""
    samples = [s for s in tally.samples if s is not None]
    op_s = [s["op_s"] for s in samples]
    attempted = len(tally.ops)
    failed_share = (len(tally.failures) + len(tally.known)) / attempted
    out = {"setup_s": (setup_s, "s", SETUP_REPEATS),
           "peak_rss_mb": (peak, "MB", 1),
           "failed_share": (failed_share, "share", attempted)}
    rate = work_per_s(tally)
    if workload == "symmetry":
        out["symmetry.cases_per_s"] = (rate, "1/s", len(op_s))
        out["symmetry.check_s.p50"] = (percentile(op_s, 0.5), "s", len(op_s))
    elif workload == "cesaro":
        out["cesaro.evals_per_s"] = (rate, "1/s", len(op_s))
        out["cesaro.eval_s.p50"] = (percentile(op_s, 0.5), "s", len(op_s))
        out["cesaro.eval_s.p90"] = (percentile(op_s, 0.9), "s", len(op_s))
    elif workload == "cyclo":
        sess = [s["session_s"] for s in samples]
        prints = [s["print_s"] for s in samples]
        out["cyclo.session_s.p50"] = (percentile(sess, 0.5), "s", len(sess))
        out["cyclo.session_s.p90"] = (percentile(sess, 0.9), "s", len(sess))
        out["cyclo.print_s.p50"] = (percentile(prints, 0.5), "s", len(prints))
    else:
        out["cli.cold_s.p50"] = (percentile(op_s, 0.5), "s", len(op_s))
        out["cli.cold_s.p90"] = (percentile(op_s, 0.9), "s", len(op_s))
    return out


def by_kind(W, tally) -> dict:
    """Median op time and count per kind of operation, for reading a run."""
    groups: dict[str, list[float]] = {}
    for op, sample in zip(tally.ops, tally.samples):
        if sample is not None:
            groups.setdefault(W.kind(op), []).append(sample["op_s"])
    return {k: [statistics.median(v), len(v)] for k, v in sorted(groups.items())}


def timed_run(W, seed, seconds) -> tuple[Tally, dict]:
    tally = Tally()
    t0 = perf_counter()
    rnd, last = 0, 0.0
    # whole rounds only; stop when one more would end past seconds by more
    # than half a round, so a run overshoots by at most half a round
    while rnd == 0 or perf_counter() - t0 + last / 2 < seconds:
        t_round = perf_counter()
        run_round(W, seed, rnd, tally)
        last = perf_counter() - t_round
        rnd += 1
    return tally, {"rounds": rnd, "wall_s": perf_counter() - t0}


def layer_probes() -> dict:
    """cli.interpreter_s.p50 and cli.import_s.p50: two slices of cold start."""
    bare = [child_time(["-c", "pass"]) for _ in range(LAYER_PROBES)]
    imp = [child_time(["-c", "import nctorus"]) for _ in range(LAYER_PROBES)]
    return {"cli.interpreter_s.p50": (statistics.median(bare), "s"),
            "cli.import_s.p50": (statistics.median(imp), "s")}


def traced_run(W, seed) -> tuple[Tally, dict, dict]:
    """Round 0 untraced, traced, and untraced again.

    The first pass warms the package's caches (cyclotomic polynomials, for
    one), so the overhead compares the traced pass with the third.
    """
    import layers
    run_round(W, seed, 0, Tally(), in_process=True)
    tally = Tally()
    tracer = layers.LayerTracer()
    traced_s = run_round(W, seed, 0, tally, in_process=True, tracer=tracer)
    untraced_s = run_round(W, seed, 0, Tally(), in_process=True)
    metrics = layers.layer_metrics(tracer)
    metrics.update(layer_probes())
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    return tally, metrics, {"rounds": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="internal: build round-0 inputs and report the time")
    parser.add_argument("--workdir", help="internal: where state files live")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nctorus", "__init__.py")):
        print(f"error: no nctorus sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    W = workloads.WORKLOADS.get(args.workload)
    if W is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.setup_only:
        workloads.Cli.workdir = args.workdir
        if W is workloads.Cli:
            W.write_state_files(args.workdir)
        for op in W.make_round(args.seed, 0):
            W.prepare(op)
        print(json.dumps({"setup_s": perf_counter() - T_START}))
        return 0

    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE)
    try:
        workloads.Cli.root = ROOT
        workloads.Cli.workdir = workdir
        workloads.Cli.write_state_files(workdir)
        setup = measure_setup(args.workload, args.seed, workdir)
        setup_s = statistics.median(setup)
        if args.trace:
            tally, metrics, extra = traced_run(W, args.seed)
        else:
            tally, extra = timed_run(W, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak = peak_rss_mb()
    if not args.trace:
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak, "MB"),
                   "work_per_s": (work_per_s(tally), "1/s")}

    report = {
        "workload": args.workload, "trace": args.trace, "stamp": stamp(args.seed),
        "inputs": W.properties(tally.ops),
        "named": {k: {"value": v, "unit": u, "samples": n}
                  for k, (v, u, n) in named_metrics(args.workload, tally, setup_s, peak).items()},
        "op_s_by_kind": by_kind(W, tally), "setup_samples": setup, **extra,
        "known_defects": sorted(set(tally.known)),
        "failures": tally.failures[:20],
    }
    print(json.dumps({"report": report}, default=str))
    result = {
        "correct": not tally.failures,
        "attempted": len(tally.ops),
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""corkcalc benchmark: times ``corkcalc verify`` workloads end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload scripts --seed 1 --seconds 20 --trace 0

Each iteration is a fresh interpreter (child.py) that imports ``corkcalc.cli``
from ``src/`` and calls ``cli.main(["verify", ...])`` for every call of the
workload, so import, grid expansion, the worker pool and report encoding are
all counted. Every report is checked against closed-form case counts.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
iterations with iterations under span wrappers (tracer.py) and prints the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the run's metadata, a metric table and ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from tracer import SPAN_NAMES, read_spans, self_times
from workloads import WORKLOADS, Call, expected_cases

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

SETUP_SAMPLES = 11          # import-only interpreters per run, besides one per iteration
RUN_DEADLINE_S = 170        # a run must end within 180 s
TAIL_PERCENTILES = (50, 90, 99, 99.9, 99.99)

# Spans reported as <name>.calls and <name>.self_s; the others get their own metrics.
LAYER_SPANS = tuple(n for n in SPAN_NAMES if n not in (
    "cli.main", "suites.run_suite", "suites.run_case", "linalg.from_rows"))


class Run:
    """State of one benchmark run: child environment, deadlines and tallies."""

    def __init__(self, seed: int):
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env.pop("CORKCALC_DATA_DIR", None)
        # users import from a bytecode cache, so children may write one
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cpus = sorted(os.sched_getaffinity(0))
        self._n = 0

    def child(self, calls=(), trace="off"):
        """Run one fresh interpreter; return (result dict or None, report paths, spans path)."""
        self._n += 1
        tag = WORK / f"c{self._n}"
        reports = [f"{tag}_{j}.json" for j in range(len(calls))]
        spec = {"calls": [c.argv(r) for c, r in zip(calls, reports)], "trace": trace,
                "result": f"{tag}_result.json", "spans": f"{tag}_spans.bin"}
        timeout = max(5.0, RUN_DEADLINE_S - (time.monotonic() - self.started))
        pin = None
        if all(c.jobs == 1 for c in calls):
            # A serial child stays on the CPU it starts on. Alternating CPUs keeps
            # one contended core from setting a whole run's median.
            cpu = self.cpus[self._n % len(self.cpus)]
            pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(SRC), json.dumps(spec)],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, start_new_session=True, preexec_fn=pin)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
            self.problems.append(f"iteration timed out after {timeout:.0f} s")
        try:
            result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            tail = (err or "").strip().splitlines()[-5:]
            self.problems.append(f"child exited {proc.returncode}: {' | '.join(tail)}")
            result = None
        if result is not None and not Path(result["corkcalc_file"]).resolve().is_relative_to(SRC):
            self.problems.append(f"imported corkcalc from {result['corkcalc_file']}, not {SRC}")
            result = None
        return result, reports, spec["spans"]

    def iteration(self, calls, trace="off"):
        """Run the calls in one child and check every report; return the child result."""
        result, reports, spans = self.child(calls, trace)
        for j, call in enumerate(calls):
            outcome = result["calls"][j] if result is not None else None
            self.failed += check_call(call, outcome, reports[j], self.problems)
            self.attempted += expected_cases(call)
            Path(reports[j]).unlink(missing_ok=True)
        if result is not None:
            result["spans"] = spans
            result["wall_s"] = sum(c["wall_s"] for c in result["calls"])
        return result


def check_call(call: Call, outcome, report_path: str, problems: list[str]) -> int:
    """Check one verify call against its closed-form case count; return failed cases."""
    expected = expected_cases(call)
    label = f"{call.suite} n_max={call.n_max} m_max={call.m_max} jobs={call.jobs}"
    if outcome is None:
        problems.append(f"{label}: no result")
        return expected
    if outcome["error"] is not None or outcome["rc"] != 0:
        problems.append(f"{label}: exit {outcome['rc']} {outcome['error'] or ''}".strip())
        return expected
    try:
        report = json.loads(Path(report_path).read_text(encoding="utf-8"))
        cases = report["cases"]
        ok_ids = {c["case"] for c in cases if c["ok"] is True}
    except (OSError, ValueError, KeyError, TypeError) as e:
        problems.append(f"{label}: unreadable report ({e})")
        return expected
    if (report.get("suite") != call.suite or report.get("passed") is not True
            or report.get("total") != expected or report.get("failed") != 0
            or len(cases) != expected):
        problems.append(f"{label}: report {report.get('suite')} passed={report.get('passed')} "
                        f"total={report.get('total')} cases={len(cases)}, expected {expected}")
    return max(expected - len(ok_ids), 0)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest listed percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    chosen = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            chosen = p
    index = min(n - 1, max(0, math.ceil(chosen / 100 * n) - 1))
    return chosen, ordered[index]


def _timed_loop(run: Run, calls, seconds: float, modes=("off",)):
    """Run rounds of one iteration per trace mode until the next round would
    pass ``seconds``; at least one round. Returns one result list per mode."""
    deadline = time.monotonic() + seconds
    results = [[] for _ in modes]
    while True:
        start = time.monotonic()
        for mode, bucket in zip(modes, results):
            result = run.iteration(calls, mode)
            if result is None:
                return results
            bucket.append(result)
        if time.monotonic() + (time.monotonic() - start) > deadline:
            return results


def end_to_end(run: Run, calls, seconds: float):
    setup = [run.child()[0] for _ in range(SETUP_SAMPLES)]
    (results,) = _timed_loop(run, calls, seconds)
    setup_samples = [r["setup_s"] for r in setup + results if r is not None]
    if not results or not setup_samples:
        return None, {}
    jobs = max(c.jobs for c in calls)
    cases = sum(expected_cases(c) for c in calls)

    def peak_mb(r):
        # parent peak plus, when pooled, the largest worker's peak once per worker
        workers = r["maxrss_children_kb"] * jobs if jobs > 1 else 0
        return (r["maxrss_self_kb"] + workers) / 1024

    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
        "cases_per_s": (statistics.median(cases / r["wall_s"] for r in results), "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (statistics.median(peak_mb(r) for r in results), "MB"),
    }
    info = {"iterations": len(results), "setup_samples": len(setup_samples),
            "wall_s_samples": [round(r["wall_s"], 4) for r in results]}
    return metrics, info


def per_layer(run: Run, calls, seconds: float):
    # untraced and traced iterations alternate, so both see the same machine state
    untraced, traced = _timed_loop(run, calls, seconds, ("off", "full"))
    if not untraced or not traced:
        return None, {}
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    cases = sum(expected_cases(c) for c in calls)
    per_iteration = [_layer_values(r, untraced_wall, cases) for r in traced]
    # median_low picks a sample, so counts stay whole numbers
    metrics = {name: (statistics.median_low(v[name][0] for v in per_iteration),
                      per_iteration[0][name][1])
               for name in per_iteration[0]}
    info = {"traced_iterations": len(traced), "untraced_wall_s": round(untraced_wall, 4)}

    pooled = [c for c in calls if c.jobs > 1]
    case_source = traced[0]
    if pooled:
        # workers are not traced: time the cases serially with only run_case wrapped
        serial = run.iteration(tuple(replace(c, jobs=1) for c in pooled), "run_case")
        if serial is None:
            return None, {}
        jobs = max(c.jobs for c in pooled)
        pooled_wall = statistics.median(
            sum(r["calls"][calls.index(c)]["wall_s"] for c in pooled) for r in untraced)
        serial_case_s = _stats_of(serial)[0]["suites.run_case"]["total_s"]
        metrics["suites.pool.overhead_s"] = (pooled_wall - serial_case_s / jobs, "s")
        metrics["suites.pool.efficiency"] = (serial_case_s / (jobs * pooled_wall), "ratio")
        info["serial_case_s"] = round(serial_case_s, 4)
        case_source = serial
    else:
        metrics["suites.pool.overhead_s"] = (0.0, "s")
        metrics["suites.pool.efficiency"] = (1.0, "ratio")
    run_case = _stats_of(case_source)[0]["suites.run_case"]
    metrics["suites.run_case.calls"] = (run_case["calls"], "count")
    metrics["suites.run_case.self_s"] = (run_case["self_s"], "s")
    metrics["suites.run_case.p50_ms"] = (statistics.median(run_case["durations"]) * 1e3, "ms")
    pct, value = tail_percentile(run_case["durations"])
    metrics["suites.run_case.tail_ms"] = (value * 1e3, "ms")
    info["tail_percentile"] = pct
    info["run_case_source"] = "serial reference" if pooled else "traced run"
    return metrics, info


def _stats_of(result):
    """Aggregate (and then delete) an iteration's spans; cached on the result."""
    if "_stats" in result:
        return result["_stats"]
    header, *arrays = read_spans(result["spans"])
    Path(result["spans"]).unlink(missing_ok=True)
    stats, top_level_s = self_times(header["names"], *arrays)
    result["_stats"] = (stats, top_level_s, header["mul_macs"])
    return result["_stats"]


def _layer_values(result, untraced_wall: float, cases: int) -> dict:
    stats, top_level_s, macs = _stats_of(result)

    def calls(name):
        return stats[name]["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in LAYER_SPANS:
        values[f"{name}.calls"] = (calls(name), "count")
        values[f"{name}.self_s"] = (stats[name]["self_s"], "s")
    values["linalg.mul.macs"] = (macs, "count")
    values["linalg.from_rows.calls"] = (calls("linalg.from_rows"), "count")
    values["cli.self_s"] = (stats["cli.main"]["total_s"] - stats["suites.run_suite"]["total_s"], "s")
    values["datum.hash_per_move"] = (ratio(calls("datum.datum_hash"), calls("moves.apply_move")),
                                     "ratio")
    values["linalg.snf_per_invariant"] = (
        ratio(calls("linalg.snf"), calls("invariants.homology") + calls("invariants.boundary_h1")),
        "ratio")
    values["invariants.homology_per_case"] = (ratio(calls("invariants.homology"), cases), "ratio")
    values["trace.overhead_ratio"] = (result["wall_s"] / untraced_wall, "ratio")
    values["trace.unattributed_s"] = (result["wall_s"] - top_level_s, "s")
    return values


def metadata(args, calls, version: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "corkcalc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "corkcalc_version": version,
            "git_sha": sha, "src_sha256": digest.hexdigest(),
            "calls": [c.grid() for c in calls]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "corkcalc" / "cli.py").is_file():
        print(f"error: no corkcalc sources at {SRC}", file=sys.stderr)
        return 2
    calls = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        run = Run(args.seed)
        # compiles the bytecode cache, which users do not pay on every run
        warm = run.child()[0]
        if warm is None:
            print("error: corkcalc.cli does not import: " + "; ".join(run.problems),
                  file=sys.stderr)
            return 2
        measure = per_layer if args.trace else end_to_end
        metrics, info = measure(run, calls, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if metrics is None:
        print("error: no iteration completed: " + "; ".join(run.problems), file=sys.stderr)
        return 2
    meta = metadata(args, calls, warm["version"]) | info
    fail_ratio = run.failed / run.attempted
    print("meta " + json.dumps(meta, sort_keys=True))
    for problem in run.problems:
        print(f"problem {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"{'fail_ratio':40s} {fail_ratio:>16.6g} ratio ({run.failed}/{run.attempted} cases)")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

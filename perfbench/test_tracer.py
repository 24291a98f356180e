"""Tests of the benchmark's tracer and metric set.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
from tracer import TARGETS, Tracer, _corkcalc_modules, read_spans, self_times  # noqa: E402
from workloads import WORKLOADS, Call, expected_cases  # noqa: E402

# Small grids of every suite the workloads call, one of them pooled.
SMALL_CALLS = (
    Call("lemma-3-4-scripts", n_max=4, m_max=1),
    Call("lemma-2-2", n_max=5, m_max=2),
    Call("w-family", n_max=5, m_max=1),
    Call("thm-1-7-arith"),
    Call("cork-order", n_max=6, jobs=2),
)


@pytest.fixture
def bench_run():
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir(parents=True)
    try:
        yield run.Run(seed=7)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)


def test_install_replaces_every_binding():
    # every library module of the package, so a binding in any of them is checked
    for path in sorted((BENCH_DIR.parent / "src" / "corkcalc").glob("*.py")):
        if path.stem != "__main__":
            importlib.import_module(
                "corkcalc" if path.stem == "__init__" else f"corkcalc.{path.stem}")
    modules = _corkcalc_modules()
    tracer = Tracer()
    tracer.install()
    originals = {id(fn): name for name, fn in tracer.originals.items()}
    assert set(tracer.originals) == {name for _, _, name in TARGETS}
    for module in modules:
        for key, value in vars(module).items():
            assert id(value) not in originals, f"{module.__name__}.{key} is unwrapped"
            if isinstance(value, dict):
                for k, v in value.items():
                    assert id(v) not in originals, f"{module.__name__}.{key}[{k!r}] is unwrapped"
    suites, moves, linalg = (sys.modules[f"corkcalc.{m}"] for m in ("suites", "moves", "linalg"))
    for bound in (suites.is_diag_minus_one, suites.homology, moves.datum_hash,
                  linalg.IntMatrix.mul, linalg.IntMatrix.from_rows, moves.Recorder.apply):
        assert hasattr(bound, "__wrapped__")

    # nested calls through from-import bindings are recorded with their parents
    result = suites.run_case("w-family", ("base", 3, 1, 0))
    assert result.ok
    stats, top_level_s = self_times(tracer.names, tracer.span_name, tracer.span_parent,
                                    tracer.span_start, tracer.span_end)
    for name in ("suites.run_case", "invariants.homology", "linalg.is_diag_minus_one",
                 "linalg.snf", "families.build_W", "linalg.mul", "linalg.from_rows"):
        assert stats[name]["calls"] > 0, name
    assert stats["suites.run_case"]["calls"] == 1
    assert top_level_s == pytest.approx(stats["suites.run_case"]["total_s"])
    assert tracer.mul_macs > 0
    for s in stats.values():
        assert s["self_s"] >= -1e-9


def test_traced_verdicts_equal_untraced(bench_run):
    verdicts = {}
    for mode in ("off", "full"):
        result, reports, spans = bench_run.child(SMALL_CALLS, mode)
        assert result is not None, bench_run.problems
        assert [c["rc"] for c in result["calls"]] == [0] * len(SMALL_CALLS)
        verdicts[mode] = [json.loads(Path(p).read_text())["cases"] for p in reports]
        if mode == "full":
            header, *arrays = read_spans(spans)
            assert header["count"] > 0
    assert verdicts["off"] == verdicts["full"]
    for call, cases in zip(SMALL_CALLS, verdicts["off"]):
        assert len(cases) == expected_cases(call)


def test_trace_run_reports_every_per_layer_metric(bench_run):
    metrics, info = run.per_layer(bench_run, SMALL_CALLS, seconds=0)
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in declared["per_layer"]]
    for name, (value, unit) in metrics.items():
        assert math.isfinite(value), name
        assert unit == next(m["unit"] for m in declared["per_layer"] if m["name"] == name)
    assert metrics["trace.overhead_ratio"][0] > 0
    assert 0 <= metrics["trace.unattributed_s"][0] < 1
    assert metrics["suites.pool.efficiency"][0] > 0
    assert info["run_case_source"] == "serial reference"
    assert bench_run.failed == 0 and not bench_run.problems


def test_end_to_end_metrics_match_declaration(bench_run):
    metrics, _ = run.end_to_end(bench_run, (Call("lemma-2-2", n_max=3, m_max=1),), seconds=0)
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(n, u) for n, (_, u) in metrics.items()] == \
        [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())


def test_closed_form_counts_match_suite_grids():
    from corkcalc import suites
    for calls in WORKLOADS.values():
        for call in calls:
            grid = {"n_max": call.n_max, "m_max": call.m_max}
            assert len(suites.iter_cases(call.suite, grid)) == expected_cases(call)


def test_failed_call_counts_all_its_cases(tmp_path):
    call = Call("lemma-2-2", n_max=3, m_max=1)
    problems: list[str] = []
    assert run.check_call(call, {"rc": 1, "error": None, "wall_s": 0.1},
                          str(tmp_path / "missing.json"), problems) == expected_cases(call)
    assert run.check_call(call, None, str(tmp_path / "missing.json"), problems) == expected_cases(call)
    report = {"suite": "lemma-2-2", "passed": True, "total": 14, "failed": 0,
              "cases": [{"case": f"c{i}", "ok": True, "details": ""} for i in range(13)]}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(report))
    assert run.check_call(call, {"rc": 0, "error": None, "wall_s": 0.1}, str(path), problems) == 1
    assert len(problems) == 3


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(100)]) == (90, 89.0)
    assert run.tail_percentile([float(i) for i in range(1000)])[0] == 99
    assert run.tail_percentile([1.0, 2.0, 3.0])[0] == 50

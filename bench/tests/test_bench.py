"""Tests of the benchmark itself: the correctness gate, the tracer's self
times, tiny runs of every workload, and the layer map.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import run as bench  # noqa: E402
from tracer import NONE, ROOT, Span, Tracer, _union, summarize  # noqa: E402

WORKLOADS = [w["name"] for w in bench.spec()["workloads"]]


def _suite(name, controls=()):
    return {"name": name, "passed": True, "max_residual": 1e-12, "tolerance": 1e-5,
            "residuals": [1e-13, 1e-12], "controls": list(controls), "error": None}


def _report():
    control = {"name": "cg_not_almost_kahler", "value": 0.5, "bound": 0.01,
               "require": "min", "ok": True}
    return {"suites": [_suite("lck"), _suite("almost_kahler", [control])]}


EXPECTED = {"lck": "PASS", "almost_kahler": "PASS"}


def test_gate_accepts_clean_report():
    assert bench.gate(_report(), EXPECTED) == []


def test_gate_rejects_nan_residual_that_the_program_passes():
    rep = _report()
    rep["suites"][0]["residuals"].append(math.nan)  # max() ignores it; passed stays True
    assert bench.gate(rep, EXPECTED) == ["lck"]


def test_gate_rejects_nonfinite_control():
    rep = _report()
    rep["suites"][1]["controls"][0]["value"] = math.inf
    assert bench.gate(rep, EXPECTED) == ["almost_kahler"]


def test_gate_rejects_flipped_verdict():
    rep = _report()
    rep["suites"][1]["passed"] = False
    assert bench.gate(rep, EXPECTED) == ["almost_kahler"]
    assert bench.gate(_report(), dict(EXPECTED, lck="FAIL")) == ["lck"]


def test_gate_rejects_missing_and_unexpected_suites():
    rep = _report()
    del rep["suites"][0]
    assert bench.gate(rep, EXPECTED) == ["lck"]
    assert bench.gate(_report(), {"lck": "PASS"}) == ["almost_kahler"]


def test_gate_rejects_suite_error():
    rep = _report()
    rep["suites"][0]["error"] = "WeightDomainError: t outside domain"
    assert bench.gate(rep, EXPECTED) == ["lck"]


def _traced_run(suites):
    import tbgeom.cli as cli

    doc = json.loads((BENCH / "workloads" / "closed_m3.json").read_text())
    cfg = cli.load_config(dict(doc["config"], suites=suites, samples=1))
    tracer = Tracer()
    tracer.install()
    try:
        report = cli.run(cfg)
    finally:
        tracer.uninstall()
    assert not hasattr(cli.run, "__wrapped__")
    return report, tracer.spans()


@pytest.mark.parametrize("suites", [["sectional"], ["base_checks", "sectional", "isometry"]])
def test_self_times_sum_to_traced_wall_time(suites):
    report, spans = _traced_run(suites)
    assert [s["name"] for s in report["suites"]] == suites
    (root,) = [s for s in spans if s.parent == NONE]
    assert root.name == "cli.run"
    suite_spans = [s for s in spans if s.name == "suites.run_suite"]
    assert sorted(s.suite for s in suite_spans) == sorted(suites)
    assert all(s.parent == ROOT for s in suite_spans)
    calls, wall_self, cpu_self, _ = summarize(spans)
    assert calls["weights.WeightPair.eval"] > 0
    # Suites overlap on the pool; with one suite the overlap term is zero.
    overlap = sum(s.end - s.start for s in suite_spans) - _union(
        (s.start, s.end) for s in suite_spans)
    wall = root.end - root.start
    assert sum(wall_self.values()) == pytest.approx(wall + overlap, rel=1e-9, abs=1e-9)
    if len(suites) == 1:
        assert sum(wall_self.values()) == pytest.approx(wall, rel=1e-9, abs=1e-9)
    # CPU self times sum to the CPU time of each thread's top-level spans.
    top_cpu = sum(s.cpu_end - s.cpu_start for s in spans if s.parent in (NONE, ROOT))
    assert sum(cpu_self.values()) == pytest.approx(top_cpu, rel=1e-9, abs=1e-9)


def test_outermost_totals_count_nested_calls_once():
    spans = [
        # buffer, index, name, start, end, cpu_start, cpu_end, parent, suite
        (0, 0, "cli.run", 0.0, 10.0, 0.0, 10.0, NONE, None),
        (0, 1, "oracle.fd_curvature", 1.0, 5.0, 1.0, 5.0, 0, None),
        (0, 2, "oracle.fd_connection", 1.5, 2.0, 1.5, 2.0, 1, None),
        (0, 3, "oracle.fd_curvature", 2.5, 3.0, 2.5, 3.0, 1, None),
        (1, 0, "oracle.fd_curvature", 4.0, 7.0, 0.0, 3.0, ROOT, None),
    ]
    spans = [Span(*s) for s in spans]
    calls, wall_self, cpu_self, totals = summarize(
        spans, {"fd": lambda n: n == "oracle.fd_curvature"})
    assert totals == {"fd": 4.0 + 3.0}
    assert calls["oracle.fd_curvature"] == 3
    assert wall_self["cli.run"] == pytest.approx(10.0 - 6.0)  # union of [1,5] and [4,7]
    assert cpu_self["cli.run"] == pytest.approx(10.0 - 4.0)  # same-thread child only
    assert wall_self["oracle.fd_curvature"] == pytest.approx(4.0 - 1.0 + 0.5 + 3.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_of_each_workload_passes_every_suite(workload, tmp_path):
    doc = json.loads((BENCH / "workloads" / f"{workload}.json").read_text())
    doc["config"]["samples"] = 2
    path = tmp_path / f"{workload}.json"
    path.write_text(json.dumps(doc))
    res = bench.measure(path, seed=7, seconds=0)
    assert res["failed"] == []
    assert res["attempted"] == len(doc["expected"]) == len(doc["config"]["suites"])
    assert set(doc["expected"]) == set(doc["config"]["suites"])
    for metric in ("verify_s", "setup_s", "peak_rss_mb"):
        assert res[metric]["median"] > 0


def test_layer_map_names_per_layer_metrics_and_workloads():
    spec = bench.spec()
    per_layer = [m["name"] for m in spec["per_layer"]]
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    mapped = [m for row in layers for m in row["metrics"]]
    assert sorted(mapped) == sorted(per_layer)
    end_to_end = {m["name"] for m in spec["end_to_end"]} | {"report.min_margin", "attribution"}
    for row in layers:
        assert set(row["should_move"]) <= end_to_end
        assert set(row["exercised_by"]) | set(row["bypassed_by"]) <= set(WORKLOADS)
    for name in WORKLOADS:
        doc = json.loads((BENCH / "workloads" / f"{name}.json").read_text())
        assert doc["why"] and set(doc["expected"]) == set(doc["config"]["suites"])

"""The span names the benchmark reads name functions the tracer wraps.

``bench/child.py`` turns the tracer's spans into per-layer metrics by name
(``LAYER_SPANS``, ``SPHERE_ENTRY`` and the names in the ``TOTALS``
predicates).  A tbgeom function renamed or made private would leave its
metric at zero without an error, so each of those names must be a span name
that ``bench/tracer.py`` gives.  The probes of ``--trace 1`` (per-call timings
and the traced ``fd_curvature`` counts) must run on the current API.  Both
files are read, not changed.
"""

import ast
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names():
    """The name of every span the tracer can record, from one install and uninstall."""
    tracer, names = load("tracer").Tracer(), set()
    wrap = tracer.wrap

    def recorded(name, fn, **kwargs):
        names.add(name)
        return wrap(name, fn, **kwargs)

    tracer.wrap = recorded
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    return names


def totals_names():
    """The span names compared with inside the ``TOTALS`` predicates of bench/child.py."""
    tree = ast.parse((BENCH / "child.py").read_text())
    [totals] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TOTALS"]]
    return {c.value for v in totals.values for c in ast.walk(v)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)}


def test_every_span_name_the_benchmark_reads_is_traced():
    child = load("child")
    read = {"LAYER_SPANS": set(child.LAYER_SPANS), "SPHERE_ENTRY": child.SPHERE_ENTRY,
            "TOTALS": totals_names()}
    assert all(read.values())
    traced = traced_names()
    assert {k: sorted(names - traced) for k, names in read.items()} == dict.fromkeys(read, [])


def test_the_trace_probes_run_once(monkeypatch):
    child = load("child")

    def one_call(fn, *args, **kwargs):
        fn()
        return 0.0

    monkeypatch.setattr(child, "per_call_us", one_call)
    timings = child.layer_timings()
    assert timings and set(timings.values()) == {0.0}
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        counts = child.probe_counts(tracer)
    finally:
        tracer.uninstall()
    assert sorted(counts) == sorted(f"oracle.fd_curvature.{k}.{m}" for k in
                                    ("metric_evals", "christoffel_calls") for m in ("m2", "m3"))
    assert counts["oracle.fd_curvature.metric_evals.m2"] > 0

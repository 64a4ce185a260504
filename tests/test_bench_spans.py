"""The span names the benchmark reads name functions the tracer wraps.

``bench/child.py`` turns the tracer's spans into per-layer metrics by name
(``LAYER_SPANS``, ``SPHERE_ENTRY`` and the names in the ``TOTALS``
predicates).  A tbgeom function renamed or made private would leave its
metric at zero without an error, so each of those names must be a span name
that ``bench/tracer.py`` gives.  Both files are read, not changed.
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

"""One measurement in a fresh interpreter; started by ``bench/run.py``.

    python3 bench/child.py {setup|verify|trace} WORKLOAD_FILE SEED [SPANS_FILE]

The child imports ``tbgeom`` (from ``src/`` via PYTHONPATH), loads the
workload's config with ``seed`` overridden and ``out`` dropped, and prints
one JSON object on stdout.  ``loaded`` is the CLOCK_MONOTONIC time at which
the config was loaded; the parent subtracts the time at which it started
the child.

- ``setup`` stops there.
- ``verify`` adds ``verify_s``, the wall time of ``tbgeom.cli.run(cfg)``,
  and the report.
- ``trace`` adds per-call timings of single layers (untraced), then runs
  ``cli.run(cfg)`` with every public tbgeom function wrapped by the
  tracer, and one probe ``fd_curvature`` call at m = 2 and m = 3 to count
  the metric evaluations it makes.  The spans of the traced run are
  written, one JSON array per line, to the gzip file SPANS_FILE.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from pathlib import Path

# Span name -> per-layer metric prefix.
LAYER_SPANS = {
    "weights.WeightPair.eval": "weights.eval",
    "weights.derived_coeffs": "weights.derived_coeffs",
    "base_geometry.ChartMetric.derivatives": "base_geometry.derivatives",
    "base_geometry.ChartMetric.matrix": "base_geometry.matrix",
    "base_geometry.christoffel": "base_geometry.christoffel",
    "base_geometry.curvature": "base_geometry.curvature",
    "base_geometry.nabla_curvature": "base_geometry.nabla_curvature",
    "oracle.InducedMetric.matrix": "oracle.induced_metric",
    "oracle.fd_connection": "oracle.fd_connection",
    "oracle.fd_curvature": "oracle.fd_curvature",
    "tangent_bundle.bundle_curvature": "tangent_bundle.bundle_curvature",
    "tangent_bundle.bundle_curvature_general": "tangent_bundle.bundle_curvature_general",
}
SELF_TIMED = ("weights.eval", "base_geometry.derivatives", "oracle.induced_metric",
              "tangent_bundle.bundle_curvature")
SPHERE_ENTRY = {"sphere_bundle.contact_structure", "sphere_bundle.deta_numeric",
                "sphere_bundle.isometry_residuals", "sphere_bundle.k_contact_verdict"}
# Outermost-call totals: nested or recursive calls are counted once.
TOTALS = {
    "oracle.fd_curvature.total_s": lambda n: n == "oracle.fd_curvature",
    "oracle.fd_exterior_derivative.total_s": lambda n: n == "oracle.fd_exterior_derivative",
    "tangent_bundle.scalar_curvature.total_s": lambda n: n == "tangent_bundle.scalar_curvature",
    "sphere_bundle.total_s": SPHERE_ENTRY.__contains__,
}
# Fixed points for the per-call timings: the unit-curvature space form with
# Cheeger-Gromoll weights, at m = 2 and m = 3.
POINTS = {
    "m2": ([0.1, -0.2], [0.7, 0.4]),
    "m3": ([0.1, -0.2, 0.15], [0.7, 0.4, -0.3]),
}


def load(path, seed):
    import tbgeom.cli as cli

    doc = dict(json.loads(Path(path).read_text())["config"])
    doc.pop("out", None)
    doc["seed"] = seed
    return cli, cli.load_config(doc)


def per_call_us(fn, budget_s=0.15, min_calls=3):
    """Median wall time of one call, in microseconds, after one warm-up call."""
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < budget_s:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e6


def layer_timings():
    import numpy as np

    import tbgeom.base_geometry as bg
    import tbgeom.oracle as orc
    import tbgeom.tangent_bundle as tb
    from tbgeom.weights import named_family

    out = {}
    for fam in ("sasaki", "cheeger_gromoll", "g1"):
        w = named_family(fam)
        out[f"weights.eval_us.{fam}"] = per_call_us(lambda: w.eval(0.7))
    w = named_family("cheeger_gromoll")
    for tag, (x, u) in POINTS.items():
        base = bg.SpaceForm(1.0, len(x))
        x, u = np.array(x), np.array(u)
        q = np.concatenate([x, u])
        im = orc.InducedMetric(base, w)
        P = tb.tangent_point(base, x, u)
        U, V, W = (tb.SplitVector(x + k, u - k, P) for k in (0.3, -0.5, 0.9))
        calls = {
            "base_geometry.christoffel_us": lambda: bg.christoffel(base, x),
            "base_geometry.curvature_us": lambda: bg.curvature(base, x),
            "base_geometry.nabla_curvature_us": lambda: bg.nabla_curvature(base, x),
            "oracle.induced_metric_us": lambda: im.matrix(q),
            "oracle.fd_connection_us": lambda: orc.fd_connection(im, q),
            "oracle.fd_curvature_us": lambda: orc.fd_curvature(im, q),
            "tangent_bundle.bundle_curvature_general_us":
                lambda: tb.bundle_curvature_general(w, base, P, U, V, W),
            "tangent_bundle.scalar_curvature_basis_us":
                lambda: tb.scalar_curvature(w, base, P, mode="basis"),
        }
        for name, fn in calls.items():
            out[f"{name}.{tag}"] = per_call_us(fn)
    return out


def probe_counts(tracer):
    """Metric and Christoffel evaluations made by one fd_curvature call."""
    import numpy as np

    import tbgeom.base_geometry as bg
    import tbgeom.oracle as orc
    from tbgeom.weights import named_family

    out = {}
    w = named_family("cheeger_gromoll")
    for tag, (x, u) in POINTS.items():
        im = orc.InducedMetric(bg.SpaceForm(1.0, len(x)), w)
        tracer.reset()
        orc.fd_curvature(im, np.array(x + u))
        names = [s.name for s in tracer.spans()]
        out[f"oracle.fd_curvature.metric_evals.{tag}"] = names.count("oracle.InducedMetric.matrix")
        out[f"oracle.fd_curvature.christoffel_calls.{tag}"] = names.count("base_geometry.christoffel")
    return out


def trace(cli, cfg, suites, spans_file):
    from tracer import Span, Tracer, summarize

    out = layer_timings()
    tracer = Tracer()
    tracer.install()
    try:
        report = cli.run(cfg)
        spans = tracer.spans()
        out.update(probe_counts(tracer))
    finally:
        tracer.uninstall()
    calls, _, self_s, totals = summarize(spans, TOTALS)
    for span_name, prefix in LAYER_SPANS.items():
        out[f"{prefix}.calls"] = calls.get(span_name, 0)
        if prefix in SELF_TIMED:
            out[f"{prefix}.self_s"] = self_s.get(span_name, 0.0)
    out.update(totals)
    run_span = next(s for s in spans if s.name == "cli.run")
    run_s = run_span.end - run_span.start
    suite_s = dict.fromkeys(suites, 0.0)
    for s in spans:
        if s.name == "suites.run_suite":
            suite_s[s.suite] += s.end - s.start
    out.update({f"suites.{k}.s": v for k, v in suite_s.items()})
    out["cli.pool_overlap"] = sum(suite_s.values()) / run_s
    out["cli.run.traced_s"] = run_s
    out["trace.self_s_total"] = sum(self_s.values())
    Path(spans_file).parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(spans_file, "wt") as fh:
        fh.write(json.dumps(Span._fields) + "\n")
        fh.writelines(json.dumps(s) + "\n" for s in spans)
    return {"metrics": out, "self_s": self_s, "report": report}


def main(argv):
    mode, path, seed = argv[0], argv[1], int(argv[2])
    cli, cfg = load(path, seed)
    out = {"loaded": time.monotonic()}
    if mode == "verify":
        start = time.perf_counter()
        report = cli.run(cfg)
        out["verify_s"] = time.perf_counter() - start
        out["report"] = report
    elif mode == "trace":
        from tbgeom.suites import SUITE_ORDER

        out.update(trace(cli, cfg, SUITE_ORDER, spans_file=argv[3]))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of the tbgeom batch verifier: time to a full set of verdicts.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from the repository root.  NAME is one of the workloads in
``bench/workloads`` or ``all``.  The seed overrides the workload config's
``seed``; the program receives only the config.  One child process runs
at a time (a closed loop), and every measurement uses a fresh interpreter
(``bench/child.py``) so that import and set-up costs are paid as a user
pays them.

``--trace 0`` measures with tracing off.  It starts five set-up-only
children, then repeats ``tbgeom.cli.run(cfg)`` in fresh children as long
as another one is expected to end within S seconds (at least once), and
reports medians:

- ``verify_s``: wall time of ``cli.run(cfg)``;
- ``setup_s``: child start to a loaded config (interpreter, ``import
  tbgeom``, ``load_config``), over every child of the run;
- ``peak_rss_mb``: each verify child's maximum RSS, from ``wait4``.

``--trace 1`` runs a traced child (see ``child.py``) between two
untraced ones, a fixed amount of work whatever S is, and reports the
per-layer metrics named in BENCHMARK.json.  The traced child's spans are
written to ``bench_out/``.

Every report is checked from outside the program (``gate``): a suite
verdict is one operation, and it fails if its verdict differs from the one
the workload file expects, if its ``error`` is set, or if any residual or
control value is not finite.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
CHILD = BENCH / "child.py"
WORKLOADS = BENCH / "workloads"
SETUP_CHILDREN = 5
CHILD_TIMEOUT_S = 150
SPANS_DIR = REPO / "bench_out"


class BenchError(RuntimeError):
    pass


def spec():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def gate(report, expected):
    """Names of the suites of one report that fail the correctness gate.

    ``expected`` maps each suite the workload runs to "PASS" or "FAIL".  A
    suite that is expected but missing, or present but not expected, fails.
    """
    found = {s.get("name"): s for s in report.get("suites", [])}
    failed = []
    for name in sorted(set(expected) | set(found), key=str):
        s = found.get(name)
        if s is None or name not in expected:
            failed.append(name)
            continue
        verdict = "PASS" if s.get("passed") is True else "FAIL"
        values = [s.get("max_residual"), *s.get("residuals", []),
                  *(c.get("value") for c in s.get("controls", []))]
        if verdict != expected[name] or s.get("error") is not None or not all(map(_finite, values)):
            failed.append(name)
    return failed


def check(reports, expected):
    """Suites attempted and the names of those failing the gate, over reports."""
    attempted = sum(len(set(expected) | {s.get("name") for s in r.get("suites", [])})
                    for r in reports)
    return attempted, [name for r in reports for name in gate(r, expected)]


def _finite(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def min_margin(report):
    """Minimum over suites with a nonzero maximum residual of tolerance / residual."""
    margins = [s["tolerance"] / s["max_residual"] for s in report["suites"]
               if _finite(s["max_residual"]) and s["max_residual"] > 0]
    return min(margins) if margins else math.inf


def run_child(mode, workload_file, seed, *extra):
    """Run ``child.py`` once; return its JSON plus ``setup_s`` and ``peak_rss_mb``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), mode, str(workload_file), str(seed), *extra],
        stdout=subprocess.PIPE, env=env, cwd=REPO,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"child {mode} exited with {proc.returncode}")
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        raise BenchError(f"child {mode} printed no result: {exc}") from exc
    doc["setup_s"] = doc["loaded"] - started
    doc["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return doc


def summary(values):
    """Median and the highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n}
    if n >= 11:
        k = n - 11
        out["tail"] = (100.0 * k / (n - 1), vals[k])
    return out


def measure(workload_file, seed, seconds):
    """Timed run with tracing off."""
    expected = json.loads(Path(workload_file).read_text())["expected"]
    setups = [run_child("setup", workload_file, seed)["setup_s"] for _ in range(SETUP_CHILDREN)]
    reps, durations = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        reps.append(run_child("verify", workload_file, seed))
        durations.append(time.monotonic() - began)
        # Start another child only if one more typical child still fits.
        if time.monotonic() - start + statistics.median(durations) > seconds:
            break
    attempted, failed = check([r["report"] for r in reps], expected)
    return {
        "attempted": attempted,
        "failed": failed,
        "verify_s": summary([r["verify_s"] for r in reps]),
        "setup_s": summary(setups + [r["setup_s"] for r in reps]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in reps]),
        "min_margin": min(min_margin(r["report"]) for r in reps),
    }


def measure_traced(workload_file, seed):
    """A traced child between two untraced ones; per-layer metrics."""
    expected = json.loads(Path(workload_file).read_text())["expected"]
    before = run_child("verify", workload_file, seed)
    spans = SPANS_DIR / f"spans-{Path(workload_file).stem}-{seed}.jsonl.gz"
    traced = run_child("trace", workload_file, seed, spans)
    after = run_child("verify", workload_file, seed)
    metrics = dict(traced["metrics"])
    untraced_s = (before["verify_s"] + after["verify_s"]) / 2
    metrics["trace_overhead"] = metrics["cli.run.traced_s"] / untraced_s
    metrics["report.min_margin"] = min_margin(before["report"])
    attempted, failed = check([before["report"], traced["report"], after["report"]], expected)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "self_s": traced["self_s"],
    }


def result_line(res, names, units, trace):
    if trace:
        metrics = {n: {"value": res["metrics"][n], "unit": units[n]} for n in names}
    else:
        metrics = {n: {"value": res[n]["median"], "unit": units[n]} for n in names}
    return {"correct": not res["failed"], "attempted": res["attempted"],
            "failed": len(res["failed"]), "metrics": metrics}


def report_text(name, seed, res, units, trace):
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}"]
    if trace:
        total = res["metrics"]["trace.self_s_total"]
        top = sorted(res["self_s"].items(), key=lambda kv: -kv[1])[:8]
        lines.append(f"  CPU self time, top spans (of {total:.3f} s):")
        lines += [f"    {k:<44s} {v:8.3f} s  {100 * v / total:5.1f}%" for k, v in top]
    else:
        for metric in ("verify_s", "setup_s", "peak_rss_mb"):
            s = res[metric]
            tail = (f"p{s['tail'][0]:.0f} {s['tail'][1]:.4f}" if "tail" in s
                    else "no percentile has 10 samples beyond it")
            lines.append(f"  {metric:<12s} median {s['median']:.4f} {units[metric]}"
                         f"  ({tail}; n={s['n']})")
        lines.append(f"  min_margin   {res['min_margin']:.4g} ratio  (tolerance / max residual;"
                     f" the same on every rep of one seed; n={res['verify_s']['n']})")
    lines.append(f"  suites       attempted {res['attempted']}  failed {len(res['failed'])}"
                 + (f"  ({', '.join(sorted(set(res['failed'])))})" if res["failed"] else ""))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tbgeom" / "__init__.py").is_file():
        print(f"bench: no tbgeom package under {SRC}", file=sys.stderr)
        return 2
    doc = spec()
    group = doc["per_layer"] if args.trace else doc["end_to_end"]
    names = [m["name"] for m in group]
    units = {m["name"]: m["unit"] for m in group}
    workloads = [w["name"] for w in doc["workloads"]]
    chosen = workloads if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(workloads):
        print(f"bench: unknown workload {args.workload!r}; known: {', '.join(workloads)}",
              file=sys.stderr)
        return 2

    lines = {}
    try:
        for name in chosen:
            path = WORKLOADS / f"{name}.json"
            if args.trace:
                res = measure_traced(path, args.seed)
                missing = set(names) - set(res["metrics"])
                if missing:
                    raise BenchError(f"trace lacks metrics {sorted(missing)}")
            else:
                res = measure(path, args.seed, args.seconds)
            print(report_text(name, args.seed, res, units, args.trace), flush=True)
            lines[name] = result_line(res, names, units, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(lines))
    else:
        print(json.dumps(lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch verification runner.

Loads a JSON run-config, executes the requested suites over sampled
points, and writes machine-readable reports (JSON and/or CSV) plus a
human-readable summary.  Exit status: 0 all suites pass, 1 any failure,
2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .base_geometry import metric_from_spec
from .suites import SUITE_ORDER, SUITES, SuiteContext, run_suite
from .weights import weights_from_spec

__all__ = ["RunConfig", "ConfigError", "load_config", "run", "write_report", "list_suites", "main"]

SCHEMA_VERSION = 1
FORMATS = ("json", "csv", "both")


class ConfigError(ValueError):
    pass


KEYS = ("base", "weights", "suites", "samples", "seed", "h", "tolerances", "chart_box",
        "fiber_range", "out", "format")


@dataclass(frozen=True)
class RunConfig:
    """A validated run: the suite context built from the config, the suites to run and
    their tolerance overrides, the report basename and format, and the config as the
    report echoes it."""

    context: SuiteContext
    suites: list
    tolerances: dict
    out: str | None
    format: str
    echo: dict


def load_config(doc) -> RunConfig:
    """Validate a run-config document and build the base metric, the weight pair and the
    chart box it names.  A missing, unknown or invalid field raises ConfigError naming
    the field."""
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    for key in doc:
        if key not in KEYS:
            raise ConfigError(f"config.{key}: unknown field; known: {', '.join(KEYS)}")
    for fld in ("base", "weights", "suites"):
        if fld not in doc:
            raise ConfigError(f"config.{fld}: missing required field")
    suites = doc["suites"]
    if not isinstance(suites, list) or not suites:
        raise ConfigError("config.suites: expected a non-empty list")
    for s in suites:
        if s not in SUITES:
            raise ConfigError(
                f"config.suites: unknown suite {s!r}; known: {', '.join(SUITE_ORDER)}"
            )
    samples = _integer(doc, "samples", 20, 1)
    seed = _integer(doc, "seed", 0, 0)
    h = doc.get("h", 1e-4)
    if type(h) not in (int, float) or not 0 < h < 1:
        raise ConfigError(f"config.h: expected a number in (0, 1), got {h!r}")
    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("config.tolerances: expected an object")
    for name, tol in tolerances.items():
        if name not in SUITES:
            raise ConfigError(f"config.tolerances.{name}: unknown suite")
        if type(tol) not in (int, float) or not 0 < tol < math.inf:
            raise ConfigError(f"config.tolerances.{name}: expected finite tol > 0, got {tol!r}")
    try:
        fiber_range = tuple(doc.get("fiber_range", (0.3, 1.5)))
        valid = len(fiber_range) == 2 and 0 < fiber_range[0] < fiber_range[1] < math.inf
    except TypeError:
        valid = False
    if not valid:
        raise ConfigError("config.fiber_range: expected finite 0 < lo < hi")
    fmt = doc.get("format", "both")
    if fmt not in FORMATS:
        raise ConfigError(f"config.format: expected one of {', '.join(FORMATS)}, got {fmt!r}")
    # GeometryError and WeightDomainError are ValueErrors, as are bad numbers in a spec
    try:
        base = metric_from_spec(doc["base"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"config.base: {exc}") from exc
    try:
        weights = weights_from_spec(doc["weights"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"config.weights: {exc}") from exc
    chart_box = doc.get("chart_box")
    if chart_box is not None:
        try:
            box = np.asarray(chart_box, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config.chart_box: {exc}") from exc
        if box.shape != (base.dim, 2) or not np.all(np.isfinite(box) & (box[:, :1] < box[:, 1:])):
            raise ConfigError(f"config.chart_box: expected {base.dim} finite rows lo < hi")
    else:
        box = np.tile(np.array([-0.4, 0.4]), (base.dim, 1))
    echo = {"base": doc["base"], "weights": doc["weights"], "suites": list(suites),
            "samples": samples, "seed": seed, "h": h, "tolerances": dict(tolerances),
            "chart_box": chart_box, "fiber_range": list(fiber_range)}
    return RunConfig(SuiteContext(base, weights, samples, seed, h, box, fiber_range),
                     list(suites), dict(tolerances), doc.get("out"), fmt, echo)


def _integer(doc, name, default, low):
    # doc[name] (or the default) if it is a JSON integer >= low (not a bool, a
    # fraction or a string), else ConfigError
    value = doc.get(name, default)
    if type(value) is not int:
        raise ConfigError(f"config.{name}: expected an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"config.{name}: must be >= {low}")
    return value


def run(cfg: RunConfig) -> dict:
    """Execute the configured suites and assemble the report."""
    start = time.monotonic()
    results = [run_suite(name, cfg.context, cfg.tolerances.get(name))
               for name in SUITE_ORDER if name in cfg.suites]
    report = {
        "schema": SCHEMA_VERSION,
        "config": cfg.echo,
        "suites": [r.as_dict() for r in results],
        "all_passed": bool(all(r.passed for r in results)),
        "wall_time_s": time.monotonic() - start,
    }
    return report


def write_report(report, out_path, fmt):
    out = Path(out_path)
    written = []
    if fmt in ("json", "both"):
        p = out.with_name(out.name + ".json")
        p.write_text(json.dumps(report, indent=2, sort_keys=True))
        written.append(p)
    if fmt in ("csv", "both"):
        p = out.with_name(out.name + ".csv")
        with p.open("w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["suite", "sample_index", "residual", "tolerance", "pass"])
            for suite in report["suites"]:
                for i, r in zip(suite["sample_indices"], suite["residuals"]):
                    wr.writerow(
                        [
                            suite["name"],
                            "" if i is None else i,
                            f"{r:.17g}",
                            f"{suite['tolerance']:.17g}",
                            int(r <= suite["tolerance"]),
                        ]
                    )
        written.append(p)
    return written


def list_suites(file=None):
    file = file or sys.stdout
    print(f"{len(SUITES)} verification suites:", file=file)
    for name in SUITE_ORDER:
        _, anchor, tol = SUITES[name]
        print(f"  {name} → {anchor}   (default tolerance {tol:g})", file=file)


def _summarize(report, file=None):
    file = file or sys.stdout
    for suite in report["suites"]:
        status = "PASS" if suite["passed"] else "FAIL"
        line = (
            f"[{status}] {suite['name']:<14s} max residual {suite['max_residual']:.3e}"
            f" (tol {suite['tolerance']:.1e}, n={suite['n_samples']})"
        )
        if suite["error"]:
            line += f"  error: {suite['error']}"
        bad = [c for c in suite["controls"] if not c["ok"]]
        if bad:
            line += "  failed controls: " + ", ".join(c["name"] for c in bad)
        print(line, file=file)
    print(
        ("all suites passed" if report["all_passed"] else "FAILURES present")
        + f" in {report['wall_time_s']:.1f}s",
        file=file,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tbgeom", description="tangent-bundle geometry verification runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("verify", help="run verification suites from a config")
    pv.add_argument("--config", required=True, help="path to the JSON run-config")
    pv.add_argument("--suite", action="append", default=None,
                    help="override the suite list (repeatable)")
    pv.add_argument("--samples", type=int, default=None)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--h", type=float, default=None, dest="h")
    pv.add_argument("--out", default=None, help="report basename (json/csv appended)")
    pv.add_argument("--format", choices=FORMATS, default=None)
    sub.add_parser("list-suites", help="print the suite catalogue")
    args = parser.parse_args(argv)

    if args.command == "list-suites":
        list_suites()
        return 0

    try:
        doc = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    overrides = {
        "suites": args.suite,
        "samples": args.samples,
        "seed": args.seed,
        "h": args.h,
        "out": args.out,
        "format": args.format,
    }
    if isinstance(doc, dict):
        doc.update((k, v) for k, v in overrides.items() if v is not None)
    try:
        cfg = load_config(doc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = run(cfg)
    _summarize(report)
    if cfg.out:
        for p in write_report(report, cfg.out, cfg.format):
            print(f"wrote {p}")
    return 0 if report["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())

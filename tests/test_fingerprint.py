"""Every residual and control of the shipped configs, pinned to the last bit.

``residual_fingerprint.json`` holds ``float.hex`` of each residual and
control value, and each residual's sample, of
``configs/{g1_flat,cg_sphere,kahler_case2}.json`` run with ``samples``
overridden to 4, and of the inline documents (``INLINE``): two at m = 3 (the
stacked dOmega, Lee-form and d(eta) maps, and the closed-form suites), one
over an m = 2 ``diagonal_polynomial`` base, and one whose chart box holds
inadmissible points, so that the sampler's x-by-x redraw is pinned too.  A
change that claims to keep the numbers bit-identical is checked here; a
change that moves them on purpose regenerates the file and says why.
Regenerate it from the repository root with

    PYTHONPATH=src python3 tests/test_fingerprint.py

and before that, to see what would move, compare without writing anything:

    PYTHONPATH=src python3 tests/test_fingerprint.py --compare

which prints, per document and suite, how many residuals moved and their largest
|new - pinned| as a share of the suite's tolerance, how many controls moved and
their largest as a share of each control's own bound, and whether the errors,
the sample indices and the control names are the pinned ones.
"""

import json
import sys
from pathlib import Path

import pytest

from tbgeom.cli import load_config, run

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).with_name("residual_fingerprint.json")
SAMPLES = 4
INLINE = {
    "cg_s3": {
        "base": {"kind": "space_form", "dim": 3, "params": {"curvature": 1.0}},
        "weights": {"name": "cheeger_gromoll"},
        "suites": ["lck", "almost_kahler", "sphere_bundle"],
    },
    "cg_s3_closed": {
        "base": {"kind": "space_form", "dim": 3, "params": {"curvature": 1.0}},
        "weights": {"name": "cheeger_gromoll"},
        "suites": ["base_checks", "curvature", "sectional", "scalar", "isometry", "k_contact"],
    },
    # the one base kind that is not a space form; positive definite on the default box
    "cg_poly2": {
        "base": {"kind": "diagonal_polynomial", "dim": 2, "params": {"entries": [
            [{"c": 1.0, "powers": [0, 0]}, {"c": 0.3, "powers": [1, 0]},
             {"c": 0.5, "powers": [0, 2]}],
            [{"c": 1.0, "powers": [0, 0]}, {"c": 1.0, "powers": [2, 0]},
             {"c": 0.2, "powers": [1, 1]}],
        ]}},
        "weights": {"name": "cheeger_gromoll"},
        "suites": ["base_checks", "connection", "curvature", "lck"],
    },
    # c = -1 is admissible only at |x| < 2, so the box holds inadmissible points and
    # the sampler redraws them x by x; flat_g1 is left out, as it fails off a flat base
    "cg_h2_box": {
        "base": {"kind": "space_form", "dim": 2, "params": {"curvature": -1.0}},
        "weights": {"name": "cheeger_gromoll"},
        "chart_box": [[-2.2, 2.2], [-2.2, 2.2]],
        "suites": ["base_checks", "lck", "almost_kahler", "kahler", "connection", "curvature",
                   "sectional", "scalar", "sphere_bundle", "isometry", "k_contact",
                   "oracle_cross"],
    },
}
CONFIGS = ("g1_flat", "cg_sphere", "kahler_case2", *INLINE)


def report_suites(name):
    """The suites of the report of document ``name`` at SAMPLES samples."""
    doc = INLINE.get(name) or json.loads((ROOT / "configs" / f"{name}.json").read_text())
    return run(load_config(dict(doc, samples=SAMPLES, out=None)))["suites"]


def pins(s):
    """One suite's fingerprint: its error, its residuals and controls (each number as
    float.hex), and each residual's sample."""
    return {
        "error": s["error"],
        "residuals": [float(r).hex() for r in s["residuals"]],
        "sample_indices": s["sample_indices"],
        "controls": [[c["name"], float(c["value"]).hex()] for c in s["controls"]],
    }


def fingerprint(name):
    """Per suite of document ``name``: its fingerprint."""
    return {s["name"]: pins(s) for s in report_suites(name)}


def first_difference(got, pinned):
    """Where one suite's fingerprint first departs from the pinned one, in words."""
    if got["error"] != pinned["error"]:
        return f"error {got['error']!r}, pinned {pinned['error']!r}"
    for kind in ("residuals", "sample_indices", "controls"):
        for i, (a, b) in enumerate(zip(got[kind], pinned[kind])):
            if a != b and kind == "controls":
                return f"control {i}: {a[0]} = {a[1]}, pinned {b[0]} = {b[1]}"
            if a != b:
                return f"{kind}[{i}]: {a}, pinned {b}"
        if len(got[kind]) != len(pinned[kind]):
            return f"{len(got[kind])} {kind}, pinned {len(pinned[kind])}"
    return f"fields {sorted(got)}, pinned {sorted(pinned)}"


@pytest.mark.parametrize("name", CONFIGS)
def test_residuals_and_controls_match_the_pinned_bits(name):
    got, pinned = fingerprint(name), json.loads(PINNED.read_text())[name]
    assert got.keys() == pinned.keys(), f"{name}: suites {list(got)}, pinned {list(pinned)}"
    for suite, want in pinned.items():
        assert got[suite] == want, f"{name} / {suite}: {first_difference(got[suite], want)}"


def suite_moves(s, want):
    """How the report suite ``s`` moved from its pinned fingerprint ``want``: for its
    residuals and for its controls, (moved, pinned, largest move), a move being
    |new - pinned| as a share of the suite's tolerance for a residual and of the
    control's own bound for a control; and whether the rest is the pinned fingerprint."""
    got = pins(s)

    def moved(pairs, scales):
        shares = [abs(float.fromhex(a) - float.fromhex(b)) / scale
                  for (a, b), scale in zip(pairs, scales) if a != b]
        return len(shares), len(pairs), max(shares, default=0.0)

    residuals = list(zip(got["residuals"], want["residuals"]))
    controls = [(a[1], b[1]) for a, b in zip(got["controls"], want["controls"])]
    same = (got["error"] == want["error"] and got["sample_indices"] == want["sample_indices"]
            and [c[0] for c in got["controls"]] == [c[0] for c in want["controls"]])
    return {"residuals": moved(residuals, [s["tolerance"]] * len(residuals)),
            "controls": moved(controls, [abs(c["bound"]) for c in s["controls"]]),
            "same": same}


def test_suite_moves_reads_a_control_move_as_a_share_of_its_own_bound():
    pinned = {"error": None, "residuals": [1.0.hex()], "sample_indices": [0],
              "controls": [["c", 1e-8.hex()]]}
    s = {"error": None, "residuals": [1.0], "sample_indices": [0], "tolerance": 1.0,
         "controls": [{"name": "c", "value": 1.5e-8, "bound": 1e-8}]}
    assert suite_moves(s, pinned) == {"residuals": (0, 1, 0.0),
                                      "controls": (1, 1, pytest.approx(0.5)), "same": True}


def compare():
    """Per document and suite, one line: ``suite_moves`` against the pinned fingerprint."""
    pinned = json.loads(PINNED.read_text())
    for name in CONFIGS:
        for s in report_suites(name):
            want = pinned.get(name, {}).get(s["name"])
            if want is None:
                print(f"{name} / {s['name']}: not pinned")
                continue
            m = suite_moves(s, want)
            (r, nr, wr), (c, nc, wc) = m["residuals"], m["controls"]
            print(f"{name} / {s['name']}: residuals {r} of {nr} moved, max {wr:.2e} of the "
                  f"tolerance; controls {c} of {nc} moved, max {wc:.2e} of their bounds; "
                  f"errors, sample indices and control names "
                  f"{'identical' if m['same'] else 'DIFFER'}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--compare"]:
        compare()
    else:
        PINNED.write_text(json.dumps({n: fingerprint(n) for n in CONFIGS}, indent=1) + "\n")
        print(f"wrote {PINNED}")

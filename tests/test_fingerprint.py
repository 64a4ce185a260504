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
"""

import json
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


def fingerprint(name):
    """Per suite: its error, its residuals and controls (each number as float.hex),
    and each residual's sample."""
    doc = INLINE.get(name) or json.loads((ROOT / "configs" / f"{name}.json").read_text())
    doc = dict(doc, samples=SAMPLES, out=None)
    return {
        s["name"]: {
            "error": s["error"],
            "residuals": [float(r).hex() for r in s["residuals"]],
            "sample_indices": s["sample_indices"],
            "controls": [[c["name"], float(c["value"]).hex()] for c in s["controls"]],
        }
        for s in run(load_config(doc))["suites"]
    }


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


if __name__ == "__main__":
    PINNED.write_text(json.dumps({n: fingerprint(n) for n in CONFIGS}, indent=1) + "\n")
    print(f"wrote {PINNED}")

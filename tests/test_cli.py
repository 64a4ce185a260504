"""Run-config validation, report artifacts, determinism, exit codes."""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
import sampling

from tbgeom import base_geometry as bg
from tbgeom import cli
from tbgeom import oracle as orc
from tbgeom import sphere_bundle as sb
from tbgeom import suites
from tbgeom import tangent_bundle as tb
from tbgeom.suites import Control, SuiteContext, SuiteResult, run_suite
from tbgeom.weights import WeightPair, named_family

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def base_cfg(**over):
    doc = {
        "base": {"kind": "space_form", "dim": 2, "params": {"curvature": 0.0}},
        "weights": {"name": "sasaki"},
        "suites": ["curvature"],
        "samples": 5,
        "seed": 11,
    }
    doc.update(over)
    return doc


def test_config_validation_errors_name_fields():
    with pytest.raises(cli.ConfigError, match="config.suites"):
        cli.load_config(base_cfg(suites=[]))
    with pytest.raises(cli.ConfigError, match="config.suites"):
        cli.load_config(base_cfg(suites=["nope"]))
    with pytest.raises(cli.ConfigError, match="config.samples"):
        cli.load_config(base_cfg(samples=0))
    with pytest.raises(cli.ConfigError, match="config.h"):
        cli.load_config(base_cfg(h=2.0))
    with pytest.raises(cli.ConfigError, match="config.tolerances"):
        cli.load_config(base_cfg(tolerances={"nope": 1e-3}))
    with pytest.raises(cli.ConfigError, match="config.base"):
        cli.run(cli.load_config(base_cfg(base={"kind": "nope", "dim": 2})))
    with pytest.raises(cli.ConfigError, match="config.weights"):
        cli.run(cli.load_config(base_cfg(weights={"name": "nope"})))


def test_sasaki_flat_curvature_suite_passes_tightly():
    cfg = cli.load_config(base_cfg(samples=20))
    rep = cli.run(cfg)
    suite = rep["suites"][0]
    assert suite["passed"]
    assert suite["max_residual"] <= 1e-8
    assert rep["all_passed"]


def test_flat_g1_config_passes():
    cfg = cli.load_config(
        base_cfg(weights={"name": "g1"}, suites=["flat_g1"], samples=50)
    )
    rep = cli.run(cfg)
    assert rep["all_passed"]


def test_oracle_cross_cg_sphere_passes():
    cfg = cli.load_config(
        base_cfg(
            base={"kind": "space_form", "dim": 2, "params": {"curvature": 1.0}},
            weights={"name": "cheeger_gromoll"},
            suites=["oracle_cross"],
            samples=20,
            h=1e-4,
        )
    )
    rep = cli.run(cfg)
    assert rep["all_passed"]
    controls = {c["name"]: c for c in rep["suites"][0]["controls"]}
    assert controls["connection_residual"]["value"] <= 1e-5
    assert controls["curvature_residual"]["value"] <= 1e-4


def test_kahler_suites_check_the_verified_conditions():
    # at seed 2 some sample points have a nearly closed Cheeger-Gromoll form (|dOmega| 7.2e-4)
    doc = json.loads((CONFIGS / "cg_sphere.json").read_text())
    doc.update(suites=["almost_kahler"], seed=2, out=None)
    rep = cli.run(cli.load_config(doc))
    assert rep["all_passed"]
    doc = json.loads((CONFIGS / "kahler_case2.json").read_text())
    doc.update(suites=["kahler"])
    rep = cli.run(cli.load_config(doc))
    assert rep["all_passed"]
    controls = {c["name"]: c["value"] for c in rep["suites"][0]["controls"]}
    assert controls["not_closed"] >= 1e-2
    assert max(controls["eq13_residual"], controls["eq14_residual"]) <= 1e-10


def test_kahler_not_closed_control_reads_at_least_four_points():
    # at one sample the control rested on one draw, and at seed 5 that draw's |dOmega| was
    # under the 1e-2 floor although the case-2 form is not closed
    doc = json.loads((CONFIGS / "kahler_case2.json").read_text())
    doc.update(suites=["kahler"], samples=1, seed=5, out=None)
    suite = cli.run(cli.load_config(doc))["suites"][0]
    assert suite["passed"], suite["controls"]
    assert sorted(set(suite["sample_indices"])) == [0, 1, 2, 3]


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_base_checks_pass_near_the_edge_of_the_hyperbolic_chart(seed):
    # c = -1 is admissible at |x| < 2; at |x| ~ 1.99 |Gamma| reaches 5e2, and the plain
    # central quotient at h = 1e-5 missed the correct closed form by up to 2.5e-2
    doc = {"base": {"kind": "space_form", "dim": 2, "params": {"curvature": -1.0}},
           "weights": {"name": "cheeger_gromoll"}, "chart_box": [[-2.2, 2.2], [-2.2, 2.2]],
           "suites": ["base_checks"], "samples": 20, "seed": seed, "out": None}
    suite = cli.run(cli.load_config(doc))["suites"][0]
    assert suite["passed"], max(suite["residuals"])


def test_determinism_bit_identical():
    cfg = cli.load_config(base_cfg(suites=["connection", "scalar"], samples=6))
    strip = lambda rep: json.dumps(
        {k: v for k, v in rep.items() if k != "wall_time_s"}, sort_keys=True
    )
    assert strip(cli.run(cfg)) == strip(cli.run(cfg))


def test_report_files_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_cfg(out=str(tmp_path / "report"))))
    rc = cli.main(["verify", "--config", str(cfg_path), "--format", "both"])
    assert rc == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["schema"] == 1
    assert rep["suites"][0]["anchor"]
    with open(tmp_path / "report.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["suite", "sample_index", "residual", "tolerance", "pass"]
    assert len(rows) == 1 + rep["suites"][0]["n_samples"]
    # exit 2 on malformed config
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["verify", "--config", str(bad)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(base_cfg(samples=-1)))
    assert cli.main(["verify", "--config", str(bad2)]) == 2
    # exit 1 when a suite fails: flat check against a curved configuration
    failing = tmp_path / "failing.json"
    failing.write_text(
        json.dumps(
            base_cfg(
                base={"kind": "space_form", "dim": 2, "params": {"curvature": 1.0}},
                weights={"name": "cheeger_gromoll"},
                suites=["flat_g1"],
                samples=4,
            )
        )
    )
    assert cli.main(["verify", "--config", str(failing)]) == 1


def test_every_residual_names_its_sample(tmp_path):
    n = 8
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_cfg(
        weights={"name": "g1"}, samples=n, out=str(tmp_path / "report"),
        suites=["connection", "flat_g1", "sphere_bundle", "oracle_cross"])))
    assert cli.main(["verify", "--config", str(cfg_path), "--format", "both"]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    got = {s["name"]: s["sample_indices"] for s in rep["suites"]}
    for s in rep["suites"]:
        assert len(s["sample_indices"]) == len(s["residuals"]) == s["n_samples"], s["name"]
    # four lift cases per sample
    assert got["connection"] == np.repeat(np.arange(n), 4).tolist()
    # the closed form and the oracle on each of the first k samples, then the closed form
    k = max(2, n // 10)
    assert got["flat_g1"] == [*np.repeat(np.arange(k), 2), *range(k, n)]
    # the same checks on every sample of the bundle
    bundle = got["sphere_bundle"]
    width = len(bundle) // max(2, n // 4)
    assert width > 1 and bundle == np.repeat(np.arange(max(2, n // 4)), width).tolist()
    # one suite-level maximum per check: no sample
    assert got["oracle_cross"] == [None] * 4
    with open(tmp_path / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    for s in rep["suites"]:
        column = [r["sample_index"] for r in rows if r["suite"] == s["name"]]
        assert column == ["" if i is None else str(i) for i in s["sample_indices"]], s["name"]


def test_cli_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_cfg()))
    rc = cli.main(
        ["verify", "--config", str(cfg_path), "--suite", "connection", "--samples", "3",
         "--seed", "5", "--out", str(tmp_path / "r"), "--format", "json"]
    )
    assert rc == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    assert [s["name"] for s in rep["suites"]] == ["connection"]
    assert rep["config"]["samples"] == 3
    assert rep["config"]["seed"] == 5
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("h", ["0", "5"])
def test_bad_step_override_exits_2(tmp_path, capsys, h):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_cfg(out=str(tmp_path / "report"))))
    assert cli.main(["verify", "--config", str(cfg_path), "--h", h]) == 2
    assert "config.h" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_base_checks_evaluate_the_jets_once_per_sample(monkeypatch):
    rows = []
    derivatives = bg.ChartMetric.derivatives

    def counted(self, x, *args):
        rows.append(len(np.atleast_2d(x)))
        return derivatives(self, x, *args)

    monkeypatch.setattr(bg.ChartMetric, "derivatives", counted)
    doc = base_cfg(base={"kind": "space_form", "dim": 3, "params": {"curvature": 1.0}},
                   suites=["base_checks"], samples=4)
    rep = cli.run(cli.load_config(doc))
    assert rep["all_passed"]
    # one stacked evaluation holding one row per sample
    assert rows == [4]


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def connection_context(samples):
    return SuiteContext(base=bg.SpaceForm(1.0, 2), weights=named_family("cheeger_gromoll"),
                        samples=samples, seed=3, h=1e-4, chart_box=np.tile([-0.4, 0.4], (2, 1)),
                        fiber_range=(0.3, 1.5))


def test_connection_suite_evaluates_one_stencil_table(monkeypatch):
    rows = []
    matrix = orc.InducedMetric.matrix

    def counted(self, q):
        rows.append(len(np.atleast_2d(q)))
        return matrix(self, q)

    monkeypatch.setattr(orc.InducedMetric, "matrix", counted)
    ctx = connection_context(5)
    assert run_suite("connection", ctx).passed
    # one metric evaluation on the distinct points of every sample's stencil: the
    # centre and 4 points along each of the 2m axes, as many rows as one call per
    # sample evaluated in all
    assert rows == [ctx.samples * (1 + 4 * 4)]


def test_connection_suite_reads_gamma_once_per_horizontal_lift(monkeypatch):
    rows = []
    christoffel = bg.christoffel

    def counted(metric, x):
        rows.append(len(x))
        return christoffel(metric, x)

    monkeypatch.setattr(bg, "christoffel", counted)
    ctx = connection_context(5)
    assert run_suite("connection", ctx).passed
    # X^H at the samples' points, once for the HH and HV cases, then Y^H on the
    # 5-point stencil of every sample in the HH and the VH case
    n = ctx.samples
    assert rows == [n, 5 * n, 5 * n]


def test_lck_suite_makes_one_chart_evaluation(monkeypatch):
    sizes = []
    derived = orc.derived_coeffs

    def counted(w, t):
        sizes.append(np.size(t))
        return derived(w, t)

    monkeypatch.setattr(orc, "derived_coeffs", counted)
    ctx = connection_context(5)
    assert run_suite("lck", ctx).passed
    # the samples' points and the 12 points of each dOmega stencil, as one stack
    assert sizes == [ctx.samples * 13]


def sphere_context(samples):
    return SuiteContext(base=bg.SpaceForm(1.0, 3), weights=named_family("cheeger_gromoll"),
                        samples=samples, seed=3, h=1e-4, chart_box=np.tile([-0.4, 0.4], (3, 1)),
                        fiber_range=(0.3, 1.5))


def test_sphere_bundle_suite_builds_its_points_once_and_calls_deta_once_per_bundle(monkeypatch):
    shapes = []
    deta_numeric = sb.deta_numeric

    def counted(P, w, vectors, *args, **kwargs):
        shapes.append((np.shape(P.t), np.shape(vectors)))
        return deta_numeric(P, w, vectors, *args, **kwargs)

    monkeypatch.setattr(sb, "deta_numeric", counted)
    ctx = sphere_context(12)
    sphere_point = sb.sphere_point
    points = []
    monkeypatch.setattr(sb, "sphere_point", lambda *a, **k: points.append(1) or sphere_point(*a, **k))
    res = run_suite("sphere_bundle", ctx)
    assert res.error is None and res.passed
    # both bundles' points in one stacked sphere point; then one d(eta) call per bundle
    # on its stacked point, with the 2 pairs of each of its n = 3 rows
    n = ctx.samples // 4
    assert points == [1]
    assert shapes == [((n,), (n, 2, 2, 6))] * 2


def test_sectional_suite_evaluates_the_weights_once_per_sample(monkeypatch):
    sizes = []
    evaluate = WeightPair.eval

    def counted(self, t):
        sizes.append(np.size(t))
        return evaluate(self, t)

    monkeypatch.setattr(WeightPair, "eval", counted)
    ctx = sphere_context(4)
    res = run_suite("sectional", ctx)
    assert res.error is None and res.passed
    # one evaluation on the stack's t, one value per sample
    assert sizes == [ctx.samples]


def validate_at_shapes(monkeypatch):
    # the shape of the x of every ChartMetric.validate_at call, in call order
    shapes, validate_at = [], bg.ChartMetric.validate_at
    monkeypatch.setattr(bg.ChartMetric, "validate_at",
                        lambda self, x: shapes.append(np.shape(x)) or validate_at(self, x))
    return shapes


def test_draw_redraws_an_x_inadmissible_for_an_override_base(monkeypatch):
    ctx = sphere_context(4)
    calls = validate_at_shapes(monkeypatch)
    rng = ctx.rng(0)
    P, _ = suites._draw(ctx, rng, 3)
    assert calls == [(3, 3)]  # one stack, and g and t as a single point has them
    Q = tb.TangentPoint.stack([tb.tangent_point(ctx.base, x, u) for x, u in zip(P.x, P.u)])
    assert P.t.tobytes() == Q.t.tobytes() and P.gx.tobytes() == Q.gx.tobytes()
    # an override base is checked too, and a point outside its domain is redrawn: its
    # stack fails after the context base's, and each x is then checked alone on both
    del calls[:]
    small = bg.SpaceForm(-30.0, 3)
    P, _ = suites._draw(ctx, rng, 8, base=small)
    assert P.base is small and np.all(np.vecdot(P.x, P.x) < 4 / 30)
    assert calls[:2] == [(8, 3)] * 2 and set(calls[2:]) == {(3,)}
    assert len(calls[2:]) >= 2 * 8 and len(calls[2:]) % 2 == 0


def box_context(base, box):
    return SuiteContext(base=base, weights=named_family("sasaki"), samples=6, seed=5, h=1e-4,
                        chart_box=np.asarray(box, dtype=float), fiber_range=(0.3, 1.5))


def hexed(*arrays):
    # every number of the arrays as float.hex, array by array
    return [[float(v).hex() for v in np.ravel(a)] for a in arrays]


# (base, chart box, whether some x of the box is inadmissible): c = -1 is admissible
# only at |x| < 2, the polynomial metric only at x0 > -1
BOXES = {
    "admissible": (bg.SpaceForm(-1.0, 2), [[-1.0, 1.0], [-1.0, 1.0]], False),
    "space_form": (bg.SpaceForm(-1.0, 2), [[-2.5, 2.5], [-2.5, 2.5]], True),
    "diagonal_polynomial": (bg.diagonal_polynomial(2, [[{"c": 1.0, "powers": [0, 0]},
                                                        {"c": 1.0, "powers": [1, 0]}],
                                                       [{"c": 1.0, "powers": [0, 0]}]]),
                            [[-2.0, 1.0], [-1.0, 1.0]], True),
}


@pytest.mark.parametrize("kind", sorted(BOXES))
def test_draws_equal_the_one_by_one_sampler(monkeypatch, kind):
    base, box, rejects = BOXES[kind]
    ctx = box_context(base, box)
    sf1, n = bg.SpaceForm(1.0, 2), 4

    def one_by_one(rng):  # x and a block; points of T(M) and a block; units on an override base
        return ([sampling.admissible_x(ctx, rng) + (rng.standard_normal(3),) for _ in range(n)],
                [(sampling.tangent_point(ctx, rng), rng.standard_normal((2, 2))) for _ in range(n)],
                [sampling.unit_point(ctx, rng, sf1) for _ in range(n)])

    rng_alone = ctx.rng(0)
    alone = [one_by_one(rng_alone) for _ in range(3)]
    calls = validate_at_shapes(monkeypatch)
    rng = ctx.rng(0)
    for xs, points, units in alone:  # the same samples drawn on stacks
        x, g, (z,) = ctx.draw(rng, n, lambda: (rng.standard_normal(3),))
        assert hexed(x, g, z) == hexed(*zip(*xs))
        P, vecs = suites._draw(ctx, rng, n, (2, 2))
        assert hexed(P.x, P.u, P.gx, P.t, np.moveaxis(vecs, 0, 1)) == hexed(
            *([getattr(Q, f) for Q, _ in points] for f in ("x", "u", "gx", "t")),
            [v for _, v in points])
        x, g, (d,) = ctx.draw(rng, n, lambda: (rng.standard_normal(2),), sf1)
        assert hexed(x, g, suites._unit(d, g)) == hexed(*zip(*units))
    assert rng.bit_generator.state == rng_alone.bit_generator.state
    # one stack per base and draw; where a stack holds an inadmissible x, its draw is
    # made again checking each x alone
    assert any(len(c) == 1 for c in calls) == rejects
    assert rejects or calls == [(n, 2)] * 3 * 4


def test_draw_runs_each_block_once_on_an_admissible_box():
    base, box, _ = BOXES["admissible"]
    ctx = box_context(base, box)
    rng, runs = ctx.rng(0), []
    x, g, (z,) = ctx.draw(rng, 5, lambda: runs.append(1) or (rng.standard_normal(3),))
    assert len(runs) == 5 and x.shape == (5, 2) and g.shape == (5, 2, 2) and z.shape == (5, 3)


def test_draw_on_a_box_with_no_admissible_point_raises():
    base, _, _ = BOXES["space_form"]
    ctx = box_context(base, [[2.5, 3.0], [2.5, 3.0]])
    rng = ctx.rng(0)
    with pytest.raises(bg.ChartDomainError, match="no admissible points"):
        ctx.draw(rng, 3, lambda: ())
    assert run_suite("scalar", ctx).error.startswith("ChartDomainError")


def test_kahler_suite_on_an_m3_base_names_the_dimension():
    # the suite checks its own m = 2 base, so x drawn from an m = 3 box cannot serve it
    res = run_suite("kahler", sphere_context(4))
    assert not res.passed and res.residuals == []
    assert res.error == "kahler suite checks its own m = 2 base, not one of m = 3"


def test_closed_m3_validates_each_draw_as_one_stack_per_base(monkeypatch):
    # the seed-7 closed_m3 benchmark run: the x of each draw are checked as one stack per
    # base, not once each, and a sphere point built on them checks its distinct x once
    calls, inside = {}, []
    validate_at, draw = bg.ChartMetric.validate_at, SuiteContext.draw

    def counted(self, x):
        calls[name].append(("draw" if inside else "point", self.name, len(x)))
        return validate_at(self, x)

    def marked(self, rng, n, block, base=None):
        inside.append(1)
        try:
            return draw(self, rng, n, block, base)
        finally:
            inside.pop()

    monkeypatch.setattr(bg.ChartMetric, "validate_at", counted)
    monkeypatch.setattr(SuiteContext, "draw", marked)
    cfg = cli.load_config({"base": {"kind": "space_form", "dim": 3, "params": {"curvature": 1.0}},
                           "weights": {"name": "sasaki"}, "samples": 80, "seed": 7,
                           "suites": ["base_checks", "sectional", "scalar", "sphere_bundle",
                                      "isometry", "k_contact"]})
    ctx = cli._build_context(cfg)
    for name in cfg.suites:
        calls[name] = []
        assert run_suite(name, ctx).passed, name
    s3, flat = ("draw", "space_form(c=1.0)"), ("draw", "space_form(c=0.0)")
    p3, pflat = ("point", "space_form(c=1.0)"), ("point", "space_form(c=0.0)")
    assert calls == {
        "base_checks": [(*s3, 80)], "sectional": [(*s3, 80)], "scalar": [(*s3, 80)],
        # the two bundles' 40 rows hold the 20 drawn x
        "sphere_bundle": [(*s3, 20), (*p3, 20)],
        # one unit point for both radii
        "isometry": [(*s3, 16), (*p3, 16)],
        # per unit stack a draw and its sphere point: the curvature-1 stack on the config
        # base (the same space form), then the flat override's draw, then the config base
        "k_contact": [(*s3, 20), (*p3, 20), (*s3, 2), (*flat, 2), (*pflat, 2), (*s3, 2), (*p3, 2)],
    }


def test_unknown_report_format_exits_2(tmp_path, capsys):
    with pytest.raises(cli.ConfigError, match="config.format"):
        cli.load_config(base_cfg(format="xml"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_cfg(format="xml", out=str(tmp_path / "report"))))
    assert cli.main(["verify", "--config", str(cfg_path)]) == 2
    assert "config.format" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("field,value", [
    ("samples", "abc"),
    ("seed", "x"),
    ("fiber_range", 5),
    ("chart_box", [["a", "b"], [0, 1]]),
    ("tolerances", {"curvature": "tight"}),
    ("base", {"kind": "space_form", "dim": "two", "params": {"curvature": 0.0}}),
    # samples and seed are JSON integers, seed >= 0
    ("samples", 2.7),
    ("samples", True),
    ("seed", -1),
    ("seed", 1.5),
    ("seed", False),
    # eps is the JSON integer -1 or +1 in both weight-spec forms
    ("weights", {"name": "cheeger_gromoll", "epsilon": 1.5}),
    ("weights", {"name": "cheeger_gromoll", "epsilon": True}),
    ("weights", {"a": {"poly": [1.0]}, "b": {"poly": [0.0]}, "epsilon": -1.9}),
    # finite numbers, tolerances > 0 and intervals lo < hi
    ("fiber_range", [0.3, math.inf]),  # JSON reads 1e400 as infinity
    ("chart_box", [[-0.4, math.inf], [-0.4, 0.4]]),
    ("chart_box", [[0.4, -0.4], [-0.4, 0.4]]),
    ("tolerances", {"curvature": math.nan}),
    ("tolerances", {"curvature": -1}),
    ("h", "1e-4"),
    ("weights", {"a": {"poly": [1.0]}, "b": {"poly": [0.0]}, "t_domain": [5, 1]}),
])
def test_wrongly_typed_config_value_exits_2(tmp_path, capsys, field, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_cfg(**{field: value}, out=str(tmp_path / "report"))))
    assert cli.main(["verify", "--config", str(cfg_path)]) == 2
    assert f"config.{field}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_negative_seed_override_exits_2(tmp_path, capsys):
    # a seed numpy cannot take is a config error, not a traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_cfg(out=str(tmp_path / "report"))))
    assert cli.main(["verify", "--config", str(cfg_path), "--seed", "-3"]) == 2
    assert "config.seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("residuals", [[1e-12, math.nan], [math.nan, 1e-12], [math.inf]])
def test_non_finite_residual_fails_its_suite(residuals):
    res = SuiteResult("x", "a", 1e-6, residuals=residuals)
    assert not math.isfinite(res.max_residual)
    assert not res.passed
    assert not res.as_dict()["passed"]
    assert SuiteResult("x", "a", 1e-6, residuals=[1e-12, 1e-9]).passed


def test_histogram_counts_every_residual_non_finite_ones_in_the_top_bin():
    rep = SuiteResult("x", "a", 1e-5, residuals=[1e-7, math.nan, 2.0, -math.inf]).as_dict()
    counts = rep["histogram"]["counts"]
    assert sum(counts) == rep["n_samples"] == 4
    # 1e-7 in [-7, -6); 2.0 clipped to 0, and the NaN and -inf with it, in the top bin
    assert counts[9] == 1 and counts[-1] == 3


def test_non_finite_control_fails_its_suite():
    for require, bound in (("min", 1e-2), ("max", 1e-2)):
        for value in (math.nan, math.inf):
            control = Control("c", value, bound, require)
            assert not control.ok
            assert not SuiteResult("x", "a", 1e-6, residuals=[1e-12], controls=[control]).passed


# where one call covers several samples, the axis of its output that runs over them
SAMPLE_AXIS = {"fd_curvature": 0, "deta_numeric": 0, "kahler_system_residuals": -1}


@pytest.mark.parametrize("suite,owner,name", [
    ("sphere_bundle", sb, "deta_numeric"),
    ("oracle_cross", orc, "fd_curvature"),
    ("kahler", suites, "kahler_system_residuals"),
])
def test_a_nan_after_a_finite_value_fails_its_suite(monkeypatch, suite, owner, name):
    # a suite's maximum over its samples must keep a NaN that follows finite values
    original, samples = getattr(owner, name), []

    def nan_after_the_first_sample(*args, **kwargs):
        out = np.array(original(*args, **kwargs), dtype=float)
        axis = SAMPLE_AXIS.get(name)
        if axis is None:  # one sample per call: NaN from the second call on
            if samples:
                out[...] = np.nan
            samples.append(1)
        else:  # every sample after the first
            np.moveaxis(out, axis, 0)[1:] = np.nan
            samples.append(out.shape[axis])
        return out

    monkeypatch.setattr(owner, name, nan_after_the_first_sample)
    ctx = SuiteContext(base=bg.SpaceForm(1.0, 2), weights=named_family("cheeger_gromoll"),
                       samples=2, seed=3, h=1e-4, chart_box=np.tile([-0.4, 0.4], (2, 1)),
                       fiber_range=(0.3, 1.5))
    res = run_suite(suite, ctx)
    assert sum(samples) >= 2 and res.error is None
    assert not res.passed


def test_list_suites_catalogue():
    buf = io.StringIO()
    cli.list_suites(file=buf)
    text = buf.getvalue()
    assert "13 verification suites" in text
    assert "flat_g1 → Prop. 2.17" in text
    assert "k_contact → Thm. 3.7" in text
    assert cli.main(["list-suites"]) == 0

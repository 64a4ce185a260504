"""Hypersurface structures: generators, contact data, the rescaling
isometry, the unit-bundle connection and the K-contact/Sasakian verdicts."""

import numpy as np
import pytest

import tbgeom.base_geometry as bg
import tbgeom.oracle as orc
import tbgeom.sphere_bundle as sb
import tbgeom.tangent_bundle as tb
from sampling import fd_directional
from tbgeom.suites import SuiteContext, run_suite
from tbgeom.weights import WeightPair, named_family

EU2 = bg.euclidean(2)
SF1 = bg.SpaceForm(1.0, 2)
SAS = named_family("sasaki")
CG = named_family("cheeger_gromoll")


def unit_point(base, x, direction, r=1.0):
    x = np.asarray(x, float)
    g = base.validate_at(x)
    d = np.asarray(direction, float)
    d = d / np.sqrt(d @ g @ d)
    return tb.tangent_point(base, x, r * d, r=r)


def hexes(a):
    # float.hex of every number in a (an array, a float, or a tuple of arrays)
    if isinstance(a, tuple):
        return [h for b in a for h in hexes(b)]
    return [float(v).hex() for v in np.ravel(a)]


def unit_points(base, pts):
    # the unit-bundle points (x, u) as one stacked point
    return tb.tangent_point(base, *map(np.array, zip(*pts)), r=1.0)


def test_tangent_point_radius_check():
    with pytest.raises(bg.GeometryError):
        tb.tangent_point(EU2, [0.0, 0.0], [1.0, 0.0], r=2.0)
    P = tb.tangent_point(EU2, [0.0, 0.0], [0.6, 0.8])
    assert P.r == pytest.approx(1.0)


def test_tangent_point_on_a_stack_checks_every_row_with_one_validation(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.4, 0.4, (4, 2))
    u = np.array([unit_point(SF1, xi, rng.standard_normal(2)).u for xi in x])
    for r in (1.3, None):
        singles = [tb.tangent_point(SF1, xi, 1.3 * ui, r=r) for xi, ui in zip(x, u)]
        calls = count_base_calls(monkeypatch, (bg.ChartMetric, "validate_at"))
        P = tb.tangent_point(SF1, x, 1.3 * u, r=r)
        assert calls["validate_at"] == 1
        for i, Pi in enumerate(singles):
            for f in ("x", "u", "gx"):
                assert getattr(P, f)[i].tobytes() == getattr(Pi, f).tobytes()
            assert P.t[i].hex() == Pi.t.hex()
    # the radius is checked at every row; a u off it anywhere raises
    u[2] *= 1.2 / 1.3
    with pytest.raises(bg.GeometryError, match="r\\^2"):
        tb.tangent_point(SF1, x, 1.3 * u, r=1.3)


def test_tangent_point_with_a_radius_has_t_of_the_radius():
    rng = np.random.default_rng(5)
    for r in (1.3, 1.0, None):
        for _ in range(20):
            x = rng.uniform(-0.3, 0.3, 2)
            d = rng.standard_normal(2)
            d = d / np.sqrt(d @ SF1.matrix(x) @ d)
            u = (1.0 if r is None else r) * d
            P = tb.tangent_point(SF1, x, u, r=r)
            assert isinstance(P, tb.TangentPoint) and isinstance(P.t, float)
            # t = r^2/2 for a given radius, else g(u, u)/2 as measured
            assert P.t == (0.5 * float(u @ SF1.matrix(x) @ u) if r is None else 0.5 * r**2)
            assert np.array_equal(P.q, np.concatenate([x, u]))


@pytest.mark.parametrize("holds", ["gamma", "R"])
def test_the_rescaling_map_evaluates_nothing_and_is_the_point_at_r_u(monkeypatch, holds):
    rng = np.random.default_rng(9)
    x = rng.uniform(-0.4, 0.4, (4, 3))
    x[2] = x[0]  # two rows over one x
    P = unit_points(SF3, [(xi, unit_point(SF3, xi, rng.standard_normal(3)).u) for xi in x])
    getattr(P, holds)
    P.values(CG)
    calls = count_base_calls(monkeypatch, (bg.ChartMetric, "validate_at"), (WeightPair, "eval"))
    monkeypatch.setattr(bg, "_curvature_jets", lambda *a: calls.update(base_jets=1))
    Q = P.at_radius(1.3)
    assert calls == {"matrix": 0, "derivatives": 0, "validate_at": 0, "eval": 0}
    # Gamma, and R and nabla R where P holds them, are P's own; the rest is Q's
    assert Q.gamma is P.gamma
    assert ("_jets" in vars(Q)) == (holds == "R") and "gu" not in vars(Q)
    if holds == "R":
        assert Q.R is P.R and Q.NR is P.NR
    monkeypatch.undo()
    want = tb.tangent_point(SF3, x, 1.3 * P.u, r=1.3)
    for f in ("x", "u", "gx", "t", "gamma", "gu", "gamma_u", "R", "NR", "Ru"):
        assert hexes(getattr(Q, f)) == hexes(getattr(want, f)), f
    assert hexes(Q.values(SAS).a) == hexes(want.values(SAS).a)
    # the map checks the radius as tangent_point does: P must be a unit point
    with pytest.raises(bg.GeometryError, match="r\\^2"):
        Q.at_radius(2.0)


def test_generators_flat_axis_fiber():
    # r = 1, Euclidean, u = e1: Z_1 = 0 and Z_2 = d/dv^2
    P = tb.tangent_point(EU2, [0.0, 0.0], [1.0, 0.0], r=1.0)
    deltas, verts = sb.generators(P)
    assert np.allclose(deltas[:, :2], np.eye(2)) and np.allclose(deltas[:, 2:], 0)
    assert np.allclose(verts[0], 0)
    assert np.allclose(verts[1], [0, 0, 0, 1])
    assert np.linalg.matrix_rank(verts, tol=1e-12) == 1


def test_generators_rank_and_tangency():
    rng = np.random.default_rng(0)
    for w, r in [(SAS, 1.7), (CG, 1.0)]:
        for _ in range(5):
            P = unit_point(SF1, rng.uniform(-0.3, 0.3, 2), rng.standard_normal(2), r)
            deltas, verts = sb.generators(P)
            assert np.max(np.abs(P.u @ verts)) <= 1e-12
            assert np.linalg.matrix_rank(verts, tol=1e-10) == P.base.dim - 1
            # tangency: the constraint gradient annihilates all generators
            amb = orc.InducedMetric(SF1, w).matrix(P.q)
            N = sb._normal(P.u, P.r, P.values(w))
            for row in np.vstack([deltas, verts]):
                assert abs(row @ amb @ N) <= 1e-12


def test_induced_metric_displays_match_ambient():
    rng = np.random.default_rng(1)
    for w, r in [(SAS, 1.0), (SAS, 2.0), (CG, 1.0), (named_family("g1"), 1.0)]:
        P = unit_point(SF1, rng.uniform(-0.3, 0.3, 2), rng.standard_normal(2), r)
        G_dd, G_dv, G_vv = sb.induced_metric(P, w)
        amb = orc.InducedMetric(SF1, w).matrix(P.q)
        deltas, verts = sb.generators(P)
        assert np.max(np.abs(deltas @ amb @ deltas.T - G_dd)) <= 1e-12
        assert np.max(np.abs(deltas @ amb @ verts.T - G_dv)) <= 1e-12
        assert np.max(np.abs(verts @ amb @ verts.T - G_vv)) <= 1e-12


def test_induced_metric_flat_unit_case():
    # r = 1, u = e1, Euclidean: G_r(Z_k, Z_l) = delta_kl on the nonzero rows
    P = tb.tangent_point(EU2, [0.4, 0.4], [1.0, 0.0], r=1.0)
    _, _, G_vv = sb.induced_metric(P, SAS)
    assert G_vv[1, 1] == pytest.approx(1.0)
    assert abs(G_vv[0, 0]) <= 1e-15
    # a weight pair scales the fiber block by a
    w4 = WeightPair(lambda t: 4.0, lambda t: 0.0, -1, name="a4")
    _, _, G_vv4 = sb.induced_metric(P, w4)
    g, gu = P.gx, P.gu
    assert np.allclose(G_vv4, 4.0 * (g - np.outer(gu, gu)))


@pytest.mark.parametrize("epsilon", [-1, +1])
def test_contact_structure_identities(epsilon):
    rng = np.random.default_rng(2)
    for w, r in [(SAS, 1.4), (CG, 1.0)]:
        for k in range(5):
            P = unit_point(SF1, rng.uniform(-0.3, 0.3, 2), rng.standard_normal(2), r)
            S = sb.contact_structure(P, w, rescaled=False, epsilon=epsilon)
            Pt = S.tangent_projector()
            for _ in range(10):
                U = Pt @ rng.standard_normal(4)
                V = Pt @ rng.standard_normal(4)
                assert np.max(np.abs(S.phi @ (S.phi @ U) + U - float(S.eta @ U) * S.xi)) <= 1e-10
                assert abs(float(S.eta @ (S.phi @ U))) <= 1e-10
                lhs = float((S.phi @ U) @ S.G @ (S.phi @ V))
                rhs = float(U @ S.G @ V) - float(S.eta @ U) * float(S.eta @ V)
                assert abs(lhs - rhs) <= 1e-10
            assert np.max(np.abs(S.phi @ S.xi)) <= 1e-10
            assert float(S.eta @ S.xi) == pytest.approx(1.0, abs=1e-10)


def test_contact_structure_displayed_components():
    rng = np.random.default_rng(3)
    P = unit_point(SF1, [0.2, -0.1], [0.8, 0.3])
    deltas, Ys = sb.generators(P)
    for eps in (-1, +1):
        S = sb.contact_structure(P, CG, rescaled=False, epsilon=eps)
        a = CG.eval(0.5).a
        # eta(delta_i) = -eps g_i0, eta(Y_i) = 0, xi = -eps y^k delta_k
        assert np.allclose(deltas @ S.eta, -eps * P.gu, atol=1e-13)
        assert np.allclose(Ys @ S.eta, 0, atol=1e-13)
        assert np.allclose(S.xi, -eps * (P.u @ deltas), atol=1e-13)
        # phi delta_i = (1/sqrt a) Y_i ; phi Y_i = -sqrt(a)(delta_i - g_i0 y^h delta_h)
        assert np.allclose(S.phi @ deltas.T, Ys.T / np.sqrt(a), atol=1e-13)
        expected = -np.sqrt(a) * (deltas.T - np.outer(P.u @ deltas, P.gu))
        assert np.allclose(S.phi @ Ys.T, expected, atol=1e-13)
    # the rescaled structure is sign-independent on tangent vectors
    Sm = sb.contact_structure(P, CG, rescaled=True, epsilon=-1)
    Sp = sb.contact_structure(P, CG, rescaled=True, epsilon=+1)
    assert np.allclose(Sm.xi, Sp.xi, atol=1e-13)
    assert np.allclose(Sm.eta, Sp.eta, atol=1e-13)
    assert np.allclose(Sm.G, Sp.G, atol=1e-13)
    Pt = Sm.tangent_projector()
    assert np.allclose(Sm.phi @ Pt, Sp.phi @ Pt, atol=1e-13)


def test_unrescaled_deta_display():
    P = unit_point(SF1, [0.1, 0.2], [0.5, -0.7])
    deltas, Ys = sb.generators(P)
    g, gu = P.gx, P.gu
    pairs = [(deltas[i], Ys[j]) for i in range(2) for j in range(2)]
    pairs += [(deltas[0], deltas[1]), (Ys[0], Ys[1])]
    vals = sb.deta_numeric(P, CG, pairs, rescaled=False)
    k = 0
    eps = CG.epsilon
    for i in range(2):
        for j in range(2):
            expect = (eps / 2) * (g[i, j] - gu[i] * gu[j])
            assert vals[k] == pytest.approx(expect, abs=1e-8)
            k += 1
    assert abs(vals[-2]) <= 1e-8
    assert abs(vals[-1]) <= 1e-8


def test_sphere_bundle_oracle_evaluation_counts(monkeypatch):
    calls = {"contact_structure": 0, "matrix": 0, "rows": 0}
    contact_structure, matrix = sb.contact_structure, orc.InducedMetric.matrix

    def counted_contact_structure(*args, **kwargs):
        calls["contact_structure"] += 1
        return contact_structure(*args, **kwargs)

    def counted_matrix(self, q):
        calls["matrix"] += 1
        calls["rows"] += len(np.atleast_2d(q))
        return matrix(self, q)

    monkeypatch.setattr(sb, "contact_structure", counted_contact_structure)
    monkeypatch.setattr(orc.InducedMetric, "matrix", counted_matrix)
    rows = count_rows(monkeypatch)
    P = unit_point(SF1, np.array([0.2, -0.1]), np.array([0.8, 0.45]))
    deltas, Ys = sb.generators(P)
    seen = []
    for pairs in ([(deltas[0], Ys[1])], [(deltas[0], Ys[1]), (deltas[1], Ys[0]), (Ys[0], Ys[1])]):
        rows.clear()
        vals = sb.deta_numeric(P, CG, pairs)
        seen.append((list(rows), vals[0]))
    # eta at the 4 Richardson points along each of U and V, all pairs' distinct
    # points as one stack and no contact_structure, with one base evaluation at their
    # distinct x: 8 points at 5 x for one pair (the 4 along the vertical Ys[1] keep
    # P's x), 16 points at 9 x for three pairs along 4 distinct vectors; and a pair's
    # value does not depend on the others
    assert seen[0][0] == [5] and seen[1][0] == [9]
    assert calls["contact_structure"] == 0
    assert seen[0][1] == seen[1][1]
    # the Gauss-formula connection: the 1 + 8m connection stencil as one stack,
    # whose row at P also gives the ambient metric for the normal
    calls.update(matrix=0, rows=0)
    sb.t1_connection_fd(P, CG, "dY", 0, 1)
    assert calls["matrix"] == 1 and calls["rows"] == 1 + 8 * 2


def test_t1_connection_fd_makes_one_chart_point_per_field_evaluation(monkeypatch):
    rows = []
    chart_point = orc._chart_point

    def counted(base, q):
        rows.append(len(q))
        return chart_point(base, q)

    monkeypatch.setattr(orc, "_chart_point", counted)
    P = unit_points(SF1, [(p.x, p.u) for p in (unit_point(SF1, [0.2, -0.1], [0.8, 0.45]),
                                                unit_point(SF1, [-0.3, 0.1], [0.2, 0.9]))])
    sb.t1_connection_fd(P, CG, np.array(["dY", "Yd"]), np.array([0, 1]), np.array([1, 0]))
    # the ambient metric on the 1 + 8m connection stencil of both rows, then the second
    # field on the 5-point stencil along the first, whose H and Y parts share one chart
    # point; the first field at P reads P itself
    assert rows == [2 * (1 + 8 * 2), 2 * 5]


def test_isometry_and_k_contact_evaluate_each_pair_once_per_point(monkeypatch):
    calls = []
    evaluate = WeightPair.eval

    def counted(self, t):
        calls.append(self.name)
        return evaluate(self, t)

    monkeypatch.setattr(WeightPair, "eval", counted)
    pts = [(p.x, p.u) for p in (unit_point(SF1, [0.2, -0.1], [0.8, 0.45]),
                                unit_point(SF1, [-0.3, 0.1], [0.2, 0.9]))]
    w4 = WeightPair(lambda t: 4.0, lambda t: 0.0, -1, name="a4")
    normals = np.random.default_rng(0).standard_normal((2, 2, 20, 4))
    sb.isometry_residuals(w4, unit_points(SF1, pts), normals, radii=(None, 1.0))
    # a(1/2) is read from the unit point's values; Sasaki's at each radius-r point
    assert calls == ["a4", "sasaki", "sasaki"]
    calls.clear()
    sb.k_contact_verdict(CG, unit_points(SF1, pts))
    assert calls == ["cheeger_gromoll"]


def test_rescaled_contact_metric_condition():
    rng = np.random.default_rng(4)
    # the radius-r bundle of any weight pair, the paper's two bundles first
    inputs = [(SAS, 1.6), (CG, 1.0)] + [
        (w.with_epsilon(eps), r)
        for w, r in [(CG, 1.3), (named_family("g1"), 0.7)]
        for eps in (-1, 1)
    ]
    for w, r in inputs:
        P = unit_point(SF1, [0.15, 0.05], rng.standard_normal(2), r)
        S = sb.contact_structure(P, w, rescaled=True)
        Pt = S.tangent_projector()
        pairs = [(Pt @ rng.standard_normal(4), Pt @ rng.standard_normal(4)) for _ in range(5)]
        dvals = sb.deta_numeric(P, w, pairs, rescaled=True)
        for (U, V), dv in zip(pairs, dvals):
            assert abs(dv - float(U @ S.G @ (S.phi @ V))) <= 1e-8


def test_isometry_identity_at_unit_weight():
    x = np.array([0.1, 0.2])
    g = EU2.matrix(x); u = np.array([0.6, 0.7]); u /= np.sqrt(u @ g @ u)
    normals = np.random.default_rng(0).standard_normal((1, 1, 20, 4))
    (res,) = sb.isometry_residuals(SAS, tb.tangent_point(EU2, x[None], u[None], r=1.0), normals)
    assert res["r"] == 1.0
    assert max(res["metric"], res["phi"], res["xi"]) <= 1e-14


@pytest.mark.parametrize("base", [EU2, SF1], ids=["euclidean", "sphere"])
def test_isometry_a4(base):
    rng = np.random.default_rng(5)
    w4 = WeightPair(lambda t: 4.0, lambda t: 0.0, -1, name="a4")
    pts = []
    for _ in range(3):
        x = rng.uniform(-0.3, 0.3, 2)
        g = base.matrix(x)
        u = rng.standard_normal(2)
        pts.append((x, u / np.sqrt(u @ g @ u)))
    normals = rng.standard_normal((2, 3, 20, 4))
    res, bad = sb.isometry_residuals(w4, unit_points(base, pts), normals, radii=(None, 1.0))
    assert res["r"] == pytest.approx(2.0)
    assert max(res["metric"], res["phi"], res["xi"]) <= 1e-12
    assert bad["metric"] >= 0.1


def test_isometry_residuals_evaluate_nothing_at_the_other_radii(monkeypatch):
    rng = np.random.default_rng(6)
    w4 = WeightPair(lambda t: 4.0, lambda t: 0.0, -1, name="a4")
    x = rng.uniform(-0.3, 0.3, (3, 2))
    P = unit_points(SF1, [(xi, unit_point(SF1, xi, rng.standard_normal(2)).u) for xi in x])
    calls = count_base_calls(monkeypatch, (bg.ChartMetric, "validate_at"))
    rows = count_rows(monkeypatch)
    normals = rng.standard_normal((2, 3, 20, 4))
    both = sb.isometry_residuals(w4, P, normals, radii=(None, 1.0))
    # the unit point's one first-order evaluation serves every radius, and no x is
    # validated again
    assert calls["validate_at"] == 0 and rows == [3]
    # the same numbers as one call per radius on its own normals
    assert both == [sb.isometry_residuals(w4, P, normals[[i]], radii=(r,))[0]
                    for i, r in enumerate((None, 1.0))]


def test_t1_connection_flat_base():
    P = unit_point(EU2, [0.3, -0.4], [0.7, 0.1])
    _, Ys = sb.generators(P)
    for i in range(2):
        for j in range(2):
            out = sb.t1_connection(P, SAS, "YY", i, j)
            assert np.allclose(out, -P.gu[j] * Ys[i], atol=1e-14)
            for case in ("dd", "Yd", "dY"):
                assert np.max(np.abs(sb.t1_connection(P, SAS, case, i, j))) <= 1e-14


def test_t1_connection_space_form_identity():
    # on the unit bundle of a curvature-1 base with a = 1:
    # nabla_{Y_i} delta_j = (1/2) R^k_{j0i} delta_k with space-form curvature
    P = unit_point(SF1, [0.1, 0.2], [0.9, -0.2])
    deltas, _ = sb.generators(P)
    g, gu, y = P.gx, P.gu, P.u
    for i in range(2):
        for j in range(2):
            out = sb.t1_connection(P, SAS, "Yd", i, j)
            coef = 0.5 * (g[i, j] * y - gu[j] * np.eye(2)[:, i])
            assert np.allclose(out, coef @ deltas, atol=1e-12)


@pytest.mark.parametrize("case", ["dd", "Yd", "dY", "YY"])
def test_t1_connection_matches_hypersurface_oracle(case):
    inputs = [
        (SF1, CG, [0.2, -0.1], [0.8, 0.45]),
        (SF1, SAS, [0.1, 0.25], [-0.3, 0.9]),
        (bg.SpaceForm(0.5, 3), named_family("g1"), [0.1, -0.2, 0.15], [0.7, 0.4, -0.3]),
        (bg.SpaceForm(0.5, 3), CG, [-0.2, 0.1, 0.05], [0.2, -0.6, 0.5]),
    ]
    for base, w, x, u in inputs:
        P = unit_point(base, x, u)
        for i in range(base.dim):
            for j in range(base.dim):
                closed = sb.t1_connection(P, w, case, i, j)
                num = sb.t1_connection_fd(P, w, case, i, j)
                assert np.max(np.abs(closed - num)) <= 1e-9


@pytest.mark.parametrize("m", [2, 3])
def test_t1_connection_rows_of_a_stack_equal_single_calls(m):
    # every case with i = j and i != j, one per row of one stacked point
    rng = np.random.default_rng(8)
    base, w = bg.SpaceForm(0.5, m), CG
    rows = [(c, i, j) for c in ("dd", "Yd", "dY", "YY")
            for i, j in ((0, 0), (0, m - 1), (m - 1, 0))]
    singles = [unit_point(base, rng.uniform(-0.4, 0.4, m), rng.standard_normal(m)) for _ in rows]
    P = unit_points(base, [(Q.x, Q.u) for Q in singles])
    case, i, j = (np.array(a) for a in zip(*rows))
    for f in (sb.t1_connection, sb.t1_connection_fd):
        stacked = f(P, w, case, i, j)
        for k, (Q, args) in enumerate(zip(singles, rows)):
            assert [v.hex() for v in stacked[k]] == [v.hex() for v in f(Q, w, *args)], (f, args)


def test_k_contact_verdicts():
    rng = np.random.default_rng(6)
    pts = []
    for _ in range(4):
        x = rng.uniform(-0.3, 0.3, 2)
        g = SF1.matrix(x)
        u = rng.standard_normal(2)
        pts.append((x, u / np.sqrt(u @ g @ u)))
    v = sb.k_contact_verdict(SAS, unit_points(SF1, pts))
    assert v["is_k_contact"] and v["is_sasakian"] and v["predicted_k_contact"]
    assert v["k_contact_residual"] <= 1e-8 and v["sasakian_residual"] <= 1e-8
    # curvature 4 base with a = 1/4: the theorem's positive branch again
    sf4 = bg.SpaceForm(4.0, 2)
    w14 = WeightPair(lambda t: 0.25, lambda t: 0.0, -1, name="a14")
    pts4 = []
    for x, u in pts:
        g = sf4.matrix(x)
        uu = u / np.sqrt(u @ g @ u)
        pts4.append((x, uu))
    v4 = sb.k_contact_verdict(w14, unit_points(sf4, pts4))
    assert v4["is_sasakian"] and v4["predicted_k_contact"]
    # negative branches
    w2 = WeightPair(lambda t: 2.0, lambda t: 0.0, -1, name="a2")
    v2 = sb.k_contact_verdict(w2, unit_points(SF1, pts))
    assert not v2["is_k_contact"] and not v2["predicted_k_contact"]
    assert v2["k_contact_residual"] >= 1e-2
    ue = np.array([1.0, 0.0])
    ve = sb.k_contact_verdict(SAS, unit_points(EU2, [(np.zeros(2), ue)]))
    assert not ve["is_k_contact"]
    assert ve["k_contact_residual"] >= 1e-2
    assert ve["sasakian_residual"] >= 1e-2  # phi is never parallel


def test_space_form_symmetrization_identity():
    # R^k_{0i0} = (1/a)(d^k_i - g_i0 y^k) on the unit bundle over curvature 1/a
    a = 0.5
    sf = bg.SpaceForm(1 / a, 2)
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.2, 0.2, 2)
    g = sf.matrix(x)
    u = rng.standard_normal(2); u /= np.sqrt(u @ g @ u)
    R = bg.curvature(sf, x)
    R0i0 = np.einsum("klij,l,j->ki", R, u, u)
    expect = (np.eye(2) - np.outer(u, g @ u)) / a
    assert np.max(np.abs(R0i0 - expect)) <= 1e-9


def count_base_calls(monkeypatch, *extra):
    # counts ChartMetric.matrix / derivatives calls (and any (owner, name) in extra)
    targets = [(bg.ChartMetric, "matrix"), (bg.ChartMetric, "derivatives"), *extra]
    calls = dict.fromkeys((name for _, name in targets), 0)
    for owner, name in targets:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def count_rows(monkeypatch):
    # the number of points of each ChartMetric.derivatives call, a stack or one point
    rows = []
    derivatives = bg.ChartMetric.derivatives

    def counted(self, x, *args, **kwargs):
        rows.append(len(np.atleast_2d(x)))
        return derivatives(self, x, *args, **kwargs)

    monkeypatch.setattr(bg.ChartMetric, "derivatives", counted)
    return rows


SF3 = bg.SpaceForm(1.0, 3)
M3_POINT = ([0.1, -0.2, 0.15], [0.7, 0.4, -0.3])
# the unit bundle under a weight pair and the Sasaki bundle of radius 1.3; the
# ids keep the names these cases had when the bundle was chosen by a string
BUNDLES = [(CG, 1.0), (SAS, 1.3)]
BUNDLE_IDS = ["ga_unit-w0-1.0", "sasaki_r-w1-1.3"]


@pytest.mark.parametrize("w,r", BUNDLES, ids=["ga_unit-w0-1.0", "sasaki_r-None-1.3"])
@pytest.mark.parametrize("rescaled", [False, True])
def test_contact_structure_evaluates_the_base_once(monkeypatch, w, r, rescaled):
    P = unit_point(SF3, *M3_POINT, r=r)
    calls = count_base_calls(monkeypatch, (WeightPair, "eval"))
    sb.contact_structure(P, w, rescaled=rescaled)
    # G, J, the normal and the rescaling all read P: first-order jets and the weights
    # at P.t, once each
    assert calls == {"matrix": 0, "derivatives": 1, "eval": 1}


@pytest.mark.parametrize("w,r", BUNDLES, ids=BUNDLE_IDS)
def test_a_second_contact_structure_at_a_point_evaluates_nothing(monkeypatch, w, r):
    P = unit_point(SF3, *M3_POINT, r=r)
    first = sb.contact_structure(P, w, rescaled=True)
    calls = count_base_calls(monkeypatch, (WeightPair, "eval"))
    second = sb.contact_structure(P, w, rescaled=True)
    flipped = sb.contact_structure(P, w, rescaled=True, epsilon=-w.epsilon)
    # the point keeps its Gamma and its weight values, which do not depend on eps:
    # nothing is evaluated again, for the pair or for its eps-flipped copy
    assert calls == {"matrix": 0, "derivatives": 0, "eval": 0}
    monkeypatch.undo()
    fresh = sb.contact_structure(unit_point(SF3, *M3_POINT, r=r), w, rescaled=True,
                                 epsilon=-w.epsilon)
    for f in ("phi", "xi", "eta", "G", "normal"):
        assert getattr(second, f).tobytes() == getattr(first, f).tobytes(), f
        assert getattr(flipped, f).tobytes() == getattr(fresh, f).tobytes(), f
    assert not np.array_equal(flipped.xi, first.xi)  # the sign is the flipped pair's


def plain_deta(P, w, vectors, h=1e-4):
    # d(eta)(U, V) = 1/2 (U eta(V) - V eta(U)) on the pulled-back extension, written out

    def eta(q):  # the eta of the radius-|y| bundle through q, at its t = g(y, y)/2
        return sb.contact_structure(orc._chart_point(P.base, q), w, rescaled=True).eta

    def along(U, V):
        return fd_directional(lambda q: float(eta(q) @ V), P.q, U, h=h)

    return np.array([(along(U, V) - along(V, U)) / 2 for U, V in vectors])


@pytest.mark.parametrize("w,r", BUNDLES, ids=BUNDLE_IDS)
def test_deta_numeric_evaluates_each_base_point_once(monkeypatch, w, r):
    P = unit_point(SF3, *M3_POINT, r=r)
    deltas, Ys = sb.generators(P)
    pairs = [(deltas[0], Ys[1]), (deltas[2], deltas[1])]
    expected = plain_deta(P, w, pairs)
    calls = count_base_calls(monkeypatch, (bg.ChartMetric, "validate_at"), (WeightPair, "eval"),
                             (orc, "j_matrix"), (orc, "_metric_matrix"))
    rows = count_rows(monkeypatch)
    got = sb.deta_numeric(P, w, pairs)
    # 8 eta evaluations a pair at 16 distinct points: one stacked first-order
    # evaluation of the base metric at their 13 distinct x (the 4 points along the
    # vertical Ys[1] keep P's x), each row checked there (no validate_at), and the
    # weights on the array of chart t = g(y, y)/2; J and G are built once, on the
    # whole stack
    assert calls == {"matrix": 0, "derivatives": 1, "validate_at": 0, "eval": 1,
                     "j_matrix": 1, "_metric_matrix": 1}
    assert rows == [13]
    assert np.array_equal(got, expected)
    # a 2-row stacked point with one pair list per row: one evaluation for both rows,
    # each row equal to the single call bit for bit
    Q = unit_point(SF3, [0.2, 0.1, -0.1], [0.3, -0.5, 0.6], r=r)
    dQ, YQ = sb.generators(Q)
    both = [pairs, [(dQ[1], YQ[0]), (YQ[2], dQ[0])]]
    singles = [got, sb.deta_numeric(Q, w, both[1])]
    rows.clear()
    PQ = tb.tangent_point(SF3, *(np.stack([getattr(A, f) for A in (P, Q)]) for f in "xu"), r=r)
    stacked = sb.deta_numeric(PQ, w, both)
    assert len(rows) == 1 and stacked.shape == (2, 2)
    for one, many in zip(singles, stacked):
        assert [v.hex() for v in many.tolist()] == [v.hex() for v in one.tolist()]


def test_deta_numeric_raises_on_an_indefinite_stencil():
    # g = diag(x1, 1) is positive definite only for x1 > 0; the stencil around
    # x1 = 5e-5 steps to x1 = -5e-5 and must raise there, never return NaN
    base = bg.diagonal_polynomial(
        2, [[{"c": 1.0, "powers": [1, 0]}], [{"c": 1.0, "powers": [0, 0]}]])
    P = unit_point(base, [5e-5, 0.0], [0.0, 1.0])
    deltas, Ys = sb.generators(P)
    with pytest.raises(bg.SingularMetricError):
        sb.deta_numeric(P, CG, [(deltas[0], Ys[0])])


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("w,r", BUNDLES, ids=BUNDLE_IDS)
@pytest.mark.parametrize("epsilon", [-1, 1])
def test_contact_structure_metric_and_j_are_the_oracle_maps(monkeypatch, m, w, r, epsilon):
    base = bg.SpaceForm(1.0, m)
    x, u = (v[:m] for v in M3_POINT)
    P = unit_point(base, x, u, r=r)
    w_eps = w.with_epsilon(epsilon)
    seen = []
    j_matrix = orc.j_matrix

    def recorded(*args):
        seen.append(j_matrix(*args))
        return seen[-1]

    monkeypatch.setattr(orc, "j_matrix", recorded)
    S = sb.contact_structure(P, w, epsilon=epsilon)
    monkeypatch.undo()
    [J] = seen
    # the oracle maps read P itself, with the weights at the bundle's t = r^2/2 ...
    assert S.G.tobytes() == orc._metric_matrix(P, w_eps).tobytes()
    assert J.tobytes() == orc.j_matrix(P, w_eps).tobytes()
    # ... and agree with them at the chart point of P.q, whose t = g(y, y)/2 may differ
    # from P.t in the last bit
    chart = orc._chart_point(base, P.q)
    for got, want in ((S.G, orc._metric_matrix(chart, w_eps)), (J, orc.j_matrix(chart, w_eps))):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(S.normal, sb._normal(P.u, P.r, P.values(w_eps)))
    assert S.xi.tobytes() == (-J @ S.normal).tobytes()


def test_k_contact_suite_shares_one_jet_evaluation_between_its_curvature_1_verdicts(monkeypatch):
    calls = []
    curvature_jets = bg._curvature_jets

    def counted(metric, x):
        calls.append((metric, len(x)))
        return curvature_jets(metric, x)

    monkeypatch.setattr(bg, "_curvature_jets", counted)
    ctx = SuiteContext(base=bg.SpaceForm(0.5, 3), weights=CG, samples=16, seed=3, h=1e-4,
                       chart_box=np.tile([-0.4, 0.4], (3, 1)), fiber_range=(0.3, 1.5))
    assert run_suite("k_contact", ctx).passed
    # the 4 curvature-1 points (the Sasaki and the a = 2 verdicts), then the 2 flat
    # points and the 2 points of the configured base
    assert [n for _, n in calls] == [4, 2, 2]
    assert calls[0][0].curvature == 1.0 and calls[2][0] is ctx.base

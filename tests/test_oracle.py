"""The finite-difference coordinate oracle and its agreement with the
adapted-frame closed forms."""

import numpy as np
import pytest

import tbgeom.base_geometry as bg
import tbgeom.jets as jets
import tbgeom.oracle as orc
import tbgeom.sphere_bundle as sb
import tbgeom.tangent_bundle as tb
from tbgeom.suites import SuiteContext, _lck_terms, run_suite
from tbgeom.weights import WeightDomainError, WeightPair, kahler_family, named_family

SAS = named_family("sasaki")
CG = named_family("cheeger_gromoll")
EU2 = bg.euclidean(2)
SF1 = bg.SpaceForm(1.0, 2)


def test_induced_metric_sasaki_flat_is_identity():
    im = orc.InducedMetric(EU2, SAS)
    rng = np.random.default_rng(0)
    for _ in range(3):
        q = rng.uniform(-1, 1, 4)
        assert np.allclose(im.matrix(q), np.eye(4))


def test_induced_metric_cg_flat_unit_fiber():
    im = orc.InducedMetric(EU2, CG)
    u = np.array([0.6, 0.8])  # |u| = 1
    q = np.concatenate([[0.2, -0.3], u])
    G = im.matrix(q)
    assert np.allclose(G[:2, :2], np.eye(2))
    assert np.allclose(G[:2, 2:], 0)
    assert np.allclose(G[2:, 2:], (np.eye(2) + np.outer(u, u)) / 2)


def test_induced_metric_symmetric_positive_definite():
    im = orc.InducedMetric(SF1, SAS)
    rng = np.random.default_rng(1)
    for _ in range(5):
        q = np.concatenate([rng.uniform(-0.4, 0.4, 2), rng.uniform(-1, 1, 2)])
        G = im.matrix(q)
        assert np.max(np.abs(G - G.T)) <= 1e-15
        assert np.linalg.eigvalsh(G).min() > 0


def lift_matrix(base, x, y):
    """Frame change M with columns = coordinate components of (delta_i, d/dy^i)."""
    m = base.dim
    gamma = bg.christoffel(base, x)
    gy = np.einsum("kij,j->ki", gamma, y)
    M = np.eye(2 * m)
    M[m:, :m] = -gy
    Minv = np.eye(2 * m)
    Minv[m:, :m] = gy
    return M, Minv


def test_induced_metric_block_identities():
    im = orc.InducedMetric(SF1, CG)
    rng = np.random.default_rng(2)
    q = np.concatenate([rng.uniform(-0.3, 0.3, 2), rng.uniform(-1, 1, 2)])
    x, y = q[:2], q[2:]
    V = im.matrix(q)[2:, 2:]
    g = SF1.matrix(x)
    vals = CG.eval(0.5 * y @ g @ y)
    gu = g @ y
    assert np.allclose(V, vals.a * g + vals.b * np.outer(gu, gu))
    # conjugation by the frame change reproduces the full matrix
    M, Minv = lift_matrix(SF1, x, y)
    Gad = np.zeros((4, 4))
    Gad[:2, :2] = g
    Gad[2:, 2:] = V
    assert np.allclose(Minv.T @ Gad @ Minv, im.matrix(q), atol=1e-14)


def test_fd_connection_flat_sasaki_zero():
    im = orc.InducedMetric(EU2, SAS)
    gam = orc.fd_connection(im, np.array([0.1, 0.2, 0.5, -0.4]))
    assert np.max(np.abs(gam)) <= 1e-12


def test_fd_connection_symmetry_and_closed_form_agreement():
    im = orc.InducedMetric(SF1, CG)
    rng = np.random.default_rng(3)
    q = np.concatenate([rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.9, 0.9, 2)])
    gam = orc.fd_connection(im, q)
    assert np.max(np.abs(gam - gam.transpose(0, 2, 1))) <= 1e-7
    P = tb.tangent_point(SF1, q[:2], q[2:])
    X, Y = rng.standard_normal(2), rng.standard_normal(2)
    closed = orc.split_to_coord(tb.bundle_connection(CG, SF1, P, "HH", X, Y))
    U = orc.lift_field(SF1, X, "H")(q)
    num = orc.fd_lift_connection(gam, q, U, orc.lift_field(SF1, Y, "H"))
    assert np.max(np.abs(closed - num)) <= 1e-5


def test_fd_connection_is_fourth_order():
    # the one quotient rule, central differences with one Richardson step: the error
    # drops ~16x per h-halving, measured against the same rule at a much smaller step
    im = orc.InducedMetric(SF1, CG)
    q = np.array([0.2, -0.1, 0.6, 0.5])
    ref = orc.fd_connection(im, q, h=1e-3)
    errs = [np.max(np.abs(orc.fd_connection(im, q, h=h) - ref)) for h in (8e-2, 4e-2, 2e-2)]
    assert errs[0] / errs[1] >= 10.0
    assert errs[1] / errs[2] >= 10.0


def test_fd_curvature_flat_cases():
    im_sas = orc.InducedMetric(EU2, SAS)
    q = np.array([0.3, 0.1, 0.8, -0.2])
    assert np.max(np.abs(orc.fd_curvature(im_sas, q))) <= 1e-8
    im_g1 = orc.InducedMetric(EU2, named_family("g1"))
    assert np.max(np.abs(orc.fd_curvature(im_g1, q))) <= 1e-6


def test_fd_curvature_antisymmetry_and_bianchi():
    im = orc.InducedMetric(SF1, CG)
    q = np.array([0.15, -0.2, 0.5, 0.6])
    R = orc.fd_curvature(im, q)
    assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) <= 1e-4
    cyc = R + R.transpose(0, 3, 1, 2) + R.transpose(0, 2, 3, 1)
    assert np.max(np.abs(cyc)) <= 1e-4


def test_fd_curvature_matches_closed_form():
    im = orc.InducedMetric(SF1, CG)
    rng = np.random.default_rng(4)
    q = np.concatenate([rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.9, 0.9, 2)])
    P = tb.tangent_point(SF1, q[:2], q[2:])
    Rhat = orc.fd_curvature(im, q)
    for case in ["HHH", "HHV", "HVH", "HVV", "VVH", "VVV"]:
        X, Y, Z = (rng.standard_normal(2) for _ in range(3))
        closed = orc.split_to_coord(tb.bundle_curvature(CG, SF1, P, case, X, Y, Z))
        Uc = orc.lift_field(SF1, X, case[0])(q)
        Vc = orc.lift_field(SF1, Y, case[1])(q)
        Wc = orc.lift_field(SF1, Z, case[2])(q)
        num = np.einsum("hkij,k,i,j->h", Rhat, Wc, Uc, Vc)
        assert np.max(np.abs(closed - num)) <= 1e-4


def test_exterior_derivative_conventions():
    # d(df) = 0 for the energy density function
    def df(q, v):
        x, y = q[:2], q[2:]
        g = SF1.matrix(x)
        gj = bg.christoffel(SF1, x)
        # t = y g y / 2: partial derivatives in coordinates
        dg = SF1.derivatives(x)[1]
        grad = np.concatenate([0.5 * np.einsum("lij,i,j->l", dg, y, y), g @ y])
        return float(grad @ v)

    q = np.array([0.2, -0.1, 0.7, 0.3])
    rng = np.random.default_rng(5)
    for _ in range(3):
        v1, v2 = rng.standard_normal(4), rng.standard_normal(4)
        assert abs(orc.fd_exterior_derivative(df, q, [v1, v2])) <= 1e-6


def test_cg_fundamental_form_differential_structure():
    """The nonzero slot of the CG form differential is horizontal-vertical-
    vertical and proportional to g(X,Y) g(Z,u) - g(X,Z) g(Y,u)."""
    base, w = EU2, CG
    q = np.array([0.1, 0.4, 0.7, -0.5])
    x, y = q[:2], q[2:]
    g = base.matrix(x)
    gu = g @ y

    def om(qq, va, vb):
        return float(va @ orc.omega_matrix(base, w, qq) @ vb)

    m = 2
    H = [np.concatenate([e, np.zeros(m)]) for e in np.eye(m)]
    V = [np.concatenate([np.zeros(m), e]) for e in np.eye(m)]
    # vanishing slots
    assert abs(orc.fd_exterior_derivative(om, q, [H[0], H[1], V[0]])) <= 1e-6
    assert abs(orc.fd_exterior_derivative(om, q, [V[0], V[1], H[0]]) - (
        orc.fd_exterior_derivative(om, q, [H[0], V[0], V[1]]))) >= 0  # smoke
    # HVV slot structure: ratio to the displayed bracket is t-dependent only
    vals = []
    for (i, j, k) in [(0, 0, 1), (1, 0, 1)]:
        X, Y, Z = np.eye(m)[i], np.eye(m)[j], np.eye(m)[k]
        bracket = float((X @ g @ Y) * (Z @ gu) - (X @ g @ Z) * (Y @ gu))
        d = orc.fd_exterior_derivative(om, q, [H[i], V[j], V[k]])
        vals.append((d, bracket))
    ratios = [d / b for d, b in vals if abs(b) > 1e-12]
    assert len(ratios) >= 2
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-5)


def test_fd_nijenhuis():
    q = np.array([0.25, -0.1, 0.6, 0.4])
    rng = np.random.default_rng(6)
    U, V = rng.standard_normal(4), rng.standard_normal(4)
    assert np.max(np.abs(orc.fd_nijenhuis(EU2, SAS, q, U, V))) <= 1e-7
    # matches the adapted closed forms on lift slots
    P = tb.tangent_point(SF1, q[:2], q[2:])
    X, Y = rng.standard_normal(2), rng.standard_normal(2)
    for slots, kinds in [("HH", "HH"), ("VV", "VV")]:
        closed = orc.split_to_coord(tb.nijenhuis(CG, SF1, P, X, Y, slots))
        Uc = orc.lift_field(SF1, X, kinds[0])(q)
        Vc = orc.lift_field(SF1, Y, kinds[1])(q)
        num = orc.fd_nijenhuis(SF1, CG, q, Uc, Vc)
        assert np.max(np.abs(closed - num)) <= 1e-5


def test_fd_nijenhuis_kahler_family_all_slots():
    base = bg.SpaceForm(-1.0, 2)
    pair = kahler_family(2, -1.0, 2.0)
    rng = np.random.default_rng(7)
    for _ in range(6):
        q = np.concatenate([rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.8, 0.8, 2)])
        U, V = rng.standard_normal(4), rng.standard_normal(4)
        assert np.max(np.abs(orc.fd_nijenhuis(base, pair, q, U, V))) <= 1e-5


def test_lee_covector_solves_lck_identity():
    rng = np.random.default_rng(8)
    for base, w in [(SF1, CG), (bg.SpaceForm(-1.0, 2), named_family("g1"))]:
        q = np.concatenate([rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.9, 0.9, 2)])

        def om(qq, va, vb):
            return float(va @ orc.omega_matrix(base, w, qq) @ vb)

        lee = orc.lee_covector(base, w, q)
        Om = orc.omega_matrix(base, w, q)
        for _ in range(4):
            vs = [rng.standard_normal(4) for _ in range(3)]
            dom = orc.fd_exterior_derivative(om, q, vs)
            assert dom == pytest.approx(orc.wedge_1_2(lee, Om, *vs), abs=1e-9)


def test_every_chart_derivative_steps_through_one_central_quotient(monkeypatch):
    calls = []
    quotients = orc._quotients

    def counted(values, h):
        out = quotients(values, h)
        calls.append(len(out))  # the directions it differences along
        return out

    monkeypatch.setattr(orc, "_quotients", counted)
    q = np.array([0.25, -0.1, 0.6, 0.4])
    U, V, W = np.eye(4)[0], np.eye(4)[3], np.array([0.3, -0.2, 0.5, 0.1])

    def om(qq, va, vb):
        return float(va @ orc.omega_matrix(SF1, CG, qq) @ vb)

    x, u = np.array([0.2, -0.1]), np.array([0.8, 0.45])
    P = sb.sphere_point(SF1, x, u / np.sqrt(u @ SF1.matrix(x) @ u), r=1.0)
    deltas, Ys = sb.generators(P)
    # (path, directions of each call of the one quotient rule)
    paths = {
        "fd_connection(ChartMetric)": (lambda: orc.fd_connection(SF1, q[:2]), [2]),
        "fd_exterior_derivative": (lambda: orc.fd_exterior_derivative(om, q, [U, V, W]), [1] * 3),
        "fd_nijenhuis": (lambda: orc.fd_nijenhuis(SF1, CG, q, U, V), [4]),
        # the connection on the 4-dim chart, then one field derivative
        "t1_connection_fd": (lambda: sb.t1_connection_fd(P, CG, "dY", 0, 1), [4, 1]),
        # eta(V) along U and eta(U) along V
        "deta_numeric": (lambda: sb.deta_numeric(P, CG, [(deltas[0], Ys[1])]), [1, 1]),
        # the connection at each point of the outer stencil, then its partials
        "fd_curvature": (lambda: orc.fd_curvature(orc.InducedMetric(SF1, CG), q), [4, 4]),
    }
    for name, (path, directions) in paths.items():
        calls.clear()
        path()
        assert calls == directions, name


def test_a_step_that_does_not_move_the_point_raises():
    im = orc.InducedMetric(SF1, CG)
    q = np.array([0.15, -0.2, 0.5, 0.6])
    for h in (0.0, -1e-4):
        with pytest.raises(ValueError, match="underflows"):
            orc.fd_connection(im, q, h=h)
    # a step below the spacing of the floats at a coordinate leaves it where it was
    with pytest.raises(ValueError, match="underflows"):
        orc.fd_directional(lambda p: p, np.array([1e20, 0.0]), [1.0, 0.0])
    with pytest.raises(ValueError, match="underflows"):
        orc.fd_curvature(SF1, np.array([[0.1, 0.2], [0.3, 1e17]]))


# the probe points of the benchmark's per-layer counts (bench/child.py)
PROBES = {2: ([0.1, -0.2], [0.7, 0.4]), 3: ([0.1, -0.2, 0.15], [0.7, 0.4, -0.3])}


@pytest.mark.parametrize("m,christoffels,matrices", [(2, 37, 133), (3, 77, 293)])
def test_fd_curvature_evaluates_each_stencil_point_once(monkeypatch, m, christoffels, matrices):
    # the plain nested stencil makes (2m * 4 + 1)^2 evaluations of each: 289 at
    # m = 2, 625 at m = 3; only the distinct points q and base points x remain
    calls = {"christoffel": 0, "matrix": 0, "jets": [], "batches": 0}
    christoffel, matrix = bg.christoffel, orc.InducedMetric.matrix
    derivatives = bg.ChartMetric.derivatives

    def counted_christoffel(*args):
        calls["christoffel"] += 1
        return christoffel(*args)

    def counted_matrix(self, q):
        # one call evaluates every row of a stack of points
        calls["matrix"] += len(np.atleast_2d(q))
        calls["batches"] += 1
        return matrix(self, q)

    def counted_derivatives(self, x, *args):
        calls["jets"].append(len(np.atleast_2d(x)))  # the rows of one stacked evaluation
        return derivatives(self, x, *args)

    monkeypatch.setattr(bg, "christoffel", counted_christoffel)
    monkeypatch.setattr(orc.InducedMetric, "matrix", counted_matrix)
    monkeypatch.setattr(bg.ChartMetric, "derivatives", counted_derivatives)
    x, u = PROBES[m]
    im = orc.InducedMetric(bg.SpaceForm(1.0, m), CG)
    orc.fd_curvature(im, np.array(x + u))
    first = dict(calls)
    assert first["christoffel"] == 0 and first["matrix"] == matrices
    # the whole two-level stencil is evaluated as one stack
    assert first["batches"] == 1
    # its distinct base points as one stacked jet evaluation, none through christoffel
    assert first["jets"] == [christoffels]
    # a second identical call counts the same: nothing outlives a call
    calls.update(christoffel=0, matrix=0, jets=[], batches=0)
    orc.fd_curvature(im, np.array(x + u))
    assert calls == first
    assert sorted(vars(im)) == ["base", "weights"]


def test_first_order_readers_build_no_higher_jets(monkeypatch):
    # christoffel, the oracle's base points and the sphere-bundle oracles
    # read only g and dg, so they never form a third-order jet product
    calls = []
    sym_gh = jets._sym_gh

    def counted(*args):
        calls.append(1)
        return sym_gh(*args)

    base = bg.SpaceForm(1.0, 3)
    x, u = (np.array(v) for v in PROBES[3])
    u = u / np.sqrt(u @ base.matrix(x) @ u)
    # the generators read Gamma from the point's full jets: take them before counting,
    # and hand the oracles a fresh point
    deltas, Ys = sb.generators(sb.sphere_point(base, x, u, r=1.0))
    P = sb.sphere_point(base, x, u, r=1.0)
    monkeypatch.setattr(jets, "_sym_gh", counted)
    bg.christoffel(base, x)
    sb.t1_connection_fd(P, CG, "dY", 0, 1)
    sb.deta_numeric(P, CG, [(deltas[0], Ys[1])])
    orc.fd_curvature(orc.InducedMetric(base, CG), np.concatenate([x, u]))
    assert calls == []
    # the counter sees the third-order jets that curvature needs
    bg.curvature(base, x)
    assert calls


@pytest.mark.parametrize("base,w", [
    (bg.euclidean(2), named_family("g1")),
    (SF1, CG),
    (bg.SpaceForm(-0.5, 3), named_family("lck_example")),
    (bg.euclidean(3), SAS),
    (SF1, kahler_family(1, 1.0, -0.5)),  # eps = +1
])
def test_induced_metric_on_a_stack_matches_each_single_call_bit_for_bit(base, w):
    m = base.dim
    rng = np.random.default_rng(m)
    qs = np.concatenate([rng.uniform(-0.4, 0.4, (40, m)), rng.uniform(-0.9, 0.9, (40, m))], axis=1)
    qs[1] = qs[0]  # a repeated point
    qs[2, :m] = qs[3, :m]  # two points over one base point
    im = orc.InducedMetric(base, w)
    stacked = im.matrix(qs)
    assert stacked.shape == (40, 2 * m, 2 * m)
    for q, G in zip(qs, stacked):
        assert G.tobytes() == im.matrix(q).tobytes()
    # the chart point, each derived coefficient and the maps built on it
    *chart, d = orc._chart_point(base, w, qs)
    maps = [orc.j_matrix, orc.omega_matrix, orc.lee_covector]
    on_stack = [f(base, w, qs) for f in maps]
    assert [a.shape for a in on_stack] == [(40, 2 * m, 2 * m)] * 2 + [(40, 2 * m)]
    for i, q in enumerate(qs):
        *one, e = orc._chart_point(base, w, q)
        assert [a[i].tobytes() for a in chart] == [a.tobytes() for a in one]
        for many, single in ((d, e), (d.values, e.values)):
            for name, value in vars(single).items():
                if name != "values":
                    assert float(getattr(many, name)[i]).hex() == value.hex(), name
        for f, a in zip(maps, on_stack):
            assert a[i].tobytes() == f(base, w, q).tobytes(), f.__name__


def test_chart_point_on_a_stack_through_the_zero_section_raises_at_eps_plus_1():
    # A(t), B(t) are undefined at t = 0 for eps = +1: one such row fails the whole stack
    w = WeightPair(CG.a, CG.b, +1, CG.t_domain, CG.name, CG.params)
    qs = np.array([[0.1, -0.2, 0.5, 0.6], [0.1, -0.2, 0.0, 0.0], [0.3, 0.1, -0.4, 0.2]])
    orc.InducedMetric(SF1, w).matrix(qs)  # the metric itself is defined there
    with pytest.raises(WeightDomainError, match="zero section"):
        orc._chart_point(SF1, w, qs)
    with pytest.raises(WeightDomainError, match="zero section"):
        orc.j_matrix(SF1, w, qs)


def test_fd_connection_evaluates_its_stencil_as_one_stack(monkeypatch):
    rows = []
    matrix = orc.InducedMetric.matrix

    def counted(self, q):
        rows.append(len(np.atleast_2d(q)))
        return matrix(self, q)

    im = orc.InducedMetric(SF1, CG)
    q = np.array([0.15, -0.2, 0.5, 0.6])
    # the public quotients, every point evaluated alone where it is used
    expected = bg._levi_civita(np.linalg.inv(im.matrix(q)), plain_partials(im.matrix, q))
    monkeypatch.setattr(orc.InducedMetric, "matrix", counted)
    got = orc.fd_connection(im, q)
    # the centre and four points along each of the 2m coordinates
    assert rows == [1 + 4 * 4]
    assert got.tobytes() == expected.tobytes()


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_horizontal_lift_reads_one_christoffel_per_distinct_x(monkeypatch):
    q = np.array([0.15, -0.2, 0.5, 0.6])
    X, Y = np.array([0.3, -0.7]), np.array([0.8, 0.1])
    gamma = orc.fd_connection(orc.InducedMetric(SF1, CG), q)

    def plain_h(p):
        return np.concatenate([Y, -np.einsum("kij,j,i->k", bg.christoffel(SF1, p[:2]), p[2:], Y)])

    # nabla_U V with V evaluated alone at each point, U = (0, X) the vertical lift
    U0 = np.concatenate([np.zeros(2), X])
    expected = orc.fd_directional(plain_h, q, U0) + np.einsum("kij,i,j->k", gamma, U0, plain_h(q))
    calls = count_calls(monkeypatch, bg, "christoffel")
    U = orc.lift_field(SF1, X, "V")(q)
    got = orc.fd_lift_connection(gamma, q, U, orc.lift_field(SF1, Y, "H"))
    # the field at q and at the four stencil points along the vertical (0, X) share x
    assert len(calls) == 1
    assert got.tobytes() == expected.tobytes()


def test_fd_nijenhuis_evaluates_one_base_point_per_distinct_x(monkeypatch):
    q = np.array([0.15, -0.2, 0.5, 0.6])
    U, V = np.array([0.0, 0.0, 1.0, 0.3]), np.array([0.0, 0.0, -0.2, 0.9])
    h = 1e-5

    def J(p):
        return orc.j_matrix(SF1, CG, p)

    J0 = J(q)
    dJ = {k: orc.fd_directional(J, q, v, h=h) for k, v in
          {"JU": J0 @ U, "JV": J0 @ V, "U": U, "V": V}.items()}
    expected = dJ["JU"] @ V - dJ["JV"] @ U + J0 @ (dJ["V"] @ U) - J0 @ (dJ["U"] @ V)
    rows = []
    derivatives = bg.ChartMetric.derivatives

    def counted(self, x, *args):
        rows.append(len(np.atleast_2d(x)))  # the rows of one stacked evaluation
        return derivatives(self, x, *args)

    monkeypatch.setattr(bg.ChartMetric, "derivatives", counted)
    got = orc.fd_nijenhuis(SF1, CG, q, U, V, h=h)
    # J at q, then its 16-point stencil as one stack at 9 distinct x: q's, which the
    # vertical U and V stencils keep, and 4 points along each of JU, JV
    assert rows == [1, 1 + 4 + 4]
    assert got.tobytes() == expected.tobytes()


def plain_partials(fun, q, h=1e-4):
    # d_k fun(q) on axis 0, each from the public directional derivative
    return np.stack([orc.fd_directional(fun, q, e, h=h) for e in np.eye(len(q))])


def _plain_fd_curvature(im, q, h=1e-4):
    # the nested stencil with no memo: every point evaluated where it is used
    def conn(p):
        return bg._levi_civita(np.linalg.inv(im.matrix(p)), plain_partials(im.matrix, p, h))

    return bg._curvature_from(conn(q), plain_partials(conn, q, h))


@pytest.mark.parametrize("base,w,q", [
    (bg.euclidean(3), named_family("g1"), [0.2, -0.1, 0.3, 0.9, -0.4, 0.6]),
    (SF1, CG, [0.15, -0.2, 0.5, 0.6]),
])
def test_fd_curvature_is_bit_identical_to_the_uncached_stencil(base, w, q):
    im = orc.InducedMetric(base, w)
    q = np.array(q)
    assert np.array_equal(orc.fd_curvature(im, q), _plain_fd_curvature(im, q))


def test_connection_suite_makes_one_fd_connection_call_per_sample(monkeypatch):
    calls = []
    fd_connection = orc.fd_connection

    def counted(metric, q, *args, **kwargs):
        calls.append(np.shape(q))
        return fd_connection(metric, q, *args, **kwargs)

    monkeypatch.setattr(orc, "fd_connection", counted)
    ctx = SuiteContext(base=SF1, weights=CG, samples=3, seed=0, h=1e-4,
                       chart_box=np.tile([-0.4, 0.4], (2, 1)), fiber_range=(0.3, 1.5))
    res = run_suite("connection", ctx)
    assert res.error is None and res.passed
    # one call on the stack of the samples' points, one row per sample
    assert calls == [(ctx.samples, 4)]


@pytest.mark.parametrize("fn", [orc.j_matrix, orc.omega_matrix, orc.lee_covector])
def test_pointwise_maps_evaluate_the_base_once(monkeypatch, fn):
    # g and Gamma come from one first-order jet evaluation, with no separate g(x)
    x, u = PROBES[3]
    q = np.array(x + u)
    base = bg.SpaceForm(1.0, 3)
    expected = fn(base, CG, q)
    calls = {"matrix": 0, "derivatives": 0}
    for name in calls:
        original = getattr(bg.ChartMetric, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(bg.ChartMetric, name, counted)
    got = fn(base, CG, q)
    assert calls == {"matrix": 0, "derivatives": 1}
    assert got.tobytes() == expected.tobytes()


def lck_terms_from_public_maps(base, w, q, vecs, h):
    """dOmega, lee ^ Omega and d(lee) with every chart point built afresh."""

    def omega_form(p, v1, v2):
        return float(v1 @ orc.omega_matrix(base, w, p) @ v2)

    def lee_1form(p, v):
        return float(orc.lee_covector(base, w, p) @ v)

    wed = orc.wedge_1_2(orc.lee_covector(base, w, q), orc.omega_matrix(base, w, q), *vecs)
    return (orc.fd_exterior_derivative(omega_form, q, vecs, h=h), wed,
            orc.fd_exterior_derivative(lee_1form, q, vecs[:2], h=h))


@pytest.mark.parametrize("m", [2, 3])
def test_lck_terms_build_one_chart_point_per_distinct_point(monkeypatch, m):
    base = bg.SpaceForm(1.0, m)
    w = named_family("lck_example")
    rng = np.random.default_rng(m)
    q = np.concatenate([rng.uniform(-0.3, 0.3, m), rng.uniform(-0.8, 0.8, m)])
    vecs = [rng.standard_normal(2 * m) for _ in range(3)]
    expected = lck_terms_from_public_maps(base, w, q, vecs, 1e-4)
    calls = []
    derivatives = bg.ChartMetric.derivatives

    def counted(self, x, *args):
        calls.append(len(np.atleast_2d(x)))  # the rows of one stacked evaluation
        return derivatives(self, x, *args)

    monkeypatch.setattr(bg.ChartMetric, "derivatives", counted)
    got = _lck_terms(base, w, q, vecs, 1e-4)
    # one evaluation of 13 rows: the centre and the 12 points of the dOmega stencil
    # (4 along each of the 3 vectors); the d(lee) stencil along v1 and v2 is 8 of those 12
    assert calls == [13]
    assert got == expected

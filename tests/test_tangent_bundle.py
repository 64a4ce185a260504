"""Adapted-frame closed forms: metric, complex structure, connection,
curvature, sectional and scalar curvature."""

import math

import numpy as np
import pytest

import tbgeom.base_geometry as bg
import tbgeom.tangent_bundle as tb
from tbgeom.weights import (
    WeightDomainError,
    WeightPair,
    almost_kahler_complete,
    derived_coeffs,
    kahler_family,
    named_family,
)

from sampling import random_split_vector, reference_bundle_curvature

SAS = named_family("sasaki")
CG = named_family("cheeger_gromoll")
G1 = named_family("g1")
EU2 = bg.euclidean(2)
SF1 = bg.SpaceForm(1.0, 2)


def point(base, x, u):
    return tb.tangent_point(base, np.asarray(x, float), np.asarray(u, float))


def compatibility_residual(w, P, rng, n_pairs=100):
    """max |g_A(JU, JV) - g_A(U, V)| over random pairs."""
    worst = 0.0
    for _ in range(n_pairs):
        U = random_split_vector(P, rng)
        V = random_split_vector(P, rng)
        JU = tb.almost_complex(w, P, U)
        JV = tb.almost_complex(w, P, V)
        worst = max(worst, abs(tb.bundle_metric(w, P, JU, JV) - tb.bundle_metric(w, P, U, V)))
    return worst


def scalar_constancy_residual(w, c, m, t, dt=1e-5):
    """Central t-derivative of the space-form scalar curvature; vanishes
    identically exactly when the weight pair keeps the scalar curvature
    constant over a curvature-c base."""
    lo, hi = w.t_domain
    dt = min(dt, 0.25 * max(t - lo, 1e-12), 0.25 * max(hi - t, 1e-12))
    up = tb.scalar_curvature_space_form(w, c, m, t + dt)
    dn = tb.scalar_curvature_space_form(w, c, m, t - dt)
    return (up - dn) / (2 * dt)


def test_tangent_point_energy_cache():
    P = point(SF1, [0.1, 0.2], [0.7, -0.4])
    assert P.t == pytest.approx(0.5 * P.u @ P.gx @ P.u, abs=1e-16)
    assert P.t >= 0


def test_bundle_metric_sasaki_relations():
    P = point(EU2, [0.0, 0.0], [1.0, 2.0])
    X, Y = np.array([1.0, -0.5]), np.array([0.3, 0.8])
    XH, YH = tb.SplitVector.horizontal(X, P), tb.SplitVector.horizontal(Y, P)
    XV, YV = tb.SplitVector.vertical(X, P), tb.SplitVector.vertical(Y, P)
    assert tb.bundle_metric(SAS, P, XH, YH) == pytest.approx(X @ Y)
    assert tb.bundle_metric(SAS, P, XV, YV) == pytest.approx(X @ Y)
    assert tb.bundle_metric(SAS, P, XH, YV) == 0.0


def test_bundle_metric_cg_vertical_norm():
    # |u|^2 = 2t = 1: g_A(u^V, u^V) = (1/2)(1 + 1) = 1
    P = point(EU2, [0.3, 0.3], [1.0, 0.0])
    uV = tb.SplitVector.vertical(P.u, P)
    assert P.t == pytest.approx(0.5)
    assert tb.bundle_metric(CG, P, uV, uV) == pytest.approx(1.0, rel=1e-14)


def test_bundle_metric_bilinear_zero():
    P = point(SF1, [0.1, -0.2], [0.5, 0.5])
    Z = tb.SplitVector(np.zeros(2), np.zeros(2), P)
    V = random_split_vector(P, np.random.default_rng(0))
    assert tb.bundle_metric(CG, P, Z, V) == 0.0


def test_base_point_mismatch_raises():
    P1 = point(EU2, [0.0, 0.0], [1.0, 0.0])
    P2 = point(EU2, [0.0, 0.1], [1.0, 0.0])
    with pytest.raises(tb.BasePointMismatch):
        tb.bundle_metric(SAS, P1, tb.SplitVector.horizontal([1, 0], P1),
                         tb.SplitVector.horizontal([1, 0], P2))


def test_base_other_than_the_points_raises():
    P = point(SF1, [0.1, 0.2], [0.7, -0.4])
    other = bg.SpaceForm(1.0, 2)  # same metric, different object
    X, Y, Z = np.eye(2)[0], np.eye(2)[1], np.array([0.3, 0.5])
    with pytest.raises(tb.BasePointMismatch):
        tb.bundle_curvature(CG, other, P, "HHH", X, Y, Z)
    with pytest.raises(tb.BasePointMismatch):
        tb.bundle_connection(CG, other, P, "HV", X, Y)
    with pytest.raises(tb.BasePointMismatch):
        tb.scalar_curvature(CG, other, P)


def test_one_jet_evaluation_per_point(monkeypatch):
    base = bg.SpaceForm(1.0, 3)
    x, u = np.array([0.1, -0.2, 0.15]), np.array([0.7, 0.4, -0.3])
    P = point(base, x, u)
    calls = []
    derivatives = bg.ChartMetric.derivatives

    def counted(self, *args):
        calls.append(1)
        return derivatives(self, *args)

    monkeypatch.setattr(bg.ChartMetric, "derivatives", counted)
    X, Y, Z = np.array([1.0, -0.5, 0.2]), np.array([0.3, 0.8, -0.1]), np.array([0.4, 0.1, 0.9])
    for case in ("HH", "HV", "VH", "VV"):
        tb.bundle_connection(CG, base, P, case, X, Y)
    for case in ("HHH", "HHV", "HVH", "HVV", "VVH", "VVV"):
        tb.bundle_curvature(CG, base, P, case, X, Y, Z)
    for slots in ("HH", "VV"):
        tb.nijenhuis(CG, base, P, X, Y, slots)
    for mode in ("closed", "basis"):
        tb.scalar_curvature(CG, base, P, mode=mode)
    assert len(calls) == 1
    monkeypatch.undo()
    # the point's jets are those of the stand-alone base functions, bit for bit
    assert np.array_equal(P.gamma, bg.christoffel(base, x))
    assert np.array_equal(P.R, bg.curvature(base, x))
    assert np.array_equal(P.NR, bg.nabla_curvature(base, x))


CG_POLY2 = bg.diagonal_polynomial(2, [
    [{"c": 1.0, "powers": [0, 0]}, {"c": 0.3, "powers": [1, 0]}, {"c": 0.5, "powers": [0, 2]}],
    [{"c": 1.0, "powers": [0, 0]}, {"c": 1.0, "powers": [2, 0]}, {"c": 0.2, "powers": [1, 1]}],
])


@pytest.mark.parametrize("base", [bg.SpaceForm(1.0, 3), bg.euclidean(2), bg.SpaceForm(-1.0, 3),
                                  CG_POLY2], ids=["c1", "c0", "c-1", "cg_poly2"])
def test_gamma_reads_first_order_jets_until_r_is_read(monkeypatch, base):
    rng = np.random.default_rng(12)
    x, u = rng.uniform(-0.4, 0.4, (2, 6, base.dim))
    singles = [point(base, a, b) for a, b in zip(x, u)]
    stacked = tb.tangent_point(base, x, u)

    def refuse(*args):
        raise AssertionError("third-order jets evaluated before R was read")

    monkeypatch.setattr(bg, "base_jets", refuse)
    first = [(P, P.gamma, P.gamma_u) for P in (*singles, stacked)]
    monkeypatch.undo()
    calls = []
    base_jets = bg.base_jets

    def counted(metric, at):
        calls.append(1)
        return base_jets(metric, at)

    monkeypatch.setattr(bg, "base_jets", counted)
    for i, (P, gamma, gamma_u) in enumerate(first):
        P.R
        assert len(calls) == i + 1  # one evaluation of R, nabla R (and Gamma) per point
        assert P.gamma is gamma and P.gamma_u is gamma_u
        # the two orders give Gamma bit for bit
        assert gamma.tobytes() == base_jets(base, P.x)[0].tobytes()
    for P, (gamma, gamma_u) in zip(singles, zip(stacked.gamma, stacked.gamma_u)):
        assert (P.gamma.tobytes(), P.gamma_u.tobytes()) == (gamma.tobytes(), gamma_u.tobytes())


def test_almost_complex_sasaki_swaps_lifts():
    P = point(EU2, [0.2, 0.1], [0.4, 0.9])
    X = np.array([0.7, -0.2])
    JH = tb.almost_complex(SAS, P, tb.SplitVector.horizontal(X, P))
    assert np.allclose(JH.h, 0) and np.allclose(JH.v, X)
    JV = tb.almost_complex(SAS, P, tb.SplitVector.vertical(X, P))
    assert np.allclose(JV.h, -X) and np.allclose(JV.v, 0)


def test_almost_complex_cg_on_fiber_direction():
    P = point(SF1, [0.2, -0.3], [0.8, 0.5])
    uH = tb.SplitVector.horizontal(P.u, P)
    uV = tb.SplitVector.vertical(P.u, P)
    JuH = tb.almost_complex(CG, P, uH)
    assert np.allclose(JuH.h, 0, atol=1e-14) and np.allclose(JuH.v, P.u, atol=1e-14)
    JuV = tb.almost_complex(CG, P, uV)
    assert np.allclose(JuV.h, -P.u, atol=1e-14) and np.allclose(JuV.v, 0, atol=1e-14)


@pytest.mark.parametrize("pair", [SAS, CG, G1, kahler_family(2, -1.0, 2.0)],
                         ids=lambda p: p.name)
def test_almost_complex_squares_to_minus_one(pair):
    rng = np.random.default_rng(4)
    P = point(EU2, [0.1, 0.4], [0.9, -0.3])
    for _ in range(100):
        U = random_split_vector(P, rng)
        JJU = tb.almost_complex(pair, P, tb.almost_complex(pair, P, U))
        assert np.max(np.abs(JJU.h + U.h)) <= 1e-10
        assert np.max(np.abs(JJU.v + U.v)) <= 1e-10


def test_compatibility_residuals():
    rng = np.random.default_rng(5)
    P1 = point(EU2, [0.0, 0.0], [1.0, 0.0])
    assert compatibility_residual(SAS, P1, rng=rng) <= 1e-12
    P2 = point(SF1, [0.2, 0.1], [1.0, 0.63])  # t ~ 0.7
    assert compatibility_residual(CG, P2, rng=rng) <= 1e-10
    P3 = point(bg.SpaceForm(-1.0, 2), [0.1, 0.1], [0.5, 0.4])
    assert compatibility_residual(kahler_family(2, -1.0, 2.0), P3, rng=rng) <= 1e-10


def test_kahler_form_cg_displays():
    P = point(SF1, [0.15, -0.1], [0.7, 0.4])
    s = math.sqrt(1 + 2 * P.t)
    rng = np.random.default_rng(6)
    for _ in range(5):
        X, Y = rng.standard_normal(2), rng.standard_normal(2)
        XH, YH = (tb.SplitVector.horizontal(v, P) for v in (X, Y))
        XV, YV = (tb.SplitVector.vertical(v, P) for v in (X, Y))
        assert tb.kahler_form(CG, P, XH, YH) == pytest.approx(0.0, abs=1e-14)
        assert tb.kahler_form(CG, P, XV, YV) == pytest.approx(0.0, abs=1e-14)
        gXY = float(X @ P.gx @ Y)
        gXu, gYu = float(X @ P.gu), float(Y @ P.gu)
        display = -(gXY + gXu * gYu / (1 + s)) / s
        assert tb.kahler_form(CG, P, XH, YV) == pytest.approx(display, rel=1e-12)
        U, V = random_split_vector(P, rng), random_split_vector(P, rng)
        assert abs(tb.kahler_form(CG, P, U, V) + tb.kahler_form(CG, P, V, U)) <= 1e-12
        # Omega(JU, U) = g_A(U, U)
        JU = tb.almost_complex(CG, P, U)
        assert tb.kahler_form(CG, P, JU, U) == pytest.approx(
            tb.bundle_metric(CG, P, U, U), rel=1e-12
        )


def test_lee_form_values():
    P = point(EU2, [0.0, 0.0], [1.0, 1.0])
    U = random_split_vector(P, np.random.default_rng(7))
    assert tb.lee_form(SAS, P, U) == 0.0
    # oracle-adjudicated CG coefficient at t = 1.5 (s = 2): -(1/s^2 + 1/(1+s))
    d = derived_coeffs(CG, 1.5)
    assert d.lee_coef == pytest.approx(-(1 / 4 + 1 / 3), rel=1e-12)
    ak = almost_kahler_complete(lambda t: 1.0 + t, epsilon=-1)
    assert abs(derived_coeffs(ak, 1.0).lee_coef) <= 1e-12
    # horizontal vectors are annihilated
    XH = tb.SplitVector.horizontal([1.0, 2.0], P)
    assert tb.lee_form(CG, P, XH) == 0.0


def test_nijenhuis_sasaki():
    rng = np.random.default_rng(8)
    P_flat = point(EU2, [0.3, 0.0], [0.6, 0.8])
    X, Y = rng.standard_normal(2), rng.standard_normal(2)
    for slots in ("HH", "VV"):
        N = tb.nijenhuis(SAS, EU2, P_flat, X, Y, slots)
        assert np.max(np.abs(np.concatenate([N.h, N.v]))) == 0.0
    # over a curved base the horizontal slot is the curvature term
    P = point(SF1, [0.2, 0.1], [0.5, 0.9])
    N = tb.nijenhuis(SAS, SF1, P, X, Y, "HH")
    R = bg.curvature(SF1, P.x)
    expected = np.einsum("hkij,k,i,j->h", R, P.u, X, Y)
    assert np.allclose(N.v, expected, atol=1e-13)
    assert np.max(np.abs(expected)) > 1e-3
    assert np.allclose(N.h, 0)


def test_nijenhuis_kahler_family_vanishes():
    base = bg.SpaceForm(-1.0, 2)
    pair = kahler_family(2, -1.0, 2.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(-0.3, 0.3, 2)
        u = rng.uniform(-0.9, 0.9, 2)
        P = point(base, x, u)
        X, Y = rng.standard_normal(2), rng.standard_normal(2)
        for slots in ("HH", "VV"):
            N = tb.nijenhuis(pair, base, P, X, Y, slots)
            assert np.max(np.abs(np.concatenate([N.h, N.v]))) <= 1e-8


def test_connection_sasaki_flat_vanishes():
    P = point(EU2, [0.5, 0.5], [0.3, 0.4])
    X, Y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for case in ("HH", "HV", "VH", "VV"):
        D = tb.bundle_connection(SAS, EU2, P, case, X, Y)
        assert np.max(np.abs(np.concatenate([D.h, D.v]))) == 0.0


def test_connection_cg_vertical_fiber_identity():
    # at t = 1/2: 2L + M + N = 0, so nabla_{u^V} u^V = 0
    P = point(EU2, [0.0, 0.0], [1.0, 0.0])
    D = tb.bundle_connection(CG, EU2, P, "VV", P.u, P.u)
    assert np.max(np.abs(D.v)) <= 1e-15
    d = derived_coeffs(CG, 0.5)
    assert 2 * d.L + d.M + d.N == pytest.approx(0.0, abs=1e-15)


def test_curvature_g1_flat_and_sasaki_flat():
    rng = np.random.default_rng(10)
    for pair in (G1, SAS):
        for _ in range(50):
            P = point(EU2, rng.uniform(-0.5, 0.5, 2), rng.uniform(-1.2, 1.2, 2))
            X, Y, Z = (rng.standard_normal(2) for _ in range(3))
            case = rng.choice(["HHH", "HHV", "HVH", "HVV", "VVH", "VVV"])
            Rv = tb.bundle_curvature(pair, EU2, P, case, X, Y, Z)
            tol = 1e-9 if pair is G1 else 1e-8
            assert np.max(np.abs(np.concatenate([Rv.h, Rv.v]))) <= tol


POLY2 = bg.diagonal_polynomial(2, [[{"c": 1.0, "powers": [0, 0]}],
                                   [{"c": 1.0, "powers": [0, 0]}, {"c": 1.0, "powers": [2, 0]}]])
POLY3 = bg.diagonal_polynomial(3, [
    [{"c": 1.0, "powers": [0, 0, 0]}, {"c": 0.5, "powers": [0, 2, 0]}],
    [{"c": 2.0, "powers": [0, 0, 0]}, {"c": -0.3, "powers": [1, 0, 1]}],
    [{"c": 1.0, "powers": [0, 0, 0]}, {"c": 0.2, "powers": [3, 1, 0]}],
])


@pytest.mark.parametrize("base", [POLY2, POLY3], ids=["m2", "m3"])
@pytest.mark.parametrize("layout", ["point", "stack", "k vectors"])
def test_curvature_slot_cases_agree_with_the_einsum_reference(base, layout):
    # u read from the point's Ru tensors, not contracted as one more vector of R and nabla R
    m, rng = base.dim, np.random.default_rng(base.dim)
    x = rng.uniform(-0.5, 0.5, (4, m))
    u = 0.9 * rng.standard_normal((4, m))
    P = tb.tangent_point(base, x[1], u[1]) if layout == "point" else tb.tangent_point(base, x, u)
    shape = {"point": (m,), "stack": (4, m), "k vectors": (3, 4, m)}[layout]
    assert np.abs(P.NR).max() > 0.1  # nabla R does not vanish on this base
    X, Y, Z = rng.standard_normal((3, *shape))
    for case in ("HHH", "HHV", "HVH", "HVV", "VVH", "VVV"):
        got = tb.bundle_curvature(CG, base, P, case, X, Y, Z)
        for part, want in zip((got.h, got.v), reference_bundle_curvature(CG, P, case, X, Y, Z)):
            assert part.shape == want.shape
            assert np.all(np.abs(part - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), case


def test_curvature_symmetries_and_bianchi():
    rng = np.random.default_rng(11)
    P = point(SF1, [0.1, 0.25], [0.8, -0.4])

    def riem(A, B, C, D):
        return tb.bundle_metric(CG, P, tb.bundle_curvature_general(CG, SF1, P, A, B, C), D)

    for _ in range(10):
        U, V, W, S = (random_split_vector(P, rng) for _ in range(4))
        r = riem(U, V, W, S)
        assert abs(r + riem(V, U, W, S)) <= 1e-8
        assert abs(r + riem(U, V, S, W)) <= 1e-8
        assert abs(r - riem(W, S, U, V)) <= 1e-8
        cyc = (
            tb.bundle_curvature_general(CG, SF1, P, U, V, W)
            + tb.bundle_curvature_general(CG, SF1, P, V, W, U)
            + tb.bundle_curvature_general(CG, SF1, P, W, U, V)
        )
        assert math.sqrt(abs(tb.bundle_metric(CG, P, cyc, cyc))) <= 1e-8


def test_area_squared_displays():
    # at the chart origin the conformal factor is 1, so t = 1/2 exactly
    P = point(SF1, [0.0, 0.0], [1.0, 0.0])
    vals = CG.eval(P.t)
    frame = bg.orthonormal_frame(P.gx, first=P.u)
    e1, e2 = frame[0], frame[1]
    X = e2  # orthogonal to u
    Y = e1  # along u/|u|
    XH, YH = (tb.SplitVector.horizontal(v, P) for v in (X, Y))
    XV, YV = (tb.SplitVector.vertical(v, P) for v in (X, Y))
    assert tb.area_squared(SAS, P, XH, YH) == pytest.approx(1.0, rel=1e-12)
    assert tb.area_squared(SAS, P, XH, YV) == pytest.approx(1.0, rel=1e-12)
    assert tb.area_squared(SAS, P, XV, YV) == pytest.approx(1.0, rel=1e-12)
    # CG at t = 1/2: Q(X^V, Y^V) = a^2 + a b (0 + 2t) = 1/4 + 1/4 * 1 = 1/2
    q = tb.area_squared(CG, P, XV, YV)
    assert q == pytest.approx(vals.a**2 + vals.a * vals.b * 2 * P.t, rel=1e-12)
    assert q == pytest.approx(0.5, rel=1e-12)
    rng = np.random.default_rng(12)
    for _ in range(10):
        U, V = random_split_vector(P, rng), random_split_vector(P, rng)
        gram = (
            tb.bundle_metric(CG, P, U, U) * tb.bundle_metric(CG, P, V, V)
            - tb.bundle_metric(CG, P, U, V) ** 2
        )
        assert tb.area_squared(CG, P, U, V) == pytest.approx(gram, abs=1e-12)


def test_sectional_space_form_displays():
    rng = np.random.default_rng(13)
    c = 1.0
    for _ in range(10):
        P = point(SF1, rng.uniform(-0.3, 0.3, 2), rng.uniform(-1.0, 1.0, 2))
        vals = CG.eval(P.t)
        frame = bg.orthonormal_frame(P.gx, first=P.u)
        X, Y = frame[0], frame[1]
        XH, YH = (tb.SplitVector.horizontal(v, P) for v in (X, Y))
        YV = tb.SplitVector.vertical(Y, P)
        gXu, gYu = float(X @ P.gu), float(Y @ P.gu)
        khh = tb.bundle_sectional(CG, SF1, P, XH, YH)
        assert khh == pytest.approx(
            c - 0.75 * vals.a * c * c * (gXu**2 + gYu**2), rel=1e-10
        )
        khv = tb.bundle_sectional(CG, SF1, P, XH, YV)
        assert khv >= -1e-12
        assert khv == pytest.approx(
            vals.a**2 * c * c * gXu**2 / (4 * (vals.a + vals.b * gYu**2)), abs=1e-12
        )


def test_sectional_flat_sasaki_zero():
    rng = np.random.default_rng(14)
    P = point(EU2, [0.0, 0.3], [0.5, 0.2])
    for _ in range(5):
        U, V = random_split_vector(P, rng), random_split_vector(P, rng)
        assert tb.bundle_sectional(SAS, EU2, P, U, V) == pytest.approx(0.0, abs=1e-13)


def test_adapted_basis_orthonormal_and_vertical_mixed_plane():
    rng = np.random.default_rng(15)
    for pair in (CG, G1):
        P = point(SF1, [0.2, -0.1], rng.uniform(-1.0, 1.0, 2))
        E = tb.adapted_basis(pair, P)
        gram = np.array([[tb.bundle_metric(pair, P, a, b) for b in E] for a in E])
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-10
        for i in range(2):
            assert abs(tb.bundle_sectional(pair, SF1, P, E[i], E[2])) <= 1e-12


def test_vertical_sectional_display():
    # K(E_{m+1}, E_{m+k}) = -(F2 + 2t F3)/a on the adapted basis
    P = point(SF1, [0.05, 0.15], [0.9, 0.2])
    d = derived_coeffs(CG, P.t)
    vals = CG.eval(P.t)
    E = tb.adapted_basis(CG, P)
    kvv = tb.bundle_sectional(CG, SF1, P, E[2], E[3])
    assert kvv == pytest.approx(-(d.F2 + 2 * P.t * d.F3) / vals.a, rel=1e-10)


def test_scalar_curvature_closed_vs_basis_and_space_form_display():
    rng = np.random.default_rng(16)
    for pair in (CG, SAS):
        for _ in range(3):
            P = point(SF1, rng.uniform(-0.3, 0.3, 2), rng.uniform(-1.0, 1.0, 2))
            closed = tb.scalar_curvature(pair, SF1, P, mode="closed")
            basis = tb.scalar_curvature(pair, SF1, P, mode="basis")
            assert closed == pytest.approx(basis, rel=1e-6)
            disp = tb.scalar_curvature_space_form(pair, 1.0, 2, P.t)
            assert closed == pytest.approx(disp, rel=1e-9)


def test_space_form_display_reads_the_point_coefficients(monkeypatch):
    # at a TangentPoint the display reads P.coeffs(w): the float-t value, bit for
    # bit, with no second weight evaluation once the point holds the weights
    P = point(SF1, [0.2, -0.1], [0.7, 0.4])
    for pair in (CG, G1):
        expected = tb.scalar_curvature_space_form(pair, 1.0, 2, P.t)
        P.coeffs(pair)
        calls = []
        evaluate = WeightPair.eval
        monkeypatch.setattr(WeightPair, "eval", lambda *a: calls.append(1) or evaluate(*a))
        got = tb.scalar_curvature_space_form(pair, 1.0, 2, P)
        monkeypatch.undo()
        assert calls == [] and got.hex() == expected.hex()


def test_scalar_curvature_flat_sasaki_zero():
    P = point(EU2, [0.1, 0.1], [0.4, 0.3])
    assert tb.scalar_curvature(SAS, EU2, P) == 0.0


def test_scalar_curvature_scal_t2_constant():
    # the a = 1 family keeps scal = (m-1)(mc + k) on its domain
    pair = named_family("scal_t2", k=0.3, c=1.0, m=2)
    ts = np.linspace(0.05, 0.95 * pair.t_domain[1], 8)
    vals = [tb.scalar_curvature_space_form(pair, 1.0, 2, t) for t in ts]
    assert np.allclose(vals, 2.3, rtol=1e-12)


def test_scalar_constancy_residual_functional():
    t2 = named_family("scal_t2", k=0.3, c=1.0, m=2)
    assert abs(scalar_constancy_residual(t2, 1.0, 2, 0.4)) <= 1e-8
    a23 = named_family("scal_a23")
    # d(scal)/dt = -(m-1) a c^2 = -2/3 for this family
    assert scalar_constancy_residual(a23, 1.0, 2, 0.4) == pytest.approx(-2 / 3, rel=1e-6)


def test_scalar_curvature_sasaki_nonconstant_over_sphere():
    # 2 - t at c = 1, m = 2
    v1 = tb.scalar_curvature_space_form(SAS, 1.0, 2, 0.1)
    v2 = tb.scalar_curvature_space_form(SAS, 1.0, 2, 1.0)
    assert v1 == pytest.approx(1.9, rel=1e-12)
    assert v2 == pytest.approx(1.0, rel=1e-12)
    assert abs(v1 - v2) >= 0.05


def count_weight_evals(monkeypatch):
    calls = []
    evaluate = WeightPair.eval

    def counted(self, t):
        calls.append(t)
        return evaluate(self, t)

    monkeypatch.setattr(WeightPair, "eval", counted)
    return calls


def test_general_curvature_evaluates_the_weights_once(monkeypatch):
    base = bg.SpaceForm(1.0, 3)
    calls = count_weight_evals(monkeypatch)
    P = point(base, np.array([0.1, -0.2, 0.15]), np.array([0.7, 0.4, -0.3]))
    rng = np.random.default_rng(9)
    U, V, W = (random_split_vector(P, rng) for _ in range(3))
    first = tb.bundle_curvature_general(CG, base, P, U, V, W)
    second = tb.bundle_curvature_general(CG, base, P, U, V, W)
    # the point evaluates the pair once, at its own t, and keeps the values
    assert calls == [P.t]
    assert np.array_equal(first.h, second.h) and np.array_equal(first.v, second.v)


def test_basis_scalar_and_bundle_sectional_evaluate_the_weights_once(monkeypatch):
    base = bg.SpaceForm(1.0, 3)
    x, u = np.array([0.1, -0.2, 0.15]), np.array([0.7, 0.4, -0.3])
    rng = np.random.default_rng(4)
    P0 = point(base, x, u)
    U0, V0 = (random_split_vector(P0, rng) for _ in range(2))
    expected = (tb.scalar_curvature(CG, base, P0, mode="basis"),
                tb.bundle_sectional(CG, base, P0, U0, V0))
    calls = count_weight_evals(monkeypatch)
    P = point(base, x, u)
    U, V = (tb.SplitVector(Z.h, Z.v, P) for Z in (U0, V0))
    got = (tb.scalar_curvature(CG, base, P, mode="basis"), tb.bundle_sectional(CG, base, P, U, V))
    assert calls == [P.t]
    assert got == expected


def test_bundle_sectional_reads_each_gram_entry_once(monkeypatch):
    # g_A(U,U), g_A(V,V) and g_A(U,V) for the Gram determinant and its
    # degeneracy check, and g_A(R(U,V)V, U) for the numerator
    P = point(SF1, [0.1, 0.2], [0.7, -0.4])
    rng = np.random.default_rng(6)
    U, V = (random_split_vector(P, rng) for _ in range(2))
    expected = tb.bundle_sectional(CG, SF1, P, U, V)
    calls = []
    bundle_metric = tb.bundle_metric

    def counted(*args):
        calls.append(1)
        return bundle_metric(*args)

    monkeypatch.setattr(tb, "bundle_metric", counted)
    assert tb.bundle_sectional(CG, SF1, P, U, V) == expected
    assert len(calls) == 4


def test_point_keeps_one_evaluation_per_weight_pair(monkeypatch):
    calls = count_weight_evals(monkeypatch)
    P = point(SF1, [0.1, 0.2], [0.7, -0.4])
    twin = named_family("cheeger_gromoll")
    assert P.coeffs(CG).values is P.values(CG)
    assert P.values(twin) is not P.values(CG) and P.values(twin) == P.values(CG)
    assert len(calls) == 2


def test_bundle_metric_on_the_zero_section_at_eps_plus_one():
    # A and B are undefined there: readers of them raise, the metric does not
    plus = WeightPair(CG.a, CG.b, +1, name="cg+")
    P = point(SF1, [0.1, 0.2], [0.0, 0.0])
    U = tb.SplitVector(np.array([1.0, 0.5]), np.array([0.3, -0.2]), P)
    before = tb.bundle_metric(plus, P, U, U)
    with pytest.raises(WeightDomainError):
        tb.almost_complex(plus, P, U)
    assert tb.bundle_metric(plus, P, U, U) == before == tb.bundle_metric(CG, P, U, U)
    with pytest.raises(WeightDomainError):
        tb.lee_form(plus, P, U)


def test_general_curvature_makes_no_point_comparison(monkeypatch):
    base = bg.SpaceForm(1.0, 3)
    P = point(base, np.array([0.1, -0.2, 0.15]), np.array([0.7, 0.4, -0.3]))
    rng = np.random.default_rng(9)
    U, V, W = (random_split_vector(P, rng) for _ in range(3))
    calls = []
    same_place = tb.TangentPoint.same_place

    def counted(self, other):
        calls.append(1)
        return same_place(self, other)

    monkeypatch.setattr(tb.TangentPoint, "same_place", counted)
    R = tb.bundle_curvature_general(CG, base, P, U, V, W)
    tb.bundle_metric(CG, P, R, U)
    assert calls == []
    # a vector at a copy of P still passes the comparison, and is checked
    Q = point(base, P.x.copy(), P.u.copy())
    tb.bundle_metric(CG, P, U, tb.SplitVector(V.h, V.v, Q))
    assert calls == [1]


def test_general_curvature_takes_one_vector_for_every_row_of_a_stacked_point():
    # vectors of shape (m,) broadcast against the point's rows, as each vector tiled per row
    rng = np.random.default_rng(31)
    P = tb.tangent_point(SF1, rng.uniform(-0.3, 0.3, (4, 2)), rng.uniform(-0.8, 0.8, (4, 2)))
    hv = rng.standard_normal((6, 2))
    shared = [tb.SplitVector(hv[k], hv[k + 1], P) for k in (0, 2, 4)]
    tiled = [tb.SplitVector(np.tile(A.h, (4, 1)), np.tile(A.v, (4, 1)), P) for A in shared]
    got, want = (tb.bundle_curvature_general(CG, SF1, P, *vs) for vs in (shared, tiled))
    assert got.h.shape == (4, 2)
    assert got.h.tobytes() == want.h.tobytes() and got.v.tobytes() == want.v.tobytes()


CASES = ("HHH", "HHV", "HVH", "HVV", "VVH", "VVV")


def basis_scalar_reference(w, base, P):
    """The adapted-basis scalar curvature as a double loop of general
    curvatures and metric pairings, one ordered pair (a, b) at a time."""
    basis = tb.adapted_basis(w, P)
    total = 0.0
    for al in range(2 * base.dim):
        for be in range(2 * base.dim):
            if al == be:
                continue
            r = tb.bundle_curvature_general(w, base, P, basis[al], basis[be], basis[be])
            total += tb.bundle_metric(w, P, r, basis[al])
    return total


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("eps", [-1, 1])
def test_batched_curvature_rows_are_the_single_calls(m, eps):
    # a base with nabla R != 0, so the nabla R slot terms are exercised too
    entries = [[{"c": 1.0, "powers": [0] * m},
                {"c": 0.4, "powers": [2 if j == (i + 1) % m else 0 for j in range(m)]}]
               for i in range(m)]
    base = bg.diagonal_polynomial(m, entries)
    pair = WeightPair(CG.a, CG.b, eps, name=f"cg{eps:+d}")
    rng = np.random.default_rng([m, eps + 1])
    P = point(base, rng.uniform(-0.3, 0.3, m), rng.uniform(-0.8, 0.8, m))
    X, Y, Z = (rng.standard_normal((5, m)) for _ in range(3))
    for case in CASES:
        stack = tb.bundle_curvature(pair, base, P, case, X, Y, Z)
        assert stack.h.shape == stack.v.shape == (5, m)
        for i in range(5):
            one = tb.bundle_curvature(pair, base, P, case, X[i], Y[i], Z[i])
            assert one.h.shape == one.v.shape == (m,)
            assert one.h.tobytes() == stack.h[i].tobytes()
            assert one.v.tobytes() == stack.v[i].tobytes()
    U = tb.SplitVector(X, Y, P)
    V = tb.SplitVector(Z, X, P)
    rows = tb.bundle_metric(pair, P, U, V)
    singles = [tb.bundle_metric(pair, P, tb.SplitVector(X[i], Y[i], P),
                                tb.SplitVector(Z[i], X[i], P)) for i in range(5)]
    assert isinstance(singles[0], float) and rows.tolist() == singles


def test_basis_scalar_is_the_double_loop_bit_for_bit():
    rng = np.random.default_rng(23)
    lck = named_family("lck_example")
    for base in (SF1, bg.SpaceForm(-1.0, 3), bg.euclidean(3)):
        for pair in (CG, SAS, G1, lck, kahler_family(2, -1.0, 2.0)):
            for _ in range(2):
                m = base.dim
                P = point(base, rng.uniform(-0.3, 0.3, m), rng.uniform(-0.8, 0.8, m))
                if not pair.contains(P.t):
                    continue
                got = tb.scalar_curvature(pair, base, P, mode="basis")
                assert got == basis_scalar_reference(pair, base, P)


def test_basis_scalar_makes_four_slot_calls(monkeypatch):
    base = bg.SpaceForm(1.0, 3)
    P = point(base, [0.1, -0.2, 0.15], [0.7, 0.4, -0.3])
    calls = {"bundle_curvature": [], "bundle_curvature_general": []}
    for name, seen in calls.items():
        original = getattr(tb, name)

        def counted(*args, _seen=seen, _original=original):
            # a slot call's case and rows, a general call's rows
            _seen.append((args[3], len(args[4])) if isinstance(args[3], str) else len(args[3].h))
            return _original(*args)

        monkeypatch.setattr(tb, name, counted)
    tb.scalar_curvature(CG, base, P, mode="basis")
    # one general call over the 30 ordered pairs of the adapted basis, in which each pair
    # has one live slot term: HHH on the 6 horizontal pairs, HVV and -HVH on the 9 mixed
    # pairs of each order, VVV on the 6 vertical pairs
    assert calls == {"bundle_curvature": [("HHH", 6), ("HVV", 9), ("HVH", 9), ("VVV", 6)],
                     "bundle_curvature_general": [30]}

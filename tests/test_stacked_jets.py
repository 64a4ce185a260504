"""Stacked base jets: every row of a stacked evaluation is its single call.

``ChartMetric.derivatives``, ``base_geometry._metric_and_christoffel``,
``base_geometry.base_jets`` and ``oracle.InducedMetric.matrix`` take an (n, m)
stack of points (n, 2m for the induced metric) and evaluate it in one pass over
stacked jets.  Each row must equal the single-point call byte for byte, with
repeated points and rows that share x, and a bad row must raise the single
call's error, naming its own point.  A stacked ``TangentPoint`` reads its jets
from one such call, and every closed form a suite evaluates on it, on the
tangent bundle or on a sphere bundle, must equal the single-point call on each
row.  So must the oracle on a stack of points (one stencil table for all rows),
and a single point keeps the unstacked shape.
"""

import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tbgeom import base_geometry as bg  # noqa: E402
from tbgeom import oracle as orc  # noqa: E402
from tbgeom import sphere_bundle as sb  # noqa: E402
from tbgeom import tangent_bundle as tb  # noqa: E402
from tbgeom.suites import SuiteContext, _lck_terms, run_suite  # noqa: E402
from tbgeom.weights import kahler_family, named_family  # noqa: E402

DIAG_POLY3 = bg.diagonal_polynomial(
    3,
    [
        [{"c": 1.0, "powers": [0, 0, 0]}, {"c": 0.5, "powers": [0, 2, 0]}],
        [{"c": 2.0, "powers": [0, 0, 0]}, {"c": -0.3, "powers": [1, 0, 1]}],
        [{"c": 1.0, "powers": [0, 0, 0]}, {"c": 0.2, "powers": [3, 1, 0]}],
    ],
)
METRICS = [bg.SpaceForm(c, m) for c in (-1.0, 0.0, 0.5, 1.0) for m in (2, 3, 4)] + [DIAG_POLY3]
WEIGHTS = [named_family(name) for name in ("cheeger_gromoll", "g1", "sasaki")]
COORD = st.floats(-0.6, 0.6, allow_nan=False, allow_infinity=False)


def vectors(m, size):
    return st.lists(st.lists(COORD, min_size=m, max_size=m), min_size=1, max_size=size)


@st.composite
def stacks(draw):
    """A metric and a stack of (x, y) rows drawn from small pools, so that rows
    repeat and several rows share one x."""
    metric = draw(st.sampled_from(METRICS))
    m = metric.dim
    xs, ys = draw(vectors(m, 4)), draw(vectors(m, 3))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(xs) - 1), st.integers(0, len(ys) - 1)),
                          min_size=1, max_size=9))
    return metric, np.array([xs[i] + ys[j] for i, j in pairs])


@settings(max_examples=80, deadline=None)
@given(stacks(), st.sampled_from(WEIGHTS))
def test_stacked_rows_equal_single_calls_byte_for_byte(stack, w):
    metric, q = stack
    m = metric.dim
    x = q[:, :m]
    for order in (1, 3):
        stacked = metric.derivatives(x, order)
        assert [a.shape[0] for a in stacked] == [len(x)] * (order + 1)
        for k, xk in enumerate(x):
            for a, b in zip(stacked, metric.derivatives(xk, order)):
                assert a[k].tobytes() == b.tobytes()
    g, gamma = bg._metric_and_christoffel(metric, x)
    G = orc.InducedMetric(metric, w).matrix(q)
    jets = bg.base_jets(metric, x)
    for k, (xk, qk) in enumerate(zip(x, q)):
        gk, gammak = bg._metric_and_christoffel(metric, xk)
        assert g[k].tobytes() == gk.tobytes() and gamma[k].tobytes() == gammak.tobytes()
        assert G[k].tobytes() == orc.InducedMetric(metric, w).matrix(qk).tobytes()
        for a, b in zip(jets, bg.base_jets(metric, xk)):  # Gamma, R and nabla R
            assert a[k].tobytes() == b.tobytes()


def named(x):
    # the message fragment that names the point x
    return re.escape(str(np.asarray(x, dtype=float)))


def test_a_stack_outside_the_chart_names_its_bad_row():
    # the curvature -1 chart is the disc |x| < 2
    sf = bg.SpaceForm(-1.0, 2)
    x = np.array([[0.1, 0.2], [0.3, -0.1], [2.5, 0.0], [3.0, 0.0]])
    for call in (lambda: sf.derivatives(x, 1), lambda: sf.derivatives(x, 3),
                 lambda: bg._metric_and_christoffel(sf, x), lambda: bg.base_jets(sf, x),
                 lambda: orc.InducedMetric(sf, WEIGHTS[0]).matrix(np.hstack([x, x]))):
        with pytest.raises(bg.ChartDomainError, match=named(x[2])):
            call()


def test_a_singular_row_names_its_point():
    # g = diag(x1, 1) is singular on x1 = 0
    base = bg.diagonal_polynomial(
        2, [[{"c": 1.0, "powers": [1, 0]}], [{"c": 1.0, "powers": [0, 0]}]])
    x = np.array([[0.5, 0.1], [0.4, 0.2], [0.0, 0.3], [0.0, 0.7]])
    with pytest.raises(bg.SingularMetricError, match=named(x[2])):
        bg._metric_and_christoffel(base, x)
    with pytest.raises(bg.SingularMetricError, match=named(x[2])):
        bg.base_jets(base, x)
    with pytest.raises(bg.SingularMetricError, match=named(x[2])):
        orc.InducedMetric(base, WEIGHTS[0]).matrix(np.hstack([x, x]))
    # a negative x1 is invertible but indefinite: the per-row check names it
    x[2, 0] = -0.1
    g = base.derivatives(x, 1)[0]
    with pytest.raises(bg.SingularMetricError, match=named(x[2])):
        base._checked(g, x)


def hexes(a):
    # float.hex of every number in a (an array, or nested lists and tuples of them)
    if isinstance(a, (list, tuple)):
        return [h for b in a for h in hexes(b)]
    return [float(v).hex() for v in np.ravel(a)]


def row(a, i):
    # row i of every array in a (an array, or nested lists and tuples of them)
    return [row(b, i) for b in a] if isinstance(a, (list, tuple)) else a[i]


def closed_forms(w, base, P, X, Y, Z, U, V, W):
    """Every closed form a suite evaluates on a stacked point; a split vector as (h, v)."""
    cases = ("HHH", "HHV", "HVH", "HVV", "VVH", "VVV")
    return {
        "metric": tb.bundle_metric(w, P, U, V),
        **{c: (lambda r: (r.h, r.v))(tb.bundle_curvature(w, base, P, c, X, Y, Z)) for c in cases},
        **{c: (lambda r: (r.h, r.v))(tb.bundle_connection(w, base, P, c, X, Y))
           for c in ("HH", "HV", "VH", "VV")},
        "general": (lambda r: (r.h, r.v))(tb.bundle_curvature_general(w, base, P, U, V, W)),
        "sectional": tb.bundle_sectional(w, base, P, U, V),
        "area": tb.area_squared(w, P, U, V),
        "basis": [(e.h, e.v) for e in tb.adapted_basis(w, P)],
        "scal_closed": tb.scalar_curvature(w, base, P, mode="closed"),
        "scal_basis": tb.scalar_curvature(w, base, P, mode="basis"),
        "scal_space_form": tb.scalar_curvature_space_form(w, base.curvature, base.dim, P),
        "coord": orc.split_to_coord(U),
        "almost_complex": (lambda r: (r.h, r.v))(tb.almost_complex(w, P, U)),
        "kahler_form": tb.kahler_form(w, P, U, V),
        "lee_form": tb.lee_form(w, P, U),
        **{f"nijenhuis {s}": (lambda r: (r.h, r.v))(tb.nijenhuis(w, base, P, X, Y, s))
           for s in ("HH", "VV")},
    }


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("w", [named_family("cheeger_gromoll"), kahler_family(1, 1.0, -0.5)],
                         ids=["eps=-1", "eps=+1"])
def test_a_stacked_point_equals_its_single_points_row_by_row(m, w):
    base, rng = bg.SpaceForm(1.0, m), np.random.default_rng(10 * m + w.epsilon)
    xs = rng.uniform(-0.4, 0.4, (3, m))
    singles = []
    for x in xs[[0, 1, 0, 2]]:  # two rows share x
        d = rng.standard_normal(m)
        u = np.sqrt(2 * rng.uniform(0.1, 0.8)) * d / np.sqrt(d @ base.matrix(x) @ d)
        singles.append(tb.tangent_point(base, x, u))
    P = tb.tangent_point(base, *(np.array([getattr(Q, f) for Q in singles]) for f in "xu"))
    assert hexes(P.t) == hexes([Q.t for Q in singles])
    X, Y, Z, *hv = rng.standard_normal((9, len(singles), m))
    U, V, W = (tb.SplitVector(h, v, P) for h, v in zip(hv[::2], hv[1::2]))
    stacked = closed_forms(w, base, P, X, Y, Z, U, V, W)
    for i, Pi in enumerate(singles):
        Ui, Vi, Wi = (tb.SplitVector(A.h[i], A.v[i], Pi) for A in (U, V, W))
        single = closed_forms(w, base, Pi, X[i], Y[i], Z[i], Ui, Vi, Wi)
        for name, want in single.items():
            assert hexes(row(stacked[name], i)) == hexes(want), f"row {i}: {name}"


def sphere_forms(P, w):
    """Every sphere-bundle function a suite evaluates on a stacked point."""
    out = {"r": P.r, "generators": sb.generators(P),
           "_normal": sb._normal(P.u, P.r, P.values(w)),
           "induced_metric": sb.induced_metric(P, w),
           "k_contact and sasakian": sb._residual_vectors(P, w)}
    for eps in (-1, 1):
        for rescaled in (False, True):
            S = sb.contact_structure(P, w, rescaled=rescaled, epsilon=eps)
            out[f"contact_structure eps={eps} rescaled={rescaled}"] = [
                S.phi, S.xi, S.eta, S.G, S.normal, S.tangent_projector()]
    return out


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("w,r", [(named_family("cheeger_gromoll"), 1.0),
                                 (named_family("sasaki"), 1.3)], ids=["unit", "sasaki_r"])
def test_a_stacked_sphere_point_equals_its_single_points_row_by_row(m, w, r):
    base, rng = bg.SpaceForm(1.0, m), np.random.default_rng(20 * m + int(10 * r))
    singles = []
    for x in rng.uniform(-0.4, 0.4, (3, m))[[0, 1, 0, 2]]:  # two rows share x
        d = rng.standard_normal(m)
        singles.append(tb.tangent_point(base, x, r * d / np.sqrt(d @ base.matrix(x) @ d), r=r))
    P = tb.tangent_point(base, *(np.array([getattr(Q, f) for Q in singles]) for f in "xu"), r=r)
    stacked = sphere_forms(P, w)
    for i, Pi in enumerate(singles):
        for name, want in sphere_forms(Pi, w).items():
            assert hexes(row(stacked[name], i)) == hexes(want), f"row {i}: {name}"


def test_a_stack_evaluates_the_jets_once_at_its_distinct_x(monkeypatch):
    base = bg.SpaceForm(1.0, 3)
    x = np.array([[0.1, 0.2, -0.3], [0.3, 0.0, 0.1], [0.1, 0.2, -0.3]])
    rows = []
    derivatives = bg.ChartMetric.derivatives

    def counted(self, xs, order):
        rows.append((len(xs), order))
        return derivatives(self, xs, order)

    monkeypatch.setattr(bg.ChartMetric, "derivatives", counted)
    bg.base_jets(base, x)
    assert rows == [(2, 3)]
    # the sphere-bundle suite: the Sasaki points are the rescaled unit points, which
    # hold the third-order jets of the sample x
    del rows[:]
    ctx = SuiteContext(base=base, weights=named_family("cheeger_gromoll"), samples=8, seed=3,
                       h=1e-4, chart_box=np.tile([-0.4, 0.4], (3, 1)), fiber_range=(0.3, 1.5))
    assert run_suite("sphere_bundle", ctx).passed
    assert [r for r in rows if r[1] == 3] == [(2, 3)]


def shared_x_points(base, rng, radius=(0.1, 0.8)):
    """Four single points (x, u) of ``base``, two of them over one x."""
    points = []
    for x in rng.uniform(-0.4, 0.4, (3, base.dim))[[0, 1, 0, 2]]:
        d = rng.standard_normal(base.dim)
        u = np.sqrt(2 * rng.uniform(*radius)) * d / np.sqrt(d @ base.matrix(x) @ d)
        points.append(tb.tangent_point(base, x, u))
    return points


def stacked_oracle(base, w, q, X, Y, U, V, vecs):
    """Every oracle quantity a suite evaluates on a stack of points q (or at one point)."""
    im = orc.InducedMetric(base, w)
    m = base.dim
    gamma = orc.fd_connection(im, q)
    out = {"fd_connection": gamma,
           "fd_connection(base)": orc.fd_connection(base, q[..., :m], h=1e-5),
           "fd_curvature": orc.fd_curvature(im, q),
           "fd_nijenhuis": orc.fd_nijenhuis(base, w, q, U, V)}
    for case in ("HH", "HV", "VH", "VV"):
        U0 = orc.lift_field(base, X, case[0])(q)
        out[f"fd_lift_connection {case}"] = orc.fd_lift_connection(
            gamma, q, U0, orc.lift_field(base, Y, case[1]))
    out["lck_terms"] = _lck_terms(base, w, q, vecs, 1e-4)
    return out


@pytest.mark.parametrize("m", [2, 3])
def test_a_stacked_oracle_call_equals_its_single_calls(m):
    base, w, rng = bg.SpaceForm(1.0, m), named_family("cheeger_gromoll"), np.random.default_rng(m)
    q = np.array([P.q for P in shared_x_points(base, rng)])  # rows 0 and 2 share x
    X, Y = rng.standard_normal((2, len(q), m))
    U, V, *vecs = rng.standard_normal((5, len(q), 2 * m))
    stacked = stacked_oracle(base, w, q, X, Y, U, V, vecs)
    for i in range(len(q)):
        single = stacked_oracle(base, w, q[i], X[i], Y[i], U[i], V[i], [v[i] for v in vecs])
        for name, want in single.items():
            # a single point keeps the unstacked shape; each row equals its call
            assert np.shape(row(stacked[name], i)) == np.shape(want), name
            assert hexes(row(stacked[name], i)) == hexes(want), f"row {i}: {name}"

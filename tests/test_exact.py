"""Exact adjudication of the Lee form of the integrable case-2 family.

The fundamental 2-form is built symbolically on the 4-dimensional chart
(x1, x2, y1, y2) of the curvature -1 space form, from the definitions
alone and without library code:

    G(X^H, Y^V) = 0,  G(X^V, Y^V) = a g(X, Y) + b g(X, u) g(Y, u),
    J Y^V = -sqrt(a) Y^H + B g(Y, u) u^H,  B = (1/2t)(sqrt(a) - sqrt(a + 2bt)),
    Omega(X, Y) = G(X, J Y),  delta y^j = dy^j + Gamma^j_{ki} y^i dx^k,

so that Omega = sum_ij (-sqrt(a) g_ij + B (gu)_i (gu)_j) dx^i ^ delta y^j.
Its exterior derivative is taken exactly (chain rule through t for the
weights) and evaluated with 50 digits.  In dimension 4 every 3-form is
theta ^ Omega for exactly one covector theta, which is solved for and
compared with the library's Lee form.
"""

import itertools

import numpy as np
import pytest

sp = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

import tbgeom.base_geometry as bg  # noqa: E402
import tbgeom.oracle as orc  # noqa: E402
from tbgeom.weights import kahler_family  # noqa: E402


def _case2_omega(c, kappa):
    """Symbolic Omega of the case-2 pair, with sqrt(a) and B as symbols."""
    q = sp.symbols("x1 x2 y1 y2", real=True)
    x, y = sp.Matrix(q[:2]), sp.Matrix(q[2:])
    tau, sqrt_a, B = sp.symbols("tau sqrt_a B", positive=True)
    g = sp.eye(2) / (1 + c / 4 * (x.T * x)[0]) ** 2
    ginv = g.inv()
    gamma = [[[sum(ginv[k, l] * (sp.diff(g[j, l], x[i]) + sp.diff(g[i, l], x[j])
                                 - sp.diff(g[i, j], x[l])) for l in range(2)) / 2
               for j in range(2)] for i in range(2)] for k in range(2)]
    t = (y.T * g * y)[0] / 2
    s = sp.sqrt(1 + kappa * tau)
    a = -kappa / (4 * c * (1 + s))
    b = kappa**2 / (8 * c * (1 + kappa * tau) * (1 + s))
    weights = {sqrt_a: sp.sqrt(a), B: (sp.sqrt(a) - sp.sqrt(a + 2 * b * tau)) / (2 * tau)}
    gu = g * y
    om_hv = -sqrt_a * g + B * gu * gu.T
    om_adapted = sp.zeros(4, 4)
    om_adapted[:2, 2:] = om_hv
    om_adapted[2:, :2] = -om_hv.T
    # coordinate components from the coframe (dx^k, delta y^j)
    coframe = sp.eye(4)
    for j in range(2):
        for k in range(2):
            coframe[2 + j, k] = sum(gamma[j][k][i] * y[i] for i in range(2))
    return q, t, tau, weights, coframe.T * om_adapted * coframe


def test_exact_lee_form_of_case2_family():
    c, kappa = sp.Integer(-1), sp.Integer(2)
    q, t, tau, weights, om = _case2_omega(c, kappa)
    point = [sp.Rational(1, 10), sp.Rational(-1, 5), sp.Rational(1, 2), sp.Rational(7, 10)]
    mpmath.mp.dps = 50

    def num(expr):
        return mpmath.mpf(sp.N(expr, 50))

    at = dict(zip(q, point))
    at[tau] = t.subs(at)
    dweights = {}
    for sym, expr in weights.items():
        at[sym] = expr.subs(tau, at[tau])
        dweights[sym] = num(sp.diff(expr, tau).subs(tau, at[tau]))
    dt = [num(sp.diff(t, v).subs(at)) for v in q]

    omv = mpmath.zeros(4, 4)
    dom = {}  # dom[l, i, j] = d_l Omega_ij
    for i, j in itertools.combinations(range(4), 2):
        expr = om[i, j]
        omv[i, j] = num(expr.subs(at))
        omv[j, i] = -omv[i, j]
        through_t = sum(num(sp.diff(expr, sym).subs(at)) * dweights[sym] for sym in weights)
        for l, v in enumerate(q):
            dom[l, i, j] = num(sp.diff(expr, v).subs(at)) + through_t * dt[l]
            dom[l, j, i] = -dom[l, i, j]

    # unnormalized cyclic sums; the library's 1/3 factors cancel in dOmega = theta ^ Omega
    triples = list(itertools.combinations(range(4), 3))
    d_omega = mpmath.matrix([dom[i, j, k] + dom[j, k, i] + dom[k, i, j] for i, j, k in triples])
    wedge = mpmath.matrix([[(l == i) * omv[j, k] + (l == j) * omv[k, i] + (l == k) * omv[i, j]
                            for l in range(4)] for i, j, k in triples])
    theta = mpmath.lu_solve(wedge, d_omega)

    base = bg.SpaceForm(-1.0, 2)
    pair = kahler_family(2, -1.0, 2.0)
    qn = np.array([float(p) for p in point])
    assert np.max(np.abs(np.array(omv.tolist(), dtype=float)
                         - orc.omega_matrix(orc._chart_point(base, qn), pair))) <= 1e-14
    # the case-2 form is not closed (largest component 1.84e-2 in the 1/3 convention)
    assert max(abs(v) for v in d_omega) / 3 >= 1e-2
    lee = orc.lee_covector(orc._chart_point(base, qn), pair)
    assert np.max(np.abs(np.array([float(v) for v in theta]) - lee)) <= 1e-12

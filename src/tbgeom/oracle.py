"""Independent coordinate oracle on the 2m-dimensional chart (x, y).

Everything here is ground truth for the adapted-frame closed forms: the
bundle metric is realized as an explicit 2m x 2m component matrix and all
derived objects (connection, curvature, exterior derivatives, Nijenhuis
tensor) are obtained by one quotient rule: central differences at the steps
h and h/2, combined by one Richardson extrapolation step.  This module is the
only place that differences on a chart, and every derivative follows one
pattern: ``_stencil`` lays out the call's stencil as one array (q, then the
points stepped to along each direction, on axis 0), ``_evaluate`` runs the
map once on the array's distinct rows and lays the values out as the points
are, and ``_quotients`` differences the values by their position in the
stencil.  ``fd_connection`` is the metric on the coordinate stencil,
differenced into the Levi-Civita symbols; ``fd_curvature`` is the same rule
applied to the connection on the outer stencil, with the metric of all inner
stencils evaluated as one stack.
The metric is any object with ``matrix(q)`` on a stack of points: the
induced metric, whose stack's distinct base points x are evaluated as one
stack of first-order jets, or a base ``ChartMetric``.  The public callables
(``fd_directional``, ``fd_exterior_derivative``) evaluate their function at
each stencil point, a point or a stack, and feed the same quotient rule.
``_chart_point`` takes a point q or an (n, 2m) stack: one stacked base
evaluation at the distinct x, as in ``InducedMetric.matrix``, and one weight
evaluation on the array of t.  The chart reads Gamma only through the
connection map Gamma^k_ij y^j, which a chart point holds in place of Gamma;
the metric, the frame change, J, Omega and the Lee form act on its stack axes.

Differential-form conventions (fixed):
    d omega (X, Y)      = 1/2 (X om(Y) - Y om(X) - om([X,Y]))
    d Omega (X, Y, Z)   = 1/3 (antisymmetrized sum)
    (om ^ Om)(X, Y, Z)  = 1/3 (om(X) Om(Y,Z) + om(Y) Om(Z,X) + om(Z) Om(X,Y))
"""

from __future__ import annotations

import warnings

import numpy as np

from . import base_geometry as bg
from .weights import WeightPair, derived_coeffs

__all__ = [
    "InducedMetric",
    "split_to_coord",
    "j_matrix",
    "omega_matrix",
    "lee_covector",
    "wedge_1_2",
    "fd_connection",
    "fd_curvature",
    "fd_exterior_derivative",
    "fd_nijenhuis",
    "fd_directional",
    "lift_field",
    "fd_lift_connection",
]


class InducedMetric:
    """The bundle metric as a coordinate-component metric on (x, y)."""

    def __init__(self, base, weights: WeightPair):
        self.base = base
        self.weights = weights

    def matrix(self, q):
        """Components at q = (x, y), or at each row of an (n, 2m) stack of points;
        (g, Gamma) at the stack's distinct x come from one stacked jet evaluation."""
        y, g, gy, gu, t = _chart_base(self.base, q)
        return _metric_matrix(y, g, gy, gu, self.weights.eval(t))


def _chart_base(base, q):
    # y, g(x), gy[k, i] = Gamma^k_ij y^j, g y and t = g(y, y)/2 at q = (x, y) or at each row
    # of an (n, 2m) stack, with (g, Gamma) from one first-order jet evaluation at the distinct x
    q = np.asarray(q, dtype=float)
    y = q[..., base.dim :]
    g, gamma = bg._metric_and_christoffel(base, q[..., : base.dim])
    t = 0.5 * (y[..., None, :] @ g @ y[..., None])[..., 0, 0]
    return y, g, np.einsum("...kij,...j->...ki", gamma, y), (g @ y[..., None])[..., 0], t


def _chart_point(base, w, q):
    """y, g(x), Gamma(x) y, g y and the derived coefficients of w at q = (x, y), or each
    stacked over the rows of an (n, 2m) stack with the weights evaluated once on the
    array of t; every row equals the single call bit for bit."""
    *chart, t = _chart_base(base, q)
    return (*chart, derived_coeffs(w, t))


def _per_row(f, axes=2):
    # a scalar coefficient, or one per stack row, broadcast against the rows' matrices
    # (or against arrays with another number of trailing ``axes``)
    return np.reshape(f, np.shape(f) + (1,) * axes)


def _metric_matrix(y, g, gy, gu, vals):
    # components at (x, y) from its chart data and the weights at t = g(y, y)/2, on any stack axes
    m = y.shape[-1]
    V = _per_row(vals.a) * g + _per_row(vals.b) * (gu[..., :, None] * gu[..., None, :])
    gyTV = np.swapaxes(gy, -1, -2) @ V
    G = np.zeros(y.shape[:-1] + (2 * m, 2 * m))
    G[..., :m, :m] = g + gyTV @ gy
    G[..., :m, m:] = gyTV
    G[..., m:, :m] = V @ gy
    G[..., m:, m:] = V
    return G


def _frame(gy):
    # frame change M, columns = coordinate components of (delta_i, d/dy^i), and M^-1,
    # from the connection map gy[k, i] = Gamma^k_ij y^j, on any stack axes
    m = gy.shape[-1]
    eye = np.broadcast_to(np.eye(2 * m), gy.shape[:-2] + (2 * m, 2 * m))
    M, Minv = eye.copy(), eye.copy()
    M[..., m:, :m] = -gy
    Minv[..., m:, :m] = gy
    return M, Minv


def split_to_coord(U):
    """Coordinate components of a split vector, row by row on a stacked point."""
    M, _ = _frame(U.at.gamma_u)
    return (M @ np.concatenate([U.h, U.v], axis=-1)[..., None])[..., 0]


def j_matrix(base, w, q):
    """Coordinate matrix of the almost complex structure at q = (x, y), or at each
    row of an (n, 2m) stack."""
    return _j_matrix(*_chart_point(base, w, q))


def _j_blocks(y, gu, d):
    # the adapted-frame blocks of J, vertical -> horizontal and back, on any stack axes
    m = y.shape[-1]
    sa = np.sqrt(_per_row(d.values.a))
    yu = y[..., :, None] * gu[..., None, :]  # the outer product y gu^T
    return -sa * np.eye(m) + _per_row(d.B_coef) * yu, np.eye(m) / sa - _per_row(d.A_coef) * yu


def _j_matrix(y, g, gy, gu, d):
    # j_matrix from the data of a chart point or a stack of them (g is not read)
    m = y.shape[-1]
    JVH, JHV = _j_blocks(y, gu, d)
    Jad = np.zeros(y.shape[:-1] + (2 * m, 2 * m))
    Jad[..., m:, :m] = JHV
    Jad[..., :m, m:] = JVH
    M, Minv = _frame(gy)
    return M @ Jad @ Minv


def omega_matrix(base, w, q):
    """Coordinate matrix of the fundamental 2-form, Om_ab = Om(e_a, e_b), at q or at
    each row of a stack."""
    return _omega_matrix(*_chart_point(base, w, q))


def _omega_matrix(y, g, gy, gu, d):
    m = y.shape[-1]
    # Om(H_i, V_j) = g_A(H_i, J V_j); horizontal-horizontal and
    # vertical-vertical pairings vanish.
    OmHV = g @ _j_blocks(y, gu, d)[0]
    Om = np.zeros(y.shape[:-1] + (2 * m, 2 * m))
    Om[..., :m, m:] = OmHV
    Om[..., m:, :m] = -np.swapaxes(OmHV, -1, -2)
    _, Minv = _frame(gy)
    return np.swapaxes(Minv, -1, -2) @ Om @ Minv


def lee_covector(base, w, q):
    """Coordinate components of the Lee form at q, or at each row of a stack."""
    return _lee_covector(*_chart_point(base, w, q))


def _lee_covector(y, g, gy, gu, d):
    om_ad = np.concatenate([np.zeros_like(gu), np.asarray(d.lee_coef)[..., None] * gu], axis=-1)
    _, Minv = _frame(gy)
    return (np.swapaxes(Minv, -1, -2) @ om_ad[..., None])[..., 0]


def wedge_1_2(om_vec, Om_mat, v1, v2, v3):
    """(om ^ Om)(v1, v2, v3) in the 1/3-normalized convention, row by row on stacks."""
    om = [np.vecdot(om_vec, v) for v in (v1, v2, v3)]
    Om = [np.vecdot(bg._vg(a, Om_mat), b) for a, b in ((v2, v3), (v3, v1), (v1, v2))]
    return (om[0] * Om[0] + om[1] * Om[1] + om[2] * Om[2]) / 3.0


def _stencil(q, vectors, h):
    """q and every point the quotient rule steps to along each of ``vectors``, as one
    array with the stencil on axis 0: q, then per direction q + s v and q - s v at
    s = h and s = h/2.  q may be a point or a stack of them, and a direction may be
    one vector or one per row; a step that does not move q raises."""
    points = [q]
    for v in vectors:
        for s in (h, h / 2):
            up, down = q + s * v, q - s * v
            if s <= 0 or (np.all(up == q, axis=-1) & np.any(v, axis=-1)).any():
                raise ValueError(f"differencing step {s} underflows at {q}")
            points += [up, down]
    return np.stack(np.broadcast_arrays(*points))


def _evaluate(fun, points):
    """``fun`` at every point of an array of points, evaluated once as one stack of their
    distinct rows and laid out as the points are (a tuple where ``fun`` returns one)."""
    rows, index = bg._distinct(points.reshape(-1, points.shape[-1]))
    out = fun(rows)
    lead = points.shape[:-1]
    if isinstance(out, tuple):
        return tuple(a[index].reshape(lead + a.shape[1:]) for a in out)
    return out[index].reshape(lead + out.shape[1:])


def _quotients(values, h):
    """The derivative along each direction of a stencil, on axis 0, from the values at
    the points it steps to (``_stencil`` without q, on axis 0): the central quotients
    D(s) = (f(q + s v) - f(q - s v)) / 2s at s = h and h/2, Richardson-extrapolated once
    as (4 D(h/2) - D(h)) / 3, which is fourth order in h."""
    f = np.reshape(values, (-1, 4) + np.shape(values)[1:])  # f(q ± h v), then f(q ± h v / 2)
    return (4.0 * ((f[:, 2] - f[:, 3]) / h) - (f[:, 0] - f[:, 1]) / (2 * h)) / 3.0


def _connection(G, points, h):
    # Christoffel symbols at ``points`` (a point, or any stack) from the metric components
    # G on the coordinate stencil of each, the stencil on axis 0
    for cond, p in zip(np.ravel(np.linalg.cond(G[0])), np.reshape(points, (-1, points.shape[-1]))):
        if cond > 1e8:
            warnings.warn(f"metric conditioning {cond:.2e} at {p}")
    dG = np.moveaxis(_quotients(G[1:], h), 0, -3)
    return bg._levi_civita(np.linalg.inv(G[0]), dG)


def _metric_and_connection(metric, q, h):
    # the components at q and ``fd_connection``, from one evaluation of the coordinate stencil
    q = np.asarray(q, dtype=float)
    G = _evaluate(metric.matrix, _stencil(q, np.eye(q.shape[-1]), h))
    return G[0], _connection(G, q, h)


def fd_connection(metric, q, h=1e-4):
    """Finite-difference Christoffel symbols of any metric with ``matrix(q)``, at q or
    at each row of an (n, k) stack (a leading axis of n rows, each equal to the call
    at its point bit for bit), from one ``matrix`` call on the stencil's distinct points."""
    return _metric_and_connection(metric, q, h)[1]


def fd_curvature(metric, q, h=1e-4):
    """Finite-difference curvature of any metric with ``matrix(q)`` (nested differencing),
    at q or at each row of an (n, k) stack: the connection at each point of the coordinate
    stencil of q, from one ``matrix`` call on the distinct points of all their stencils."""
    q = np.asarray(q, dtype=float)
    axes = np.eye(q.shape[-1])
    outer = _stencil(q, axes, h)
    G = _evaluate(metric.matrix, _stencil(outer, axes, h))
    gamma = _connection(G, outer, h)
    dgamma = np.moveaxis(_quotients(gamma[1:], h), 0, -4)
    return bg._curvature_from(gamma[0], dgamma)


def fd_directional(fun, q, v, h=1e-4):
    """Directional derivative of a scalar- or array-valued function, evaluated at each
    point the quotient rule steps to (a point, or a stack where q is one)."""
    q = np.asarray(q, dtype=float)
    points = _stencil(q, [np.asarray(v, dtype=float)], h)[1:]
    return _quotients([fun(p) for p in points], h)[0]


def _alternating(along, vectors):
    # the 1/(k+1)-normalized exterior derivative from along(i, rest): the derivative
    # along vectors[i] of the form on the other vectors
    vectors, total = list(vectors), 0.0
    for i in range(len(vectors)):
        total += (-1.0) ** i * along(i, vectors[:i] + vectors[i + 1 :])
    return total / len(vectors)


def fd_exterior_derivative(form, q, vectors, h=1e-4):
    """Numeric exterior derivative on constant coordinate-extended vectors.

    ``form(q, v_1, .., v_k)`` evaluates the k-form; the result follows the
    1/(k+1)-normalized convention (brackets of constant fields vanish).
    """
    q = np.asarray(q, dtype=float)
    vectors = [np.asarray(v, dtype=float) for v in vectors]

    def along(i, rest):
        return fd_directional(lambda p: form(p, *rest), q, vectors[i], h=h)

    return _alternating(along, vectors)


def _stencil_values(fun, q, vectors, h):
    """``fun`` (a map of a stack of points) at q, as entry 0, and at the points of the
    exterior-derivative stencil along ``vectors``, evaluated once at their distinct rows;
    ``_exterior`` reads the rest by position."""
    return _evaluate(fun, _stencil(q, vectors, h))


def _exterior(values, form, vectors, h):
    """``fd_exterior_derivative`` of the k-form ``form(value, v_1, .., v_k)`` of a map's
    values, from the values of ``_stencil_values`` along a list of vectors that begins
    with ``vectors``; each form value is taken before the quotient, as there."""

    def along(i, rest):
        return _quotients(form(values[1 + 4 * i : 5 + 4 * i], *rest), h)[0]

    return _alternating(along, vectors)


def fd_nijenhuis(base, w, q, U, V, h=1e-5):
    """Numeric Nijenhuis tensor of J on coordinate-extended constant fields, at q or at
    each row of an (n, 2m) stack (with U and V one vector per row)."""
    q, U, V = (np.asarray(a, dtype=float) for a in (q, U, V))
    J0 = j_matrix(base, w, q)
    JU, JV = bg._gv(J0, U), bg._gv(J0, V)
    # J at the 16 points the four directional derivatives step to, as one stack
    stencil = _stencil(q, [JU, JV, U, V], h)[1:]
    J = _evaluate(lambda p: _j_matrix(*_chart_point(base, w, p)), stencil)
    dJ_JU, dJ_JV, dJ_U, dJ_V = _quotients(J, h)
    # N = [JU,JV] - J[JU,V] - J[U,JV]  (constant fields, [U,V] = 0), with
    # [JU,JV] = (D_{JU} J)V - (D_{JV} J)U, [JU,V] = -(D_V J)U, [U,JV] = (D_U J)V
    gv = bg._gv
    return gv(dJ_JU, V) - gv(dJ_JV, U) + gv(J0, gv(dJ_V, U)) - gv(J0, gv(dJ_U, V))


def lift_field(base, X, kind):
    """Coordinate field of the horizontal or vertical lift of a constant X, at a point
    q or at each row of a stack of points (..., n, 2m); X may be one vector per row
    (n, m), the same at every position of the leading axes.  The horizontal lift reads
    Gamma from one stacked first-order evaluation per call."""
    X = np.asarray(X, dtype=float)
    m = base.dim
    if kind not in ("H", "V"):
        raise ValueError(f"kind must be 'H' or 'V', got {kind!r}")

    def field(q):
        qs = np.reshape(q, (-1, 2 * m))
        y, Xs = qs[:, m:], np.broadcast_to(X, np.shape(q)[:-1] + (m,)).reshape(-1, m)
        parts = ([Xs, -np.einsum("...kij,...j,...i->...k", bg.christoffel(base, qs[:, :m]), y, Xs)]
                 if kind == "H" else [np.zeros_like(y), Xs])
        return np.concatenate(parts, axis=-1).reshape(np.shape(q))

    return field


def fd_lift_connection(gamma, q, U, Vfield, h=1e-4):
    """nabla_U V at q, or at each row of an (n, 2m) stack, for the coordinate vector U
    at q and a coordinate vector field V, from the Christoffel symbols ``gamma`` at q
    (for example ``fd_connection(im, q)``).  V, which must take a stack of points, is
    evaluated on the stencil along U of every row as one stack."""
    q, U = (np.asarray(a, dtype=float) for a in (q, U))
    V = Vfield(_stencil(q, [U], h))
    return _quotients(V[1:], h)[0] + np.einsum("...kij,...i,...j->...k", gamma, U, V[0])

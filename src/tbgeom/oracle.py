"""Independent coordinate oracle on the 2m-dimensional chart (x, y).

Everything here is ground truth for the adapted-frame closed forms: the
bundle metric is realized as an explicit 2m x 2m component matrix and all
derived objects (connection, curvature, exterior derivatives, Nijenhuis
tensor) are obtained by one quotient rule: central differences at the steps
h and h/2, combined by one Richardson extrapolation step.  This module is the
only place that differences on a chart or lays out a stencil, and every
derivative follows one pattern: ``_stencil`` lays out the call's stencil as one
array (q, then the points stepped to along each direction, on axis 0),
``_evaluate`` runs the map once on the array's distinct rows and lays the values
out as the points are, and ``_quotients`` differences the values by their
position in the stencil.  ``fd_connection`` is the metric on the coordinate
stencil, differenced into the Levi-Civita symbols; ``fd_curvature`` is the same
rule applied to the connection on the outer stencil, with the metric of all
inner stencils evaluated as one stack.  ``fd_exterior_derivative`` evaluates a
map of points once on the stencil along its vectors and returns, for each form
the map gives (a covector or a matrix), its value at q and its exterior
derivative; the suites' dOmega and d(lee) and the sphere bundle's d(eta) are
its calls.
The metric is any object with ``matrix(q)`` on a stack of points: the
induced metric, whose stack's distinct base points x are evaluated as one
stack of first-order jets, or a base ``ChartMetric``.
``_chart_point`` takes a point q or an (n, 2m) stack and returns a
``TangentPoint`` at (x, y): g and Gamma at the distinct x from one stacked
first-order jet evaluation (Gamma is set on the point, which never evaluates
the third-order jets) and t = g(y, y)/2, with the weights evaluated once, on
first use, on the array of t.  The metric, the frame change, J, Omega, the Lee
form and the horizontal lift read the point by field name (``u``, ``gx``,
``gamma_u``, ``gu``, ``values(w)``, ``coeffs(w)``) and act on its stack axes;
the coordinate maps (``j_matrix``, ``omega_matrix``, ``lee_covector``) take the
point itself, a chart point or any TangentPoint, and the weight pair.  J's
adapted-frame blocks are the closed forms' own, ``tangent_bundle._j_blocks``.

Differential-form conventions (fixed):
    d omega (X, Y)      = 1/2 (X om(Y) - Y om(X) - om([X,Y]))
    d Omega (X, Y, Z)   = 1/3 (antisymmetrized sum)
    (om ^ Om)(X, Y, Z)  = 1/3 (om(X) Om(Y,Z) + om(Y) Om(Z,X) + om(Z) Om(X,Y))
"""

from __future__ import annotations

import warnings

import numpy as np

from . import base_geometry as bg
from . import tangent_bundle as tb
from .weights import WeightPair

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
    "lift_field",
    "fd_lift_connection",
]


class InducedMetric:
    """The bundle metric as a coordinate-component metric on (x, y)."""

    def __init__(self, base, weights: WeightPair):
        self.base = base
        self.weights = weights

    def matrix(self, q):
        """Components at q = (x, y), or at each row of an (n, 2m) stack of points, from
        one chart point of them all."""
        return _metric_matrix(_chart_point(self.base, q), self.weights)


def _chart_point(base, q):
    """The TangentPoint at q = (x, y), with u = y, or the stacked one at the rows of an
    (n, 2m) stack: g and Gamma at the distinct x from one first-order jet evaluation,
    and t = g(y, y)/2; every row equals the single call bit for bit."""
    q = np.asarray(q, dtype=float)
    x, y = q[..., : base.dim], q[..., base.dim :]
    g, gamma = bg._metric_and_christoffel(base, x)
    P = tb._point(base, x, y, g)
    P.__dict__["gamma"] = bg._readonly(gamma)
    return P


def _metric_matrix(P, w):
    # components at the chart point P, or at each row of a stacked one, under w
    vals, g, gy, gu = P.values(w), P.gx, P.gamma_u, P.gu
    V = bg._per_row(vals.a) * g + bg._per_row(vals.b) * (gu[..., :, None] * gu[..., None, :])
    gyTV = np.swapaxes(gy, -1, -2) @ V
    return np.block([[g + gyTV @ gy, gyTV], [V @ gy, V]])


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


def j_matrix(P, w):
    """Coordinate matrix of the almost complex structure at the point P (a chart point
    or any TangentPoint), or at each row of a stacked one."""
    JVH, JHV = tb._j_blocks(P, w)
    zero = np.zeros(JVH.shape)
    M, Minv = _frame(P.gamma_u)
    return M @ np.block([[zero, JVH], [JHV, zero]]) @ Minv


def omega_matrix(P, w):
    """Coordinate matrix of the fundamental 2-form, Om_ab = Om(e_a, e_b), at the point
    P, or at each row of a stacked one."""
    # Om(H_i, V_j) = g_A(H_i, J V_j); horizontal-horizontal and
    # vertical-vertical pairings vanish.
    OmHV = P.gx @ tb._j_blocks(P, w)[0]
    zero = np.zeros(OmHV.shape)
    Om = np.block([[zero, OmHV], [-np.swapaxes(OmHV, -1, -2), zero]])
    _, Minv = _frame(P.gamma_u)
    return np.swapaxes(Minv, -1, -2) @ Om @ Minv


def lee_covector(P, w):
    """Coordinate components of the Lee form at the point P, or at each row of a
    stacked one."""
    lee = bg._per_row(P.coeffs(w).lee_coef, 1) * P.gu
    _, Minv = _frame(P.gamma_u)
    return bg._gv(np.swapaxes(Minv, -1, -2), np.concatenate([np.zeros_like(lee), lee], axis=-1))


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
    lam = np.abs(np.linalg.eigvalsh(G[0]))  # G is symmetric: cond = |lam| max / |lam| min
    with np.errstate(divide="ignore"):
        cond = np.ravel(lam.max(-1) / lam.min(-1))
    for c, p in zip(cond[cond > 1e8], np.reshape(points, (-1, points.shape[-1]))[cond > 1e8]):
        warnings.warn(f"metric conditioning {c:.2e} at {p}")
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


def fd_exterior_derivative(fun, q, vectors, h=1e-4):
    """The value at q and the numeric exterior derivative of each form that ``fun``, a
    map of points, returns, from one evaluation of ``fun`` on the stencil along all of
    ``vectors``.  A covector is a 1-form, differentiated along ``vectors[:2]``, and a
    matrix a 2-form, along ``vectors[:3]``, on constant coordinate-extended vectors in
    the 1/(k+1)-normalized convention (brackets of constant fields vanish); each form
    is contracted with the other vectors at every stencil point before the quotient.
    q may be a point or a stack of them, and a vector one per row.  Returns a (value,
    derivative) pair, or a tuple of them where ``fun`` returns a tuple."""
    q = np.asarray(q, dtype=float)
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    points = _stencil(q, vectors, h)

    def derivative(values):
        # (-1)^i times the quotient along vectors[i] of the form on the other vectors
        vecs, total = vectors[: values.ndim - points.ndim + 2], 0.0
        for i in range(len(vecs)):
            form, rest = values[1 + 4 * i : 5 + 4 * i], vecs[:i] + vecs[i + 1 :]
            for v in rest[:-1]:
                form = bg._vg(v, form)
            total += (-1.0) ** i * _quotients(np.vecdot(form, rest[-1]), h)[0]
        return values[0], total / len(vecs)

    out = _evaluate(fun, points)
    return tuple(map(derivative, out)) if isinstance(out, tuple) else derivative(out)


def fd_nijenhuis(base, w, q, U, V, h=1e-5):
    """Numeric Nijenhuis tensor of J on coordinate-extended constant fields, at q or at
    each row of an (n, 2m) stack (with U and V one vector per row)."""
    q, U, V = (np.asarray(a, dtype=float) for a in (q, U, V))
    J0 = j_matrix(_chart_point(base, q), w)
    JU, JV = bg._gv(J0, U), bg._gv(J0, V)
    # J at the 16 points the four directional derivatives step to, as one stack
    stencil = _stencil(q, [JU, JV, U, V], h)[1:]
    J = _evaluate(lambda p: j_matrix(_chart_point(base, p), w), stencil)
    dJ_JU, dJ_JV, dJ_U, dJ_V = _quotients(J, h)
    # N = [JU,JV] - J[JU,V] - J[U,JV]  (constant fields, [U,V] = 0), with
    # [JU,JV] = (D_{JU} J)V - (D_{JV} J)U, [JU,V] = -(D_V J)U, [U,JV] = (D_U J)V
    gv = bg._gv
    return gv(dJ_JU, V) - gv(dJ_JV, U) + gv(J0, gv(dJ_V, U)) - gv(J0, gv(dJ_U, V))


def _lift(P, X, kind):
    # coordinate components of the horizontal lift (X, -Gamma(X, u)) or the vertical lift
    # (0, X) of X at the point P, row by row on a stacked one; only X^H reads P (gamma_u)
    parts = [X, -bg._gv(P.gamma_u, X)] if kind == "H" else [np.zeros(np.shape(X)), X]
    return np.concatenate(parts, axis=-1)


def lift_field(base, X, kind):
    """Coordinate field of the horizontal or vertical lift of a constant X, at a point
    q or at each row of a stack of points (..., n, 2m); X may be one vector per row
    (n, m), the same at every position of the leading axes.  The horizontal lift
    (X, -Gamma(X, y)) reads the connection map of one chart point per call; at a
    TangentPoint the lift reads the point's own (``_lift``)."""
    X = np.asarray(X, dtype=float)
    m = base.dim
    if kind not in ("H", "V"):
        raise ValueError(f"kind must be 'H' or 'V', got {kind!r}")

    def field(q):
        Xs = np.broadcast_to(X, np.shape(q)[:-1] + (m,)).reshape(-1, m)
        C = _chart_point(base, np.reshape(q, (-1, 2 * m))) if kind == "H" else None
        return _lift(C, Xs, kind).reshape(np.shape(q))

    return field


def fd_lift_connection(gamma, q, U, Vfield, h=1e-4):
    """nabla_U V at q, or at each row of an (n, 2m) stack, for the coordinate vector U
    at q and a coordinate vector field V, from the Christoffel symbols ``gamma`` at q
    (for example ``fd_connection(im, q)``).  V, which must take a stack of points, is
    evaluated on the stencil along U of every row as one stack."""
    q, U = (np.asarray(a, dtype=float) for a in (q, U))
    V = Vfield(_stencil(q, [U], h))
    return _quotients(V[1:], h)[0] + np.einsum("...kij,...i,...j->...k", gamma, U, V[0])

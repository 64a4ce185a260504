"""Independent coordinate oracle on the 2m-dimensional chart (x, y).

Everything here is ground truth for the adapted-frame closed forms: the
bundle metric is realized as an explicit 2m x 2m component matrix and all
derived objects (connection, curvature, exterior derivatives, Nijenhuis
tensor) are obtained by central finite differences with one Richardson
extrapolation step.  This module is the only place that differences on a
chart: every derivative goes through ``_central``, and the connection and
curvature of any metric with ``matrix(q)`` (the induced metric or a base
``ChartMetric``) through ``fd_connection`` and ``fd_curvature``, which
evaluate each distinct stencil point once per call.
For an ``InducedMetric`` the call's whole stencil goes to ``matrix`` as one
stack of distinct points, whose rows equal single calls bit for bit; the
stack's distinct base points x are evaluated as one stack of first-order
jets (``ChartMetric.derivatives`` on an (n, m) stack).  Stencils of other
maps are built by ``_stencil`` along given directions, with the points
``_central`` steps to, and ``_once(fun, points)`` evaluates a map at their
distinct points as one stack and serves each point's row by its exact bytes.
``_chart_point`` takes a point q or an (n, 2m) stack: one stacked base
evaluation at the distinct x, as in ``InducedMetric.matrix``, and one weight
evaluation on the array of t; J, Omega and the Lee form act on its stack axes.

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
        y, g, gamma, gu, t = _chart_base(self.base, q)
        return _metric_matrix(y, g, gamma, gu, self.weights.eval(t))


def _chart_base(base, q):
    # y, g(x), Gamma(x), g y and t = g(y, y)/2 at q = (x, y) or at each row of an
    # (n, 2m) stack, with (g, Gamma) from one first-order jet evaluation at the distinct x
    q = np.asarray(q, dtype=float)
    y = q[..., base.dim :]
    g, gamma = bg._metric_and_christoffel(base, q[..., : base.dim])
    t = 0.5 * (y[..., None, :] @ g @ y[..., None])[..., 0, 0]
    return y, g, gamma, (g @ y[..., None])[..., 0], t


def _chart_point(base, w, q):
    """y, g(x), Gamma(x), g y and the derived coefficients of w at q = (x, y), or each
    stacked over the rows of an (n, 2m) stack with the weights evaluated once on the
    array of t; every row equals the single call bit for bit."""
    *chart, t = _chart_base(base, q)
    return (*chart, derived_coeffs(w, t))


def _per_row(f, axes=2):
    # a scalar coefficient, or one per stack row, broadcast against the rows' matrices
    # (or against arrays with another number of trailing ``axes``)
    return np.reshape(f, np.shape(f) + (1,) * axes)


def _metric_matrix(y, g, gamma, gu, vals):
    # components at (x, y) from its chart data and the weights at t = g(y, y)/2, on any stack axes
    m = y.shape[-1]
    gy = np.einsum("...kij,...j->...ki", gamma, y)  # gy[k, i] = Gamma^k_{ij} y^j
    V = _per_row(vals.a) * g + _per_row(vals.b) * (gu[..., :, None] * gu[..., None, :])
    gyTV = np.swapaxes(gy, -1, -2) @ V
    G = np.zeros(y.shape[:-1] + (2 * m, 2 * m))
    G[..., :m, :m] = g + gyTV @ gy
    G[..., :m, m:] = gyTV
    G[..., m:, :m] = V @ gy
    G[..., m:, m:] = V
    return G


def _frame(gamma, y):
    # frame change M, columns = coordinate components of (delta_i, d/dy^i), and M^-1,
    # on any stack axes
    m = y.shape[-1]
    gy = np.einsum("...kij,...j->...ki", gamma, y)
    eye = np.broadcast_to(np.eye(2 * m), y.shape[:-1] + (2 * m, 2 * m))
    M, Minv = eye.copy(), eye.copy()
    M[..., m:, :m] = -gy
    Minv[..., m:, :m] = gy
    return M, Minv


def split_to_coord(U):
    """Coordinate components of a split vector, row by row on a stacked point."""
    M, _ = _frame(U.at.gamma, U.at.u)
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


def _j_matrix(y, g, gamma, gu, d):
    # j_matrix from the data of a chart point or a stack of them (g is not read)
    m = y.shape[-1]
    JVH, JHV = _j_blocks(y, gu, d)
    Jad = np.zeros(y.shape[:-1] + (2 * m, 2 * m))
    Jad[..., m:, :m] = JHV
    Jad[..., :m, m:] = JVH
    M, Minv = _frame(gamma, y)
    return M @ Jad @ Minv


def omega_matrix(base, w, q):
    """Coordinate matrix of the fundamental 2-form, Om_ab = Om(e_a, e_b), at q or at
    each row of a stack."""
    return _omega_matrix(*_chart_point(base, w, q))


def _omega_matrix(y, g, gamma, gu, d):
    m = y.shape[-1]
    # Om(H_i, V_j) = g_A(H_i, J V_j); horizontal-horizontal and
    # vertical-vertical pairings vanish.
    OmHV = g @ _j_blocks(y, gu, d)[0]
    Om = np.zeros(y.shape[:-1] + (2 * m, 2 * m))
    Om[..., :m, m:] = OmHV
    Om[..., m:, :m] = -np.swapaxes(OmHV, -1, -2)
    _, Minv = _frame(gamma, y)
    return np.swapaxes(Minv, -1, -2) @ Om @ Minv


def lee_covector(base, w, q):
    """Coordinate components of the Lee form at q, or at each row of a stack."""
    return _lee_covector(*_chart_point(base, w, q))


def _lee_covector(y, g, gamma, gu, d):
    om_ad = np.concatenate([np.zeros_like(gu), np.asarray(d.lee_coef)[..., None] * gu], axis=-1)
    _, Minv = _frame(gamma, y)
    return (np.swapaxes(Minv, -1, -2) @ om_ad[..., None])[..., 0]


def wedge_1_2(om_vec, Om_mat, v1, v2, v3):
    """(om ^ Om)(v1, v2, v3) in the 1/3-normalized convention, row by row on stacks."""
    om = [np.vecdot(om_vec, v) for v in (v1, v2, v3)]
    Om = [np.vecdot(bg._vg(a, Om_mat), b) for a, b in ((v2, v3), (v3, v1), (v1, v2))]
    return (om[0] * Om[0] + om[1] * Om[1] + om[2] * Om[2]) / 3.0


def _pair(q, v, h):
    # the two points q + h v and q - h v of a central quotient
    step = h * v
    return q + step, q - step


def _central(fun, q, v, h):
    """Central quotient (fun(q + h v) - fun(q - h v)) / 2h along v, at a point q or
    row by row on an (n, k) stack (v one direction, or one per row)."""
    up, down = _pair(q, v, h)
    if h <= 0 or (np.all(up == q, axis=-1) & np.any(v, axis=-1)).any():
        raise ValueError(f"differencing step {h} underflows at {q}")
    return (fun(up) - fun(down)) / (2 * h)


def _derivative(fun, q, v, h, richardson):
    """Derivative along v: the central quotient, Richardson-extrapolated once
    as (4 D(h/2) - D(h)) / 3 unless ``richardson`` is false."""
    d1 = _central(fun, q, v, h)
    if not richardson:
        return d1
    return (4.0 * _central(fun, q, v, h / 2) - d1) / 3.0


def _partials(fun, q, h, richardson):
    """Coordinate partials on an axis of their own: out[k] = d_k fun(q) at a point q,
    out[i, k] = d_k fun(q_i) on an (n, k) stack."""
    parts = [_derivative(fun, q, e, h, richardson) for e in np.eye(q.shape[-1])]
    return np.stack(parts, axis=q.ndim - 1)


def _stencil(q, vectors, h, richardson):
    """q and every point ``_derivative`` evaluates around it along each of ``vectors``
    (``_partials``: the coordinate axes), built as ``_central`` builds them; at an
    (n, k) stack each entry is a stack, and a vector may hold one direction per row."""
    steps = (h, h / 2) if richardson else (h,)
    return [q] + [p for v in vectors for s in steps for p in _pair(q, v, s)]


def _once(fun, points=()):
    """``fun(p)`` once per distinct point p, keyed on its exact bytes, with read-only
    arrays; at an (n, k) stack of points the rows are served as one stack.  ``points``
    (points, or stacks of them) are evaluated up front as one stack of their distinct
    rows, for a ``fun`` that takes a point or an (n, k) stack; their entries are its
    read-only rows (a tuple of rows where ``fun`` returns a tuple)."""
    seen = {}
    if len(points):
        qs = np.asarray(points)
        qs = bg._distinct(qs.reshape(-1, qs.shape[-1]))[0]
        out = bg._readonly(fun(qs))
        seen.update(zip((p.tobytes() for p in qs), zip(*out) if isinstance(out, tuple) else out))

    def row(p):
        key = p.tobytes()
        if key not in seen:
            seen[key] = bg._readonly(fun(p))
        return seen[key]

    # not recursive: a closure that calls itself is a reference cycle, which would keep
    # the table alive until the garbage collector runs instead of until the call returns
    def once(p):
        if p.ndim == 1:
            return row(p)
        rows = [row(r) for r in p]
        return tuple(map(np.stack, zip(*rows))) if isinstance(rows[0], tuple) else np.stack(rows)

    return once


class _CallView:
    """One oracle call's view of a metric: ``matrix(q)`` once per distinct q and, for
    an ``InducedMetric``, the call's ``stencil`` (of every row of a stacked call)
    evaluated up front as one stack (so (g(x), Gamma(x)) once per distinct x).  Made
    on entry to ``fd_connection`` / ``fd_curvature``, reused by nested calls, dropped
    on return."""

    def __init__(self, metric, stencil):
        self.matrix = _once(metric.matrix, stencil if isinstance(metric, InducedMetric) else ())


def fd_connection(metric, q, h=1e-4, richardson=True):
    """Finite-difference Christoffel symbols of any metric with ``matrix(q)``, at q or
    at each row of an (n, k) stack (a leading axis of n rows, each equal to the call
    at its point bit for bit)."""
    q = np.asarray(q, dtype=float)
    if not isinstance(metric, _CallView):
        metric = _CallView(metric, _stencil(q, np.eye(q.shape[-1]), h, richardson))
    G = metric.matrix(q)
    for cond, p in zip(np.atleast_1d(np.linalg.cond(G)), np.reshape(q, (-1, q.shape[-1]))):
        if cond > 1e8:
            warnings.warn(f"metric conditioning {cond:.2e} at {p}")
    dG = _partials(metric.matrix, q, h, richardson)
    return bg._levi_civita(np.linalg.inv(G), dG)


def fd_curvature(metric, q, h=1e-4, richardson=True):
    """Finite-difference curvature of any metric with ``matrix(q)`` (nested differencing),
    at q or at each row of an (n, k) stack, from one stencil table for all rows."""
    q = np.asarray(q, dtype=float)
    axes = np.eye(q.shape[-1])
    stencil = [p for s in _stencil(q, axes, h, richardson)
               for p in _stencil(s, axes, h, richardson)]
    view = _CallView(metric, stencil)

    def conn(p):
        return fd_connection(view, p, h=h, richardson=richardson)

    return bg._curvature_from(conn(q), _partials(conn, q, h, richardson))


def fd_directional(fun, q, v, h=1e-4, richardson=True):
    """Directional derivative of a scalar- or array-valued function."""
    q = np.asarray(q, dtype=float)
    return _derivative(fun, q, np.asarray(v, dtype=float), h, richardson)


def fd_exterior_derivative(form, q, vectors, h=1e-4, richardson=True):
    """Numeric exterior derivative on constant coordinate-extended vectors.

    ``form(q, v_1, .., v_k)`` evaluates the k-form; the result follows the
    1/(k+1)-normalized convention (brackets of constant fields vanish).
    """
    q = np.asarray(q, dtype=float)
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    k1 = len(vectors)
    total = 0.0
    for i, vi in enumerate(vectors):
        rest = vectors[:i] + vectors[i + 1 :]

        def slot(p, _rest=rest):
            return form(p, *_rest)

        total += (-1.0) ** i * fd_directional(slot, q, vi, h=h, richardson=richardson)
    return total / k1


def fd_nijenhuis(base, w, q, U, V, h=1e-5):
    """Numeric Nijenhuis tensor of J on coordinate-extended constant fields, at q or at
    each row of an (n, 2m) stack (with U and V one vector per row)."""
    q, U, V = (np.asarray(a, dtype=float) for a in (q, U, V))
    J0 = j_matrix(base, w, q)
    JU, JV = bg._gv(J0, U), bg._gv(J0, V)
    # J at the 16 points the four directional derivatives step to, as one stack
    J = _once(lambda p: _j_matrix(*_chart_point(base, w, p)),
              _stencil(q, [JU, JV, U, V], h, True)[1:])
    dJ_JU = fd_directional(J, q, JU, h=h)
    dJ_JV = fd_directional(J, q, JV, h=h)
    dJ_U = fd_directional(J, q, U, h=h)
    dJ_V = fd_directional(J, q, V, h=h)
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
    stencil = _stencil(q, [U], h, True)
    V = dict(zip((p.tobytes() for p in stencil), Vfield(np.stack(stencil))))
    dV = fd_directional(lambda p: V[p.tobytes()], q, U, h=h)
    return dV + np.einsum("...kij,...i,...j->...k", gamma, U, V[q.tobytes()])

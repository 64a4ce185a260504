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
``_central`` steps to, and ``_chart_points`` evaluates the chart data at all
of them from one stacked base evaluation and one weight evaluation.

Differential-form conventions (fixed):
    d omega (X, Y)      = 1/2 (X om(Y) - Y om(X) - om([X,Y]))
    d Omega (X, Y, Z)   = 1/3 (antisymmetrized sum)
    (om ^ Om)(X, Y, Z)  = 1/3 (om(X) Om(Y,Z) + om(Y) Om(Z,X) + om(Z) Om(X,Y))
"""

from __future__ import annotations

import warnings

import numpy as np

from . import base_geometry as bg
from .weights import WeightPair, WeightValues, _coeffs_from, derived_coeffs

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
        q = np.asarray(q, dtype=float)
        m = self.base.dim
        x, y = q[..., :m], q[..., m:]
        if q.ndim == 1:
            g, gamma = bg._metric_and_christoffel(self.base, x)
        else:
            xs, index = _distinct(x)
            g, gamma = (a[index] for a in bg._metric_and_christoffel(self.base, xs))
        t = 0.5 * (y[..., None, :] @ g @ y[..., None])[..., 0, 0]
        return _metric_matrix(g, gamma, y, self.weights.eval(t))


def _distinct(points):
    """The distinct rows of an (n, k) stack, compared by their exact bytes, and the
    index of each row among them."""
    rows = np.ascontiguousarray(points)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], index


def _metric_matrix(g, gamma, y, vals):
    # components at (x, y) from g(x), Gamma(x) and the weights at t = g(y, y)/2, on any stack axes
    m = y.shape[-1]
    gy = np.einsum("...kij,...j->...ki", gamma, y)  # gy[k, i] = Gamma^k_{ij} y^j
    gu = (g @ y[..., None])[..., 0]
    a, b = (np.asarray(f)[..., None, None] for f in (vals.a, vals.b))
    V = a * g + b * (gu[..., :, None] * gu[..., None, :])
    gyTV = np.swapaxes(gy, -1, -2) @ V
    G = np.zeros(y.shape[:-1] + (2 * m, 2 * m))
    G[..., :m, :m] = g + gyTV @ gy
    G[..., :m, m:] = gyTV
    G[..., m:, :m] = V @ gy
    G[..., m:, m:] = V
    return G


def _frame(gamma, y):
    # frame change M, columns = coordinate components of (delta_i, d/dy^i), and M^-1
    m = len(y)
    gy = np.einsum("kij,j->ki", gamma, y)
    M = np.eye(2 * m)
    M[m:, :m] = -gy
    Minv = np.eye(2 * m)
    Minv[m:, :m] = gy
    return M, Minv


def split_to_coord(U):
    """Coordinate components of a split vector."""
    P = U.at
    M, _ = _frame(P.gamma, P.u)
    return M @ np.concatenate([U.h, U.v])


def _chart_point(base, w, q, base_at=None):
    # y, g(x), Gamma(x), g y and the derived coefficients at q = (x, y); the base
    # metric is evaluated once, as first-order jets, or taken from base_at(x)
    q = np.asarray(q, dtype=float)
    x, y = q[: base.dim], q[base.dim :]
    g, gamma = base_at(x) if base_at else bg._metric_and_christoffel(base, x)
    return y, g, gamma, g @ y, derived_coeffs(w, 0.5 * float(y @ g @ y))


def _chart_points(w, y, g, gamma):
    """``_chart_point`` at each row of a stack, from y and the (g, Gamma) that
    ``bg._metric_and_christoffel`` evaluates on the stack of x: y, g, Gamma and g y
    stacked, and a list of derived coefficients, one per row, from one weight
    evaluation on the array of t.  Each row equals the single call bit for bit."""
    vals = w.eval(0.5 * (y[:, None, :] @ g @ y[..., None])[:, 0, 0])
    rows = zip(*(f.tolist() for f in vars(vals).values()))  # one float WeightValues per t
    coeffs = [_coeffs_from(WeightValues(*row), w.epsilon) for row in rows]
    return y, g, gamma, (g @ y[..., None])[..., 0], coeffs


def j_matrix(base, w, q):
    """Coordinate matrix of the almost complex structure at q = (x, y)."""
    return _j_matrix(*_chart_point(base, w, q))


def _j_matrix(y, g, gamma, gu, d):
    # j_matrix from the data of one chart point (g is not read)
    sa = np.sqrt(d.values.a)
    m = len(y)
    JHV = np.eye(m) / sa - d.A_coef * np.outer(y, gu)
    JVH = -sa * np.eye(m) + d.B_coef * np.outer(y, gu)
    Jad = np.zeros((2 * m, 2 * m))
    Jad[m:, :m] = JHV
    Jad[:m, m:] = JVH
    M, Minv = _frame(gamma, y)
    return M @ Jad @ Minv


def omega_matrix(base, w, q):
    """Coordinate matrix of the fundamental 2-form, Om_ab = Om(e_a, e_b)."""
    return _omega_matrix(*_chart_point(base, w, q))


def _omega_matrix(y, g, gamma, gu, d):
    sa = np.sqrt(d.values.a)
    m = len(y)
    # Om(H_i, V_j) = g_A(H_i, J V_j); horizontal-horizontal and
    # vertical-vertical pairings vanish.
    OmHV = g @ (-sa * np.eye(m) + d.B_coef * np.outer(y, gu))
    Om = np.zeros((2 * m, 2 * m))
    Om[:m, m:] = OmHV
    Om[m:, :m] = -OmHV.T
    _, Minv = _frame(gamma, y)
    return Minv.T @ Om @ Minv


def lee_covector(base, w, q):
    """Coordinate components of the Lee form at q."""
    return _lee_covector(*_chart_point(base, w, q))


def _lee_covector(y, g, gamma, gu, d):
    m = len(y)
    om_ad = np.concatenate([np.zeros(m), d.lee_coef * gu])
    _, Minv = _frame(gamma, y)
    return Minv.T @ om_ad


def wedge_1_2(om_vec, Om_mat, v1, v2, v3):
    """(om ^ Om)(v1, v2, v3) in the 1/3-normalized convention."""
    return (
        float(om_vec @ v1) * float(v2 @ Om_mat @ v3)
        + float(om_vec @ v2) * float(v3 @ Om_mat @ v1)
        + float(om_vec @ v3) * float(v1 @ Om_mat @ v2)
    ) / 3.0


def _pair(q, v, h):
    # the two points q + h v and q - h v of a central quotient
    step = h * v
    return q + step, q - step


def _central(fun, q, v, h):
    """Central quotient (fun(q + h v) - fun(q - h v)) / 2h along v."""
    up, down = _pair(q, v, h)
    if h <= 0 or ((up == q).all() and v.any()):
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
    """Coordinate partials stacked on a leading axis: out[k] = d_k fun(q)."""
    return np.array([_derivative(fun, q, e, h, richardson) for e in np.eye(q.size)])


def _stencil(q, vectors, h, richardson):
    """q and every point ``_derivative`` evaluates around it along each of ``vectors``
    (``_partials``: the coordinate axes), built as ``_central`` builds them."""
    steps = (h, h / 2) if richardson else (h,)
    return [q] + [p for v in vectors for s in steps for p in _pair(q, v, s)]


def _once(fun):
    # fun once per distinct point (keyed on its exact bytes); the arrays it returns
    # are made read-only, so a stray write raises instead of corrupting a later lookup
    seen = {}

    def once(p):
        key = p.tobytes()
        if key not in seen:
            seen[key] = out = fun(p)
            for a in out if isinstance(out, tuple) else (out,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
        return seen[key]

    once.seen = seen
    return once


class _CallView:
    """One oracle call's view of a metric: ``matrix(q)`` once per distinct q and, for
    an ``InducedMetric``, the call's ``stencil`` evaluated up front as one stack (so
    (g(x), Gamma(x)) once per distinct x).  Made on entry to ``fd_connection`` /
    ``fd_curvature``, reused by nested calls, dropped on return."""

    def __init__(self, metric, stencil):
        self.matrix = _once(metric.matrix)
        if isinstance(metric, InducedMetric):
            points = _distinct(np.array(stencil))[0]
            for p, G in zip(points, metric.matrix(points)):
                G.flags.writeable = False
                self.matrix.seen[p.tobytes()] = G


def fd_connection(metric, q, h=1e-4, richardson=True):
    """Finite-difference Christoffel symbols of any metric with ``matrix(q)``."""
    q = np.asarray(q, dtype=float)
    if not isinstance(metric, _CallView):
        metric = _CallView(metric, _stencil(q, np.eye(q.size), h, richardson))
    G = metric.matrix(q)
    cond = np.linalg.cond(G)
    if cond > 1e8:
        warnings.warn(f"metric conditioning {cond:.2e} at {q}")
    dG = _partials(metric.matrix, q, h, richardson)
    return bg._levi_civita(np.linalg.inv(G), dG)


def fd_curvature(metric, q, h=1e-4, richardson=True):
    """Finite-difference curvature of any metric with ``matrix(q)`` (nested differencing)."""
    q = np.asarray(q, dtype=float)
    axes = np.eye(q.size)
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
    """Numeric Nijenhuis tensor of J on coordinate-extended constant fields."""
    q = np.asarray(q, dtype=float)
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)

    base_at = _once(lambda x: bg._metric_and_christoffel(base, x))

    def J(p):
        return _j_matrix(*_chart_point(base, w, p, base_at))

    J0 = J(q)
    JU, JV = J0 @ U, J0 @ V
    dJ_JU = fd_directional(J, q, JU, h=h)
    dJ_JV = fd_directional(J, q, JV, h=h)
    dJ_U = fd_directional(J, q, U, h=h)
    dJ_V = fd_directional(J, q, V, h=h)
    # N = [JU,JV] - J[JU,V] - J[U,JV]  (constant fields, [U,V] = 0), with
    # [JU,JV] = (D_{JU} J)V - (D_{JV} J)U, [JU,V] = -(D_V J)U, [U,JV] = (D_U J)V
    return dJ_JU @ V - dJ_JV @ U + J0 @ (dJ_V @ U) - J0 @ (dJ_U @ V)


def lift_field(base, X, kind):
    """Coordinate field of the horizontal or vertical lift of a constant X."""
    X = np.asarray(X, dtype=float)
    m = base.dim

    if kind == "H":
        christoffel = _once(lambda x: bg.christoffel(base, x))  # one Gamma per distinct x

        def field(q):
            return np.concatenate([X, -np.einsum("kij,j,i->k", christoffel(q[:m]), q[m:], X)])

    elif kind == "V":

        def field(q):
            return np.concatenate([np.zeros(m), X])

    else:
        raise ValueError(f"kind must be 'H' or 'V', got {kind!r}")
    return field


def fd_lift_connection(gamma, q, Ufield, Vfield, h=1e-4):
    """nabla_U V for coordinate vector fields, from the Christoffel symbols
    ``gamma`` at q (for example ``fd_connection(im, q)``)."""
    q = np.asarray(q, dtype=float)
    U0 = Ufield(q)
    dV = fd_directional(Vfield, q, U0, h=h)
    return dV + np.einsum("kij,i,j->k", gamma, U0, Vfield(q))

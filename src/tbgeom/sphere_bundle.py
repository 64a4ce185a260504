"""Tangent sphere bundles as hypersurfaces, their contact structures,
the radius-sqrt(a) isometry, and the K-contact/Sasakian verdicts.

There is one construction: the radius-r bundle g(u, u) = r^2 inside T(M)
with the metric of a weight pair w, given as a point P of that bundle
(``sphere_point``, radius P.r) and w.  The paper's unit tangent bundle is
(w, r = 1) and its tangent sphere bundle of radius r is (Sasaki, r).
Contact structures are built directly from the ambient almost complex
structure by tangent/normal projection and rescaled to a contact metric
structure by c = 2 r sqrt(a(r^2/2)); the displayed component formulas
are test targets, not the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import base_geometry as bg
from . import oracle as orc
from . import tangent_bundle as tb
from .jets import _pow
from .weights import WeightPair, named_family

__all__ = [
    "sphere_point",
    "ContactStructure",
    "generators",
    "induced_metric",
    "unit_normal",
    "contact_structure",
    "isometry_residuals",
    "t1_connection",
    "t1_connection_fd",
    "deta_numeric",
    "k_contact_verdict",
    "sasakian_residuals",
]

_SASAKI = named_family("sasaki")
_ISOMETRY_PAIRS = 10  # random tangent pairs per point in isometry_residuals


def sphere_point(base, x, u, r=None):
    """Point of the radius-r sphere bundle: a TangentPoint with t = r^2/2.

    ``r`` defaults to |u|; a given ``r`` must match |u| to 1e-12 in r^2.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    gx = base.validate_at(x)
    norm2 = float(u @ gx @ u)
    if r is None:
        r = float(np.sqrt(norm2))
    elif abs(norm2 - r * r) > 1e-12:
        raise bg.GeometryError(f"|g(u,u) - r^2| = {abs(norm2 - r*r)} > 1e-12")
    return tb.TangentPoint(base, x, u, gx, 0.5 * float(r) ** 2)


def generators(P: tb.TangentPoint):
    """Spanning fields (delta_i, fiber-tangent verticals) in coordinates.

    Returns (deltas, verts): two (m, 2m) arrays of row vectors.  The
    verticals satisfy u^i vert_i = 0 and span an (m-1)-dimensional space.
    """
    m = P.base.dim
    gy = np.einsum("kij,j->ki", P.gamma, P.u)
    deltas = np.hstack([np.eye(m), -gy.T])
    verts = np.hstack([np.zeros((m, m)), np.eye(m) - 1.0 / P.r**2 * np.outer(P.gu, P.u)])
    return deltas, verts


def induced_metric(P, w):
    """Displayed component formulas of the induced metric on the generators.

    Returns (G_dd, G_dv, G_vv); the ambient restriction reproduces these
    blocks (cross-checked in the verification suites).
    """
    m = P.base.dim
    g, gu = P.gx, P.gu
    G_dd = g.copy()
    G_dv = np.zeros((m, m))
    G_vv = P.values(w).a * (g - np.outer(gu, gu) / P.r**2)
    return G_dd, G_dv, G_vv


def unit_normal(P, w):
    vals = P.values(w)
    norm2 = vals.a * P.r**2 + vals.b * P.r**4
    return np.concatenate([np.zeros(P.base.dim), P.u]) / np.sqrt(norm2)


@dataclass(frozen=True)
class ContactStructure:
    """Pointwise almost contact metric data in ambient coordinates."""

    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    G: np.ndarray
    normal: np.ndarray
    rescaled: bool

    def tangent_projector(self):
        N, G = self.normal, self.G
        scale = float(N @ G @ N)
        return np.eye(len(N)) - np.outer(N, G @ N) / scale


def contact_structure(P, w, rescaled=False, epsilon=None):
    """Almost contact metric structure induced by the ambient Hermitian pair.

    phi U = tan(J U), eta(U) N = nor(J U), xi = -J N; with the rescaled
    flag the structure is renormalized to a contact metric structure by
    c = 2 r sqrt(a): xi -> -eps c xi, eta -> -eps eta / c, G -> G / c^2.
    """
    # the normal and the rescaling read the weights at P.t, whose values do not
    # depend on epsilon; G and J share one chart point, whose t = g(y, y)/2 may
    # differ from P.t in the last bit
    vals = P.values(w)
    N = unit_normal(P, w)
    if epsilon is not None and epsilon != w.epsilon:
        w = WeightPair(w.a, w.b, epsilon, w.t_domain, w.name, w.params)
    y, g, gamma, gu, d = orc._chart_point(P.base, w, P.q)
    G = orc._metric_matrix(y, g, gamma, gu, d.values)
    J = orc._j_matrix(y, g, gamma, gu, d)
    phi = (np.eye(len(N)) - np.outer(N, G @ N)) @ J
    eta = J.T @ G @ N
    xi = -J @ N
    if rescaled:
        eps = w.epsilon
        c = 2 * P.r * np.sqrt(vals.a)
        xi, eta, G = -eps * c * xi, -eps / c * eta, G / (4 * P.r**2 * vals.a)
    return ContactStructure(phi, xi, eta, G, N, rescaled)


def _rand_tangent(S, rng):
    v = S.tangent_projector() @ rng.standard_normal(len(S.xi))
    n = np.sqrt(float(v @ S.G @ v))
    return v / n


def isometry_residuals(base, w, points, r=None, rng=None):
    """Residuals of the rescaling map (x, u) -> (x, r u) on the unit bundle.

    Compares the pulled-back rescaled sphere-bundle structure with the
    rescaled unit-bundle structure; all residuals vanish exactly when
    r = sqrt(a(1/2)).
    """
    rng = rng or np.random.default_rng(0)
    a = w.eval(0.5).a
    r_used = float(np.sqrt(a)) if r is None else float(r)
    m = base.dim
    dF = np.diag(np.concatenate([np.ones(m), r_used * np.ones(m)]))
    out = {"metric": 0.0, "phi": 0.0, "xi": 0.0, "r": r_used}
    for (x, u) in points:
        P1 = sphere_point(base, x, u, r=1.0)
        S_A = contact_structure(P1, w, rescaled=True)
        Pr = sphere_point(base, x, r_used * np.asarray(u), r=r_used)
        S_r = contact_structure(Pr, _SASAKI, rescaled=True)

        def rnorm(v):
            return float(np.sqrt(max(v @ S_r.G @ v, 0.0)))

        for _ in range(_ISOMETRY_PAIRS):
            U = _rand_tangent(S_A, rng)
            V = _rand_tangent(S_A, rng)
            lhs = float(dF @ U @ S_r.G @ (dF @ V))
            rhs = float(U @ S_A.G @ V)
            out["metric"] = max(out["metric"], abs(lhs - rhs))
            out["phi"] = max(out["phi"], rnorm(dF @ (S_A.phi @ U) - S_r.phi @ (dF @ U)))
        out["xi"] = max(out["xi"], rnorm(dF @ S_A.xi - S_r.xi))
    return out


def t1_connection(P, w, case, i, j):
    """Closed-form unit-bundle connection on the generator fields (P.r = 1).

    ``case`` in {"dd", "Yd", "dY", "YY"} selects nabla_{delta_i} delta_j,
    nabla_{Y_i} delta_j, nabla_{delta_i} Y_j, nabla_{Y_i} Y_j; returns
    ambient coordinate components of the result.
    """
    a = P.values(w).a
    gamma, R = P.gamma, P.R
    deltas, Ys = generators(P)
    y, gu = P.u, P.gu
    if case == "dd":
        R0ij = np.einsum("klij,l->kij", R, y)  # R^k_{0ij}
        return gamma[:, i, j] @ deltas - 0.5 * R0ij[:, i, j] @ Ys
    if case == "Yd":
        Rj0i = np.einsum("kjli,l->kji", R, y)  # R^k_{j0i}
        return (a / 2) * Rj0i[:, j, i] @ deltas
    if case == "dY":
        Ri0j = np.einsum("kjli,l->kji", R, y)
        return gamma[:, i, j] @ Ys + (a / 2) * Ri0j[:, i, j] @ deltas
    if case == "YY":
        return -float(gu[j]) * Ys[i]
    raise ValueError(f"unknown case {case!r}")


def t1_connection_fd(P, w, case, i, j, h=1e-4):
    """Finite-difference counterpart of t1_connection by the Gauss formula: the
    tangential part of the ambient oracle connection on the generator fields."""
    base, m = P.base, P.base.dim

    def y_field(k):
        def f(q):  # at a point q or at each row of a stack
            y, _, _, gy, _ = orc._chart_base(base, q)
            out = np.zeros(np.shape(q))
            out[..., m + k] = 1.0
            out[..., m:] -= gy[..., k, None] * y
            return out

        return f

    def field(kind, k):
        return orc.lift_field(base, np.eye(m)[k], "H") if kind == "d" else y_field(k)

    U, V = field(case[0], i), field(case[1], j)
    # one view of the ambient metric: its stencil stack holds G at P.q for the normal
    ambient = orc._CallView(orc.InducedMetric(base, w), orc._stencil(P.q, np.eye(2 * m), h, True))
    amb = orc.fd_lift_connection(orc.fd_connection(ambient, P.q, h), P.q, U, V, h)
    # the bundle is a level set of t = g(y, y)/2: dt = (1/2 d_x g(y, y), g y), N = G^-1 dt
    dg = base.derivatives(P.x, 1)[1]
    dt = np.concatenate([0.5 * np.einsum("kij,i,j->k", dg, P.u, P.u), P.gu])
    N = np.linalg.solve(ambient.matrix(P.q), dt)
    return amb - N * (dt @ amb) / (dt @ N)


def deta_numeric(P, w, vectors, h=1e-4, rescaled=True):
    """Numeric d(eta) on tangent vectors (1/2-convention), by pullback: eta is
    extended off the bundle as the eta of the radius-|y| bundle through each point,
    evaluated at the call's 8 stencil points per pair as one stack."""
    vectors = [[np.asarray(v, dtype=float) for v in pair] for pair in vectors]
    stencil = orc._stencil(P.q, [v for pair in vectors for v in pair], h, True)[1:]
    eta = orc._once(lambda qs: _extended_eta(P.base, w, qs, rescaled), stencil)

    def form(q, v):
        return float(eta(q) @ v)

    return np.array([orc.fd_exterior_derivative(form, P.q, [U, V], h=h) for U, V in vectors])


def _extended_eta(base, w, qs, rescaled):
    # eta of contact_structure(sphere_point(base, x, y), w, rescaled) at each row (x, y)
    # of an (n, 2m) stack, each row checked as sphere_point checks it; one chart
    # evaluation of the stack, and only G, J and the unit normal are built
    y, g, gamma, gu, d = orc._chart_point(base, w, qs)
    base._checked(g, qs[:, : base.dim])
    # sphere_point's t = |y|^2/2 through r = |y| (|y|^2 is twice the chart's t, exactly),
    # and its radius sqrt(2t), as in unit_normal
    t = 0.5 * _pow(np.sqrt(2.0 * d.values.t), 2)
    r = np.sqrt(2.0 * t)
    vals = w.eval(t)
    norm = np.sqrt(vals.a * _pow(r, 2) + vals.b * _pow(r, 4))
    N = np.hstack([np.zeros_like(y), y]) / norm[:, None]
    scale = -w.epsilon / (2 * r * np.sqrt(vals.a)) if rescaled else np.ones(len(qs))
    J = orc._j_matrix(y, g, gamma, gu, d)
    G = orc._metric_matrix(y, g, gamma, gu, d.values)
    return scale[:, None] * (np.swapaxes(J, -1, -2) @ G @ N[..., None])[..., 0]


def _kcontact_vectors(P, w):
    """Analytic residual vectors of the K-contact condition at P."""
    m = P.base.dim
    a = P.values(w).a
    sa = np.sqrt(a)
    R = P.R
    y, gu = P.u, P.gu
    deltas, Ys = generators(P)
    R0i0 = np.einsum("klij,l,j->ki", R, y, y)  # R^k_{0i0}
    res = []
    for i in range(m):
        # nabla_{delta_i} xi + phi delta_i = sqrt(a) [(1/a) d^k_i - R^k_{0i0}] Y_k
        coef = (np.eye(m)[:, i] / a - R0i0[:, i]) * sa
        res.append(coef @ Ys)
        # nabla_{Y_i} xi + phi Y_i = sqrt(a) [(d^k_i - g_{i0} y^k) - a R^k_{0i0}] delta_k
        coef2 = sa * ((np.eye(m)[:, i] - gu[i] * y) - a * R0i0[:, i])
        res.append(coef2 @ deltas)
    return res


def sasakian_residuals(P, w):
    """Analytic residual vectors of (nabla_U phi)V = G(U,V) xi - eta(V) U."""
    m = P.base.dim
    a = P.values(w).a
    sa = np.sqrt(a)
    R = P.R
    y, gu, g = P.u, P.gu, P.gx
    deltas, Ys = generators(P)
    xi0 = y @ deltas  # y^k delta_k
    R0i0 = np.einsum("klij,l,j->ki", R, y, y)
    R_i0j = np.einsum("kilj,l->kij", R, y)  # R^k_{i0j}
    R_0ij = np.einsum("klij,l->kij", R, y)  # R^k_{0ij}
    R_j0i = np.einsum("kjli,l->kji", R, y)  # R^k_{j0i}
    res = []
    for i in range(m):
        for j in range(m):
            # (nabla_{delta_i} phi) delta_j - [G(d_i,d_j) xi - eta(d_j) d_i]
            v = (sa / 2) * (R_i0j[:, i, j] - R_0ij[:, i, j]) @ deltas - (
                1 / (2 * sa)
            ) * (g[i, j] * y - gu[j] * np.eye(m)[:, i]) @ deltas
            res.append(v)
            # (nabla_{delta_i} phi) Y_j residual
            v = (sa / 2) * (
                R_0ij[:, i, j] - R_i0j[:, i, j] - gu[j] * R0i0[:, i]
            ) @ Ys
            res.append(v)
            # (nabla_{Y_i} phi) delta_j residual
            v = -(gu[j] / (2 * sa)) * Ys[i] - (sa / 2) * R_j0i[:, j, i] @ Ys
            res.append(v)
            # (nabla_{Y_i} phi) Y_j residual
            v = -(a * sa / 2) * (R_j0i[:, j, i] + gu[j] * R0i0[:, i]) @ deltas + (
                sa / 2
            ) * (g[i, j] - gu[i] * gu[j]) * xi0
            res.append(v)
    return res


def k_contact_verdict(base, w, points, tol=1e-8):
    """K-contact and Sasakian residuals of the rescaled unit-bundle structure.

    The verdict is positive exactly when both residual families vanish;
    for a constant-curvature base this happens iff the curvature is 1/a.
    """
    kc = 0.0
    sas = 0.0
    a = w.eval(0.5).a
    # one stacked point: the base jets at each distinct x once
    stacked = tb.TangentPoint.stack([sphere_point(base, x, u, r=1.0) for x, u in points])
    for i in range(len(points)):
        P = stacked[i]
        S = contact_structure(P, w, rescaled=True)

        def gnorm(v):
            return float(np.sqrt(max(v @ S.G @ v, 0.0)))

        for v in _kcontact_vectors(P, w):
            kc = max(kc, gnorm(v))
        for v in sasakian_residuals(P, w):
            sas = max(sas, gnorm(v))
    predicted = isinstance(base, bg.SpaceForm) and abs(base.curvature - 1.0 / a) < 1e-12
    return {
        "k_contact_residual": kc,
        "sasakian_residual": sas,
        "is_k_contact": kc <= tol,
        "is_sasakian": kc <= tol and sas <= tol,
        "predicted_k_contact": predicted,
    }

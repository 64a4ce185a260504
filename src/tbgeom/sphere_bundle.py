"""Tangent sphere bundles as hypersurfaces, their contact structures,
the radius-sqrt(a) isometry, and the K-contact/Sasakian verdicts.

There is one bundle: the radius-r bundle g(u, u) = r^2 inside T(M) with the
metric of a weight pair w, given as a point P of that bundle
(``tangent_point(base, x, u, r)``, radius P.r) and w.  The paper's unit tangent
bundle is (w, r = 1) and its tangent sphere bundle of radius r is (Sasaki, r),
whose points the rescaling map ``P.at_radius(r)`` gives from the unit bundle's.
P may be a stacked point: the functions then act row by row, each row equal to
the call at that row's single point bit for bit, and the verdicts take maxima
over the rows.  There is one contact construction, ``_structure``: G and J
from the oracle's coordinate maps at the point it is given, the normal and the
rescaling to a contact metric structure (c = 2 r sqrt(a(r^2/2))) from the
weights at that point's t = r^2/2, and phi, xi, eta by tangent/normal projection
of J; ``contact_structure`` applies it at P and ``deta_numeric`` at the oracle
chart points of its stencil.  The displayed component formulas are test
targets, not the implementation.
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
    "ContactStructure",
    "generators",
    "induced_metric",
    "contact_structure",
    "isometry_residuals",
    "t1_connection",
    "t1_connection_fd",
    "deta_numeric",
    "k_contact_verdict",
]

_SASAKI = named_family("sasaki")
_ISOMETRY_PAIRS = 10  # random tangent pairs per point in isometry_residuals
_KCONTACT_TOL = 1e-8  # largest K-contact / Sasakian residual of a positive verdict


def _outer(a, b):
    # np.outer(a, b) row by row on stacks
    return a[..., :, None] * b[..., None, :]


def generators(P: tb.TangentPoint):
    """Spanning fields (delta_i, fiber-tangent verticals) in coordinates.

    Returns (deltas, verts): two (m, 2m) arrays of row vectors, (n, m, 2m) at a
    stack.  The verticals satisfy u^i vert_i = 0 and span an (m-1)-dimensional space.
    """
    gy = P.gamma_u
    eye = np.broadcast_to(np.eye(P.base.dim), gy.shape)
    deltas = np.concatenate([eye, -np.swapaxes(gy, -1, -2)], axis=-1)
    verts = eye - bg._per_row(1.0 / _pow(P.r, 2)) * _outer(P.gu, P.u)
    return deltas, np.concatenate([np.zeros(gy.shape), verts], axis=-1)


def induced_metric(P, w):
    """Displayed component formulas of the induced metric on the generators.

    Returns (G_dd, G_dv, G_vv); the ambient restriction reproduces these
    blocks (cross-checked in the verification suites).
    """
    g, gu = P.gx, P.gu
    G_vv = bg._per_row(P.values(w).a) * (g - _outer(gu, gu) / bg._per_row(_pow(P.r, 2)))
    return g.copy(), np.zeros(g.shape), G_vv


def _normal(y, r, vals):
    # the unit normal (0, y)/|(0, y)| of the radius-r bundle, with the weights at t = r^2/2
    norm2 = vals.a * _pow(r, 2) + vals.b * _pow(r, 4)
    return np.concatenate([np.zeros_like(y), y], axis=-1) / bg._per_row(np.sqrt(norm2), 1)


@dataclass(frozen=True)
class ContactStructure:
    """Almost contact metric data in ambient coordinates, at a point or row by row."""

    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    G: np.ndarray
    normal: np.ndarray
    rescaled: bool

    def tangent_projector(self):
        N, GN = self.normal, bg._gv(self.G, self.normal)
        scale = np.vecdot(bg._vg(N, self.G), N)
        return np.eye(N.shape[-1]) - _outer(N, GN) / bg._per_row(scale)


def contact_structure(P, w, rescaled=False, epsilon=None):
    """Almost contact metric structure induced by the ambient Hermitian pair.

    phi U = tan(J U), eta(U) N = nor(J U), xi = -J N; with the rescaled
    flag the structure is renormalized to a contact metric structure by
    c = 2 r sqrt(a): xi -> -eps c xi, eta -> -eps eta / c, G -> G / c^2.
    """
    if epsilon is not None and epsilon != w.epsilon:
        w = WeightPair(w.a, w.b, epsilon, w.t_domain, w.name, w.params)
    return _structure(P, w, rescaled)


def _structure(P, w, rescaled):
    # the construction of contact_structure at P (or a stacked one) under w: G, J, the
    # normal and the rescaling, all read at P, on the radius P.r
    r, vals = P.r, P.values(w)
    N = _normal(P.u, r, vals)
    G = orc._metric_matrix(P, w)
    J = orc.j_matrix(P, w)
    phi = (np.eye(N.shape[-1]) - _outer(N, bg._gv(G, N))) @ J
    eta = bg._gv(np.swapaxes(J, -1, -2) @ G, N)
    xi = bg._gv(-J, N)
    if rescaled:
        eps, c = w.epsilon, 2 * r * np.sqrt(vals.a)
        xi, eta = bg._per_row(-eps * c, 1) * xi, bg._per_row(-eps / c, 1) * eta
        G = G / bg._per_row(4 * _pow(r, 2) * vals.a)
    return ContactStructure(phi, xi, eta, G, N, rescaled)


def isometry_residuals(w, P, radii=(None,), rng=None):
    """Residuals of the rescaling map (x, u) -> (x, r u) on the unit bundle at the unit
    point P, a stacked one: one dict per radius r of ``radii`` (None for sqrt(a(1/2))).

    Compares the pulled-back rescaled sphere-bundle structure at ``P.at_radius(r)`` with
    the rescaled unit-bundle structure, built once for all radii, at _ISOMETRY_PAIRS
    random tangent pairs per point, drawn radius by radius; all residuals vanish exactly
    when r = sqrt(a(1/2)).
    """
    rng = rng or np.random.default_rng(0)
    a = float(np.ravel(P.values(w).a)[0])  # every row's t is 1/2
    m = P.base.dim
    S_A = contact_structure(P, w, rescaled=True)
    G_A = S_A.G[:, None]
    out = []
    for r in radii:
        r = float(np.sqrt(a)) if r is None else float(r)
        S_r = contact_structure(P.at_radius(r), _SASAKI, rescaled=True)
        dF = np.concatenate([np.ones(m), r * np.ones(m)])  # the diagonal of the differential
        G_r = S_r.G[:, None]
        # the pairs of each point, drawn U, V, U, V, ..., made G_A-unit tangent vectors
        UV = bg._gv(S_A.tangent_projector()[:, None],
                    rng.standard_normal((len(P.x), 2 * _ISOMETRY_PAIRS, 2 * m)))
        UV = UV / np.sqrt(np.vecdot(bg._vg(UV, G_A), UV))[..., None]
        U, V = UV[:, 0::2], UV[:, 1::2]

        def rnorm(v):
            return np.sqrt(np.maximum(np.vecdot(bg._vg(v, G_r), v), 0.0))

        metric = np.vecdot(bg._vg(dF * U, G_r), dF * V) - np.vecdot(bg._vg(U, G_A), V)
        phi = dF * bg._gv(S_A.phi[:, None], U) - bg._gv(S_r.phi[:, None], dF * U)
        out.append({"metric": float(np.max(np.abs(metric))), "phi": float(np.max(rnorm(phi))),
                    "xi": float(np.max(rnorm((dF * S_A.xi - S_r.xi)[:, None]))), "r": r})
    return out


def t1_connection(P, w, case, i, j):
    """Closed-form unit-bundle connection on the generator fields (P.r = 1).

    ``case`` in {"dd", "Yd", "dY", "YY"} selects nabla_{delta_i} delta_j,
    nabla_{Y_i} delta_j, nabla_{delta_i} Y_j, nabla_{Y_i} Y_j; returns
    ambient coordinate components of the result.  At a stacked P, ``case``, ``i``
    and ``j`` may be one per row; each row equals the call at its point bit for bit.
    """
    if not np.isin(case, cases := ("dd", "Yd", "dY", "YY")).all():
        raise ValueError(f"unknown case {case!r}")
    at, a = ((np.arange(len(P.t)),) if np.ndim(P.t) else ()), bg._per_row(P.values(w).a, 1)
    deltas, Ys = generators(P)
    # Gamma^k_{ij} delta_k, Gamma^k_{ij} Y_k (rounded as the strided 1-D gamma[:, i, j] @
    # deltas), R^k_{0ij} and R^k_{i0j} at every (i, j), k last; [(*at, i, j)] picks each row's
    gam = np.moveaxis(P.gamma, -3, -1)
    gd, gY = (bg._vg(gam, A[..., None, None, :, :]) for A in (deltas, Ys))
    R0, Ri0 = np.moveaxis(P.Ru[0], -3, -1), np.swapaxes(P.Ru[1], -3, -1)
    out = [gd[(*at, i, j)] - bg._vg(0.5 * R0[(*at, i, j)], Ys),  # in the order of cases
           bg._vg((a / 2) * Ri0[(*at, j, i)], deltas),
           gY[(*at, i, j)] + bg._vg((a / 2) * Ri0[(*at, i, j)], deltas),
           -bg._per_row(P.gu[(*at, j)], 1) * Ys[(*at, i)]]
    return np.select([bg._per_row(np.equal(case, c), 1) for c in cases], out)


def t1_connection_fd(P, w, case, i, j, h=1e-4):
    """Finite-difference counterpart of t1_connection by the Gauss formula: the
    tangential part of the ambient oracle connection on the generator fields.  At a
    stacked P, ``case``, ``i`` and ``j`` may be one per row: one connection stencil
    of all rows, each row equal to the call at its point bit for bit."""
    base, m, at = P.base, P.base.dim, ((np.arange(len(P.t)),) if np.ndim(P.t) else ())

    def field(delta, k):  # delta_k where ``delta``, else Y_k, at a point C laid out as ``lead``
        def f(C, lead):
            e = np.broadcast_to(np.eye(m)[k], lead + (m,))
            H = orc._lift(C, e.reshape(-1, m), "H").reshape(lead + (2 * m,))
            y, gu = (np.reshape(c, lead + (m,)) for c in (C.u, C.gu))
            Y = e - bg._per_row(gu[(..., *at, k)], 1) * y
            return np.where(bg._per_row(delta, 1), H, np.concatenate([np.zeros_like(y), Y], -1))

        return f

    U, V = field(np.isin(case, ("dd", "dY")), i), field(np.isin(case, ("dd", "Yd")), j)
    # the ambient metric on the connection stencil, whose row at P also gives G for the normal
    G, gamma = orc._metric_and_connection(orc.InducedMetric(base, w), P.q, h)
    amb = orc.fd_lift_connection(gamma, P.q, U(P, np.shape(P.t)), lambda q: V(
        orc._chart_point(base, np.reshape(q, (-1, 2 * m))), np.shape(q)[:-1]), h)
    # the bundle is a level set of t = g(y, y)/2: dt = (1/2 d_x g(y, y), g y), N = G^-1 dt,
    # where 1/2 d_k g(y, y) = (g y)_l Gamma^l_kj y^j by metric compatibility
    dt = np.concatenate([bg._vg(P.gu, P.gamma_u), P.gu], -1)
    N = np.linalg.solve(G, dt[..., None])[..., 0]
    return amb - N * bg._per_row(np.vecdot(dt, amb), 1) / bg._per_row(np.vecdot(dt, N), 1)


def deta_numeric(P, w, vectors, h=1e-4, rescaled=True):
    """Numeric d(eta) on tangent vectors (1/2-convention), by pullback: eta is
    extended off the bundle as the eta of the radius-|y| bundle through each point.
    ``vectors`` is a list of pairs (U, V), one list per row of a stacked P; eta is
    evaluated at every pair's stencil points (of every row) as one stack."""
    vectors = np.asarray(vectors, dtype=float)
    # the pairs on axis 0, each U and V one vector per row of P
    U, V = (np.moveaxis(vectors[..., k, :], -2, 0) for k in (0, 1))
    base = P.base

    def extended_eta(qs):
        # eta of contact_structure(tangent_point(base, x, y), w, rescaled) at each row
        # (x, y) of an (n, 2m) stack, each row checked as tangent_point checks it, on the
        # radius-|y| bundle at the chart's t = g(y, y)/2
        C = orc._chart_point(base, qs)
        base._checked(C.gx, C.x)
        return _structure(C, w, rescaled).eta

    return np.moveaxis(orc.fd_exterior_derivative(extended_eta, P.q, [U, V], h)[1], 0, -1)


def _residual_vectors(P, w):
    """Analytic residual vectors at P of the K-contact condition, (2m, 2m) per row: for
    each i, those of delta_i and Y_i; and of the Sasakian condition (nabla_U phi)V =
    G(U,V) xi - eta(V) U, (4m^2, 2m) per row: for each (i, j), those of (delta_i, delta_j),
    (delta_i, Y_j), (Y_i, delta_j) and (Y_i, Y_j)."""
    m, y, gu, g = P.base.dim, P.u, P.gu, P.gx
    # the coefficient arrays below are indexed [i, j, k], k the generator's index
    a = bg._per_row(P.values(w).a, 3)
    sa = np.sqrt(a)
    deltas, Ys = generators(P)
    xi0 = bg._vg(y, deltas)[..., None, None, :]  # y^k delta_k
    dd, YY, Yi = deltas[..., None, None, :, :], Ys[..., None, None, :, :], Ys[..., :, None, :]
    R0i0 = np.swapaxes(bg._gv(P.Ru[0], y[..., None, :]), -1, -2)[..., None, :]  # R^k_{0i0}
    R_0ij, R_i0j = np.moveaxis(P.Ru[0], -3, -1), np.swapaxes(P.Ru[1], -3, -1)  # [i, j, k]
    R_j0i = np.swapaxes(R_i0j, -3, -2)  # R^k_{j0i}
    gu_i, gu_j, y_k = gu[..., :, None, None], gu[..., None, :, None], y[..., None, None, :]
    e_ik = np.eye(m)[:, None, :]  # d^k_i
    kc = [  # nabla_{delta_i} xi + phi delta_i = sqrt(a) [(1/a) d^k_i - R^k_{0i0}] Y_k
        bg._vg((e_ik / a - R0i0) * sa, YY),
        # nabla_{Y_i} xi + phi Y_i = sqrt(a) [(d^k_i - g_{i0} y^k) - a R^k_{0i0}] delta_k
        bg._vg(sa * ((e_ik - gu_i * y_k) - a * R0i0), dd)]
    sas = [  # (nabla_{delta_i} phi) delta_j - [G(d_i,d_j) xi - eta(d_j) d_i]
        bg._vg((sa / 2) * (R_i0j - R_0ij), dd)
        - bg._vg((1 / (2 * sa)) * (g[..., None] * y_k - gu_j * e_ik), dd),
        # (nabla_{delta_i} phi) Y_j residual
        bg._vg((sa / 2) * (R_0ij - R_i0j - gu_j * R0i0), YY),
        # (nabla_{Y_i} phi) delta_j residual
        -(gu_j / (2 * sa)) * Yi - bg._vg((sa / 2) * R_j0i, YY),
        # (nabla_{Y_i} phi) Y_j residual
        bg._vg(-(a * sa / 2) * (R_j0i + gu_j * R0i0), dd)
        + (sa / 2) * (g[..., None] - gu_i * gu_j) * xi0]
    return (np.concatenate(kc, axis=-2).reshape(y.shape[:-1] + (2 * m, 2 * m)),
            np.stack(sas, axis=-2).reshape(y.shape[:-1] + (4 * m * m, 2 * m)))


def k_contact_verdict(w, P):
    """K-contact and Sasakian residuals of the rescaled unit-bundle structure at the
    unit-bundle point P, or at every row of a stacked one (their largest).

    The verdict is positive exactly when both residual families vanish;
    for a constant-curvature base this happens iff the curvature is 1/a.
    """
    G = contact_structure(P, w, rescaled=True).G[..., None, :, :]

    def worst(vectors):  # the largest G-norm of the vectors
        return float(np.max(np.sqrt(np.maximum(np.vecdot(bg._vg(vectors, G), vectors), 0.0))))

    kc, sas = map(worst, _residual_vectors(P, w))
    a = float(np.ravel(P.values(w).a)[0])  # every row's t is 1/2
    predicted = isinstance(P.base, bg.SpaceForm) and abs(P.base.curvature - 1.0 / a) < 1e-12
    return {
        "k_contact_residual": kc,
        "sasakian_residual": sas,
        "is_k_contact": kc <= _KCONTACT_TOL,
        "is_sasakian": kc <= _KCONTACT_TOL and sas <= _KCONTACT_TOL,
        "predicted_k_contact": predicted,
    }

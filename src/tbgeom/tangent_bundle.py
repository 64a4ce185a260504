"""Adapted-frame geometry of the weighted metric on the tangent bundle.

Points of T(M) are pairs (x, u); tangent vectors of T(M) are split into
horizontal and vertical m-vectors relative to the frame delta_i, d/dy^i.
All operations are pointwise closed forms, row by row on stacked points;
the independent coordinate oracle (module ``oracle``) validates every one
of them, and reads its chart points as TangentPoints too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import base_geometry as bg
from .weights import WeightPair, _coeffs_from, _hh_coef, derived_coeffs

__all__ = [
    "BasePointMismatch",
    "TangentPoint",
    "check_base",
    "SplitVector",
    "tangent_point",
    "bundle_metric",
    "almost_complex",
    "kahler_form",
    "lee_form",
    "nijenhuis",
    "bundle_connection",
    "bundle_curvature",
    "bundle_curvature_general",
    "area_squared",
    "bundle_sectional",
    "adapted_basis",
    "scalar_curvature",
    "scalar_curvature_space_form",
]


class BasePointMismatch(ValueError):
    pass


@dataclass(frozen=True)
class TangentPoint:
    """Point (x, u) of T(M) and what the closed forms and the oracle's coordinate
    maps read there, or a stack of them; ``tangent_point`` makes one.

    g_x and the energy density t are fixed at construction: t = g(u, u)/2, or r^2/2
    on the radius-r sphere bundle.  g u, q = (x, u), Gamma, R and nabla R are
    computed on first use and then kept (read-only); R and nabla R come from one
    evaluation of the third-order base metric jets, and Gamma is theirs if R was
    read first, else it comes from one first-order evaluation (the two are
    bit-identical), so a point whose R is never read never evaluates the third-order
    jets.  So are the connection map ``gamma_u``, Gamma(., u), and ``Ru``, R and
    nabla R with u in one slot: every term that has u as an argument of Gamma or R,
    and every horizontal lift at the point (``oracle._lift``), reads them.  So are
    the weights: ``values(w)`` is w.eval(t), evaluated once per pair of weight
    functions and domain, and ``coeffs(w)`` the derived coefficients of those same
    values at w's sign.  ``at_radius(r)`` is the paper's rescaling map (x, u) ->
    (x, r u) onto the radius-r sphere bundle, which keeps what depends on x alone.
    The oracle's chart point (``oracle._chart_point``) is a TangentPoint at (x, y)
    whose Gamma was set from the first-order jet evaluation that also gives g.
    """

    base: bg.ChartMetric
    x: np.ndarray
    u: np.ndarray
    gx: np.ndarray = field(repr=False)
    t: float

    @cached_property
    def gu(self):
        return bg._readonly((self.gx @ self.u[..., None])[..., 0])

    @cached_property
    def q(self):
        return bg._readonly(np.concatenate([self.x, self.u], axis=-1))

    @property
    def r(self):
        return _scalar(np.sqrt(2.0 * self.t))

    @cached_property
    def _jets(self):
        return bg._readonly(bg.base_jets(self.base, self.x))

    @cached_property
    def gamma(self):
        if "_jets" in self.__dict__:
            return self._jets[0]
        return bg._readonly(bg.christoffel(self.base, self.x))

    R = property(lambda self: self._jets[1])
    NR = property(lambda self: self._jets[2])

    @cached_property
    def gamma_u(self):
        """The connection map Gamma^k_ij u^j [k, i], the chart's Gamma y at y = u."""
        return bg._readonly(np.einsum("...kij,...j->...ki", self.gamma, self.u))

    @cached_property
    def Ru(self):
        """R(., .)u [h, i, j], R(u, .). [h, j, k], (nabla_. R)(., .)u [h, l, i, j] and
        (nabla_. R)(u, .). [h, l, j, k]: u summed into one slot of R or nabla R, h first and
        the other slots in the order of the arguments of R(X, Y)Z and (nabla_W R)(X, Y)Z."""
        lead, m, u = self.R.shape[:-4], self.base.dim, self.u[..., None, None, :]

        def on_u(T, k):  # u, a row vector, on core axis k of T
            return (u @ T.reshape(lead + (m ** k, m, -1))).reshape(T.shape[:-1])

        return bg._readonly(tuple(
            np.ascontiguousarray(np.moveaxis(on_u(T, k), src, dst)) for T, k, src, dst in (
                (self.R, 1, (), ()), (self.R, 2, -1, -2),
                (self.NR, 2, -4, -3), (self.NR, 3, (-4, -2), (-3, -1)))))

    @cached_property
    def _weights(self):
        # (a, b, t domain) -> w.eval(t) and (a, b, t domain, eps) -> coefficients; a key
        # holds the weight functions, so their ids stay unique
        return {}

    def values(self, w: WeightPair):
        """Weight values of ``w`` at t, evaluated on first use and kept for every pair
        of the same weight functions and domain, whatever its sign."""
        key = (w.a, w.b, w.t_domain)
        if key not in self._weights:
            self._weights[key] = w.eval(self.t)
        return self._weights[key]

    def coeffs(self, w: WeightPair):
        """Derived coefficients of ``w`` built from ``values(w)`` on first use and
        kept; on the zero section at eps = +1 they raise WeightDomainError."""
        key = (w.a, w.b, w.t_domain, w.epsilon)
        if key not in self._weights:
            self._weights[key] = _coeffs_from(self.values(w), w.epsilon)
        return self._weights[key]

    def at_radius(self, r):
        """The paper's rescaling map F_r(x, u) = (x, r u), at every row of a stack: the
        point of the radius-r sphere bundle, which holds the g and Gamma of this point,
        and its R and nabla R where this point holds them; it evaluates no jets beyond
        this point's Gamma."""
        P = _point(self.base, self.x, r * self.u, self.gx, r)
        P.__dict__["gamma"] = self.gamma
        if "_jets" in self.__dict__:
            P.__dict__["_jets"] = self._jets
        return P

    def same_place(self, other):
        return self.base is other.base and all(
            np.max(np.abs(a - b)) <= 1e-14 for a, b in ((self.x, other.x), (self.u, other.u)))


def tangent_point(base, x, u, r=None):
    """The point (x, u) of T(M), or the stacked point of (n, m) stacks of x and u, with
    g validated once at the distinct x and t = g(u, u)/2.  Given one radius ``r``, the
    point of the radius-r sphere bundle: g(u, u) must be r^2 to 1e-12 at every row,
    and t = r^2/2."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    xs, index = bg._distinct(x) if x.ndim == 2 else (x, ...)
    return _point(base, x, u, base.validate_at(xs)[index], r)


def _point(base, x, u, gx, r=None):
    # tangent_point at x and u where the validated g_x is known
    norm2 = np.vecdot(bg._vg(u, gx), u)
    if r is None:
        return TangentPoint(base, x, u, gx, _scalar(0.5 * norm2))
    off = np.abs(norm2 - r * r)
    if (off > 1e-12).any():
        raise bg.GeometryError(f"|g(u,u) - r^2| = {off.max()} > 1e-12")
    return TangentPoint(base, x, u, gx, _scalar(np.full(norm2.shape, 0.5 * float(r) ** 2)))


@dataclass(frozen=True)
class SplitVector:
    """Tangent vector of T(M), or an (n, m) stack: h horizontal, v vertical parts.

    k vectors at each point are a leading axis, (k, m) or (k, n, m), that broadcasts
    against the arrays of the point.
    """

    h: np.ndarray
    v: np.ndarray
    at: TangentPoint

    @classmethod
    def horizontal(cls, X, P):
        return cls(np.asarray(X, dtype=float), np.zeros(np.shape(X)), P)

    @classmethod
    def vertical(cls, X, P):
        return cls(np.zeros(np.shape(X)), np.asarray(X, dtype=float), P)

    def __add__(self, other):
        _check_same(self, other)
        return SplitVector(self.h + other.h, self.v + other.v, self.at)

    def __sub__(self, other):
        _check_same(self, other)
        return SplitVector(self.h - other.h, self.v - other.v, self.at)

    def __mul__(self, c):
        return SplitVector(self.h * float(c), self.v * float(c), self.at)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


def _check_same(U, V):
    if U.at is not V.at and not U.at.same_place(V.at):
        raise BasePointMismatch("split vectors live at different tangent-bundle points")


def check_base(base, P):
    """Raise BasePointMismatch unless ``base`` is the metric P lives on."""
    if base is not P.base:
        raise BasePointMismatch(f"{base.name} is not the base metric of the point")


def _dot(A, B):
    # A . B row by row on a trailing axis of 1; each row rounds as the 1-D A @ B
    return np.vecdot(A, B)[..., None]


def _scalar(out):
    return float(out) if np.ndim(out) == 0 else out


def bundle_metric(w: WeightPair, P: TangentPoint, U: SplitVector, V: SplitVector):
    """g(U_h, V_h) + a g(U_v, V_v) + b g(U_v, u) g(V_v, u), row by row on stacks."""
    vals = P.values(w)
    _check_same(U, V)
    gx, gu, a, b, dot = P.gx, P.gu, vals.a, vals.b, np.vecdot
    return _scalar(dot(bg._vg(U.h, gx), V.h) + a * dot(bg._vg(U.v, gx), V.v)
                   + b * dot(U.v, gu) * dot(V.v, gu))


def _j_blocks(P, w):
    """The adapted-frame blocks of J at P, row by row on stacks, as the matrices that
    take X to the horizontal part of J X^V and to the vertical part of J X^H:
    J X^V = -sqrt(a) X^H + B g(X,u) u^H and J X^H = (1/sqrt a) X^V - A g(X,u) u^V."""
    d, m = P.coeffs(w), P.base.dim
    sa = np.sqrt(bg._per_row(d.values.a))
    ugu = P.u[..., :, None] * P.gu[..., None, :]  # the outer product u (g u)^T
    return (-sa * np.eye(m) + bg._per_row(d.B_coef) * ugu,
            np.eye(m) / sa - bg._per_row(d.A_coef) * ugu)


def almost_complex(w: WeightPair, P: TangentPoint, U: SplitVector) -> SplitVector:
    """Compatible almost complex structure applied to U, row by row on stacks."""
    JVH, JHV = _j_blocks(P, w)
    return SplitVector(bg._gv(JVH, U.v), bg._gv(JHV, U.h), P)


def kahler_form(w, P, U, V):
    """Fundamental 2-form Omega(U, V) = g_A(U, J V), row by row on stacks."""
    return bundle_metric(w, P, U, almost_complex(w, P, V))


def lee_form(w, P, U):
    """Lee form: zero on horizontal vectors, lee_coef * g(X, u) on verticals, row by
    row on stacks."""
    return _scalar(P.coeffs(w).lee_coef * np.vecdot(U.v, P.gu))


def nijenhuis(w, base, P, X, Y, slots):
    """Closed-form integrability tensor on pure horizontal or vertical slots, row by
    row on stacks (X and Y one vector per row of a stacked P)."""
    check_base(base, P)
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    d = P.coeffs(w)
    a, ap, B = (bg._per_row(c, 1) for c in (d.values.a, d.values.ap, d.B_coef))
    sa = np.sqrt(a)
    ru = partial(bg._on, P.Ru[0])  # R(X, Y)u
    gxu, gyu = _dot(X, P.gu), _dot(Y, P.gu)
    if slots == "HH":
        hh = bg._per_row(_hh_coef(d), 1)
        return SplitVector.vertical(hh * (gxu * Y - gyu * X) + ru(X, Y), P)
    if slots == "VV":
        # g(X,u) restored on the R_{Yu}u term by antisymmetry of N
        vec = (
            -a * ru(X, Y)
            + sa * B * (gyu * ru(X, P.u) - gxu * ru(Y, P.u))
            - (1 / sa) * (ap / (2 * sa) + B) * (gyu * X - gxu * Y)
        )
        return SplitVector.vertical(vec, P)
    raise ValueError(f"slots must be 'HH' or 'VV', got {slots!r}")


def bundle_connection(w, base, P, case, X, Y):
    """Levi-Civita connection of the bundle metric on lifts of base vectors.

    ``case`` selects the slot pattern: "HH" is nabla_{X^H} Y^H, "HV" is
    nabla_{X^H} Y^V, "VH" nabla_{X^V} Y^H, "VV" nabla_{X^V} Y^V; X and Y are
    constant-coefficient base fields at the chart point, one per row of a stacked P.
    """
    check_base(base, P)
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    d = P.coeffs(w)
    a, L, M, N = (np.asarray(c)[..., None] for c in (d.values.a, d.L, d.M, d.N))
    gu, u = P.gu, P.u
    ru, ur = (partial(bg._on, T) for T in P.Ru[:2])  # R(X, Y)u and R(u, Y)Z
    if case in ("HH", "HV"):
        nab = bg._on(P.gamma, X, Y)
    if case == "HH":
        return SplitVector(nab, -0.5 * ru(X, Y), P)
    if case == "HV":
        return SplitVector(0.5 * a * ur(Y, X), nab, P)
    if case == "VH":
        return SplitVector.horizontal(0.5 * a * ur(X, Y), P)
    if case == "VV":
        gxu, gyu = _dot(X, gu), _dot(Y, gu)
        vec = L * (gxu * Y + gyu * X) + M * _dot(bg._vg(X, P.gx), Y) * u + N * gxu * gyu * u
        return SplitVector.vertical(vec, P)
    raise ValueError(f"unknown connection case {case!r}")


def bundle_curvature(w, base, P, case, X, Y, Z):
    """Curvature tensor of the bundle metric on lift slots.

    ``case`` is one of HHH, HHV, HVH, HVV, VVH, VVV naming the slots of
    R(X^., Y^.) Z^. in order, row by row when X, Y, Z are stacks (see ``SplitVector``).
    """
    check_base(base, P)
    X, Y, Z = (np.asarray(a, dtype=float) for a in (X, Y, Z))
    d = P.coeffs(w)
    # the coefficients of P against its vectors
    a, ap, L, M, F1, F2, F3 = (np.asarray(c)[..., None]
                               for c in (d.values.a, d.values.ap, d.L, d.M, d.F1, d.F2, d.F3))
    gu, u = P.gu, P.u
    R, on, vg = P.R, bg._on, partial(bg._vg, g=P.gx)  # R(X, Y)Z is on(R, Z, X, Y)
    # R(X, Y)u, R(u, Y)Z, (nabla_W R)(X, Y)u and (nabla_W R)(u, Y)Z, as functions of W, X, Y, Z
    ru, ur, nru, nur = (partial(on, T) for T in P.Ru)

    if case == "HHH":
        h = on(R, Z, X, Y) + (a / 4) * (
            ur(ru(X, Z), Y) - ur(ru(Y, Z), X) + 2 * ur(ru(X, Y), Z))
        v = 0.5 * nru(Z, X, Y)
        return SplitVector(h, v, P)
    if case == "HHV":
        rxy = ru(X, Y)
        v = (
            on(R, Z, X, Y)
            + (a / 4) * (ru(Y, ur(Z, X)) - ru(X, ur(Z, Y)))
            + L * _dot(Z, gu) * rxy
            + M * _dot(vg(rxy), Z) * u
        )
        h = (a / 2) * (nur(X, Z, Y) - nur(Y, Z, X))
        return SplitVector(h, v, P)
    if case == "HVH":
        h = (a / 2) * nur(X, Y, Z)
        rxz = ru(X, Z)
        v = 0.5 * (
            on(R, Y, X, Z)
            - (a / 2) * ru(X, ur(Y, Z))
            + L * _dot(Y, gu) * rxz
            + M * _dot(vg(rxz), Y) * u
        )
        return SplitVector(h, v, P)
    if case == "HVV":
        uzx = ur(Z, X)
        h = (
            -(a / 2) * on(R, X, Y, Z)
            - (a * a / 4) * ur(Y, uzx)
            + (ap / 4) * (_dot(Z, gu) * ur(Y, X) - _dot(Y, gu) * uzx)
        )
        return SplitVector.horizontal(h, P)
    if case == "VVH":
        uyz, uxz = ur(Y, Z), ur(X, Z)
        h = (
            a * on(R, Z, X, Y)
            + (ap / 2) * (_dot(X, gu) * uyz - _dot(Y, gu) * uxz)
            + (a * a / 4) * (ur(X, uyz) - ur(Y, uxz))
        )
        return SplitVector.horizontal(h, P)
    if case == "VVV":
        gxu, gyu, gzu = _dot(X, gu), _dot(Y, gu), _dot(Z, gu)
        gxz, gyz = _dot(vg(X), Z), _dot(vg(Y), Z)
        v = (
            F1 * gzu * (gxu * Y - gyu * X)
            + F2 * (gxz * Y - gyz * X)
            + F3 * (gxz * gyu - gyz * gxu) * u
        )
        return SplitVector.vertical(v, P)
    raise ValueError(f"unknown curvature case {case!r}")


def bundle_curvature_general(w, base, P, U, V, W):
    """R(U, V) W for arbitrary split vectors, by multilinear expansion.

    The vectors broadcast against each other and the point, and may carry a leading
    axis k beyond the axes of the point; without one, the whole stack is one k.  Each slot term is evaluated only at the k where its three
    slot vectors are nonzero, from one ``bundle_curvature`` call per slot case (the two
    HVH terms share one, and so do the two HVV terms); a term live at every k is
    evaluated on the vectors as they are.  The terms are added to the h and v sums in
    order, each at the k where it is evaluated.
    """
    check_base(base, P)
    *slots, _ = np.broadcast_arrays(U.h, U.v, V.h, V.v, W.h, W.v, P.u)
    one_k = slots[0].ndim == P.u.ndim
    if one_k:
        slots = [a[None] for a in slots]
    nonzero = [np.any(a, axis=tuple(range(1, a.ndim))) for a in slots]  # per k
    terms = []  # (case, its slots' positions in ``slots``, sign, the k it is live at)
    for case, ijk, sign in (
        ("HHH", (0, 2, 4), 1.0), ("HHV", (0, 2, 5), 1.0), ("HVH", (0, 3, 4), 1.0),
        ("HVV", (0, 3, 5), 1.0), ("HVH", (2, 1, 4), -1.0), ("HVV", (2, 1, 5), -1.0),
        ("VVH", (1, 3, 4), 1.0), ("VVV", (1, 3, 5), 1.0),
    ):
        live = nonzero[ijk[0]] & nonzero[ijk[1]] & nonzero[ijk[2]]
        if live.any():
            terms.append((case, ijk, sign, slice(None) if live.all() else live))
    parts = [None] * len(terms)  # R(X, Y)Z of each term, at the k it is live at
    for case in dict.fromkeys(t[0] for t in terms):
        at = [n for n, t in enumerate(terms) if t[0] == case]
        pieces = [[slots[i][terms[n][3]] for i in terms[n][1]] for n in at]
        r = bundle_curvature(w, base, P, case, *map(np.concatenate, zip(*pieces)))
        ends = np.cumsum([0] + [len(p[0]) for p in pieces])
        for n, lo, hi in zip(at, ends, ends[1:]):
            parts[n] = r.h[lo:hi], r.v[lo:hi]
    h, v = np.zeros(slots[0].shape), np.zeros(slots[0].shape)
    for (_, _, sign, k), (th, tv) in zip(terms, parts):
        h[k] += sign * th
        v[k] += sign * tv
    return SplitVector(h[0], v[0], P) if one_k else SplitVector(h, v, P)


def area_squared(w, P, U, V):
    """Gram determinant g_A(U,U) g_A(V,V) - g_A(U,V)^2."""
    return _gram(w, P, U, V)[2]


def _gram(w, P, U, V):
    # g_A(U,U), g_A(V,V) and the Gram determinant of U and V
    uu, vv, uv = (bundle_metric(w, P, A, B) for A, B in ((U, U), (V, V), (U, V)))
    return uu, vv, uu * vv - uv * uv


def bundle_sectional(w, base, P, U, V):
    """Sectional curvature of span(U, V) on the bundle."""
    uu, vv, q = _gram(w, P, U, V)
    if np.any(q <= 1e-14 * uu * vv):
        raise bg.DegeneratePlaneError(f"degenerate bundle plane (Gram {q})")
    ruvv = bundle_curvature_general(w, base, P, U, V, V)
    return _scalar(bundle_metric(w, P, ruvv, U) / q)


def adapted_basis(w, P):
    """g_A-orthonormal basis: horizontal frame plus scaled vertical frame.

    Built from a g_x-orthonormal base frame with e_1 = u/|u|; the e_1
    vertical leg is scaled by 1/sqrt(a+2tb), the others by 1/sqrt(a).
    At a stacked point each vector holds one row per point.
    """
    vals = P.values(w)
    if np.any(P.t <= 0):
        raise bg.GeometryError("adapted basis needs a nonzero fiber vector")
    frame = np.moveaxis(bg.orthonormal_frame(P.gx, first=P.u), -2, 0)
    scales = np.sqrt([vals.vertical_norm_weight] + [vals.a] * (len(frame) - 1))
    return [SplitVector.horizontal(e, P) for e in frame] + [
        SplitVector.vertical(e / s[..., None], P) for e, s in zip(frame, scales)]


def scalar_curvature(w, base, P, mode="closed"):
    """Scalar curvature of the bundle metric at P, or at each row of a stacked P.

    ``closed`` evaluates scal - (a/2) sum_{i<j} |R(e_i,e_j)u|^2
    + ((1-m)/a)(m F2 + 4t F3); the -a/2 coefficient is the
    oracle-verified one (the horizontal-vertical sectional block carries a
    weight a).  ``basis`` sums g_A(R(E_a, E_b) E_b, E_a) in (a, b) order over
    the ordered pairs a != b of the adapted orthonormal basis, from one
    ``bundle_curvature_general`` call with the pairs on its k axis (each pair
    has one live slot term: HHH, HVV, -HVH or VVV); both modes agree with the
    coordinate oracle.  Both sums add their terms in order.
    """
    check_base(base, P)
    m = base.dim
    d = P.coeffs(w)
    if mode == "basis":
        E = adapted_basis(w, P)
        Eh, Ev = (np.stack([getattr(e, part) for e in E]) for part in "hv")
        al, be = np.nonzero(~np.eye(2 * m, dtype=bool))
        A, B = SplitVector(Eh[al], Ev[al], P), SplitVector(Eh[be], Ev[be], P)
        num = bundle_metric(w, P, bundle_curvature_general(w, base, P, A, B, B), A)
        return _scalar(np.cumsum(num, axis=0)[-1])  # one pair at a time, in (a, b) order
    R = P.R
    scal = np.einsum("...kj,...kj->...", np.linalg.inv(P.gx), np.einsum("...ikij->...kj", R))
    frame = np.moveaxis(bg.orthonormal_frame(P.gx), -2, 0)
    i, j = np.triu_indices(m, 1)  # the pairs i < j, in order
    vec = bg._on(P.Ru[0], frame[i], frame[j])
    acc = np.cumsum(np.vecdot(bg._vg(vec, P.gx), vec), axis=0)[-1]
    a = d.values.a
    return _scalar(scal - 0.5 * a * acc + ((1 - m) / a) * (m * d.F2 + 4 * P.t * d.F3))


def scalar_curvature_space_form(w, c, m, t):
    """Space-form reduction of the scalar curvature closed form.

    Evaluates (m-1)[m c - a t c^2 - (m F2 + 4 t F3)/a], the
    oracle-corrected form of the constant-base-curvature display, at the
    energy density t, or at a TangentPoint t, whose ``coeffs(w)`` it reads.
    """
    d = t.coeffs(w) if isinstance(t, TangentPoint) else derived_coeffs(w, t)
    a, t = d.values.a, d.values.t
    return (m - 1) * (m * c - a * t * c * c - (m * d.F2 + 4 * t * d.F3) / a)

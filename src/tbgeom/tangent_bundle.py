"""Adapted-frame geometry of the weighted metric on the tangent bundle.

Points of T(M) are pairs (x, u); tangent vectors of T(M) are split into
horizontal and vertical m-vectors relative to the frame delta_i, d/dy^i.
All operations are pointwise closed forms; the independent coordinate
oracle (module ``oracle``) validates every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
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
    """Point (x, u) of T(M) and what the closed forms read there, or a stack of them.

    g_x and the energy density t = g(u, u)/2 are fixed at construction.
    g u, q = (x, u), Gamma, R and nabla R are computed on first use and
    then kept (read-only); the last three come from one evaluation of the
    base metric jets.  So are the connection map ``gamma_u``, Gamma(., u), and
    ``Ru``, R and nabla R with u in one slot: every term that has u as an
    argument of Gamma or R reads them.  So
    are the weights: ``values(w)`` is w.eval(t),
    evaluated once per weight pair (matched by identity), and ``coeffs(w)``
    the derived coefficients built from those same values.  A sphere-bundle
    point is a TangentPoint whose radius r = sqrt(2t) was given, not
    measured.
    """

    base: bg.ChartMetric
    x: np.ndarray
    u: np.ndarray
    gx: np.ndarray = field(repr=False)
    t: float

    @classmethod
    def stack(cls, points):
        """One point of n rows from n single points on one base: x, u and g_x gain a
        leading axis and t is an array; the jets come from one evaluation at the distinct x."""
        base = points[0].base
        if any(p.base is not base for p in points):
            raise BasePointMismatch("a stacked point lives on one base metric")
        x, u, gx, t = (np.array([getattr(p, f) for p in points]) for f in ("x", "u", "gx", "t"))
        return cls(base, x, u, gx, t)

    def __getitem__(self, i):
        """Row i of a stacked point, or the stacked point of the rows ``i`` (an index
        array), reading the stack's jets and the weight values it holds."""
        x, u, gx, t = self.x[i], self.u[i], self.gx[i], self.t[i]
        row = TangentPoint(self.base, x, u, gx, t if np.ndim(t) else float(t))
        row.__dict__["_jets"] = bg._readonly(tuple(a[i] for a in self._jets))
        for key, (w, vals, d) in self._weights.items():
            row._weights[key] = [w, _rows(vals, i), d and _rows(d, i)]
        return row

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

    gamma = property(lambda self: self._jets[0])
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
        # id(w) -> [w, w.eval(t), coefficients or None]; holding w keeps its id unique
        return {}

    def values(self, w: WeightPair):
        """Weight values of ``w`` at t, evaluated on first use and kept."""
        if id(w) not in self._weights:
            self._weights[id(w)] = [w, w.eval(self.t), None]
        return self._weights[id(w)][1]

    def coeffs(self, w: WeightPair):
        """Derived coefficients of ``w`` built from ``values(w)`` on first use and
        kept; on the zero section at eps = +1 they raise WeightDomainError."""
        vals = self.values(w)
        entry = self._weights[id(w)]
        if entry[2] is None:
            entry[2] = _coeffs_from(vals, w.epsilon)
        return entry[2]

    def same_place(self, other):
        return self.base is other.base and all(
            np.max(np.abs(a - b)) <= 1e-14 for a, b in ((self.x, other.x), (self.u, other.u)))


def _rows(values, i):
    # WeightValues or DerivedCoefficients of a stacked point at its rows i
    return type(values)(*(_rows(f, i) if is_dataclass(f) else f[i]
                          for f in (getattr(values, k.name) for k in fields(values))))


def tangent_point(base, x, u):
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    gx = base.validate_at(x)
    t = 0.5 * float(u @ gx @ u)
    return TangentPoint(base, x, u, gx, t)


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


def almost_complex(w: WeightPair, P: TangentPoint, U: SplitVector) -> SplitVector:
    """Compatible almost complex structure applied to U."""
    d = P.coeffs(w)
    sa = np.sqrt(d.values.a)
    gu = P.gu
    # J X^H = (1/sqrt a) X^V - A g(X,u) u^V ; J X^V = -sqrt(a) X^H + B g(X,u) u^H
    new_v = U.h / sa - d.A_coef * float(U.h @ gu) * P.u
    new_h = -sa * U.v + d.B_coef * float(U.v @ gu) * P.u
    return SplitVector(new_h, new_v, P)


def kahler_form(w, P, U, V):
    """Fundamental 2-form Omega(U, V) = g_A(U, J V)."""
    return bundle_metric(w, P, U, almost_complex(w, P, V))


def lee_form(w, P, U):
    """Lee form: zero on horizontal vectors, lee_coef * g(X, u) on verticals."""
    d = P.coeffs(w)
    return d.lee_coef * float(U.v @ P.gu)


def nijenhuis(w, base, P, X, Y, slots):
    """Closed-form integrability tensor on pure horizontal or vertical slots."""
    check_base(base, P)
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    d = P.coeffs(w)
    vals = d.values
    a, ap = vals.a, vals.ap
    sa = np.sqrt(a)
    gu = P.gu
    ru = partial(bg._on, P.Ru[0])  # R(X, Y)u
    gxu = float(X @ gu)
    gyu = float(Y @ gu)
    if slots == "HH":
        vec = _hh_coef(vals, w.epsilon) * (gxu * Y - gyu * X) + ru(X, Y)
        return SplitVector.vertical(vec, P)
    if slots == "VV":
        # g(X,u) restored on the R_{Yu}u term by antisymmetry of N
        vec = (
            -a * ru(X, Y)
            + sa * d.B_coef * (gyu * ru(X, P.u) - gxu * ru(Y, P.u))
            - (1 / sa) * (ap / (2 * sa) + d.B_coef) * (gyu * X - gxu * Y)
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

    The nonzero slot terms, all at P, are summed on their h and v arrays.  On
    stacks a term nonzero in some row is evaluated for every row; where its
    slot vector is zero it adds exactly 0.0, which leaves each sum unchanged.
    """
    check_base(base, P)
    uh, uv, vh, vv, wh, wv = (np.any(a) for a in (U.h, U.v, V.h, V.v, W.h, W.v))
    terms = [
        ("HHH", U.h, V.h, W.h, 1.0, uh and vh and wh),
        ("HHV", U.h, V.h, W.v, 1.0, uh and vh and wv),
        ("HVH", U.h, V.v, W.h, 1.0, uh and vv and wh),
        ("HVV", U.h, V.v, W.v, 1.0, uh and vv and wv),
        ("HVH", V.h, U.v, W.h, -1.0, vh and uv and wh),
        ("HVV", V.h, U.v, W.v, -1.0, vh and uv and wv),
        ("VVH", U.v, V.v, W.h, 1.0, uv and vv and wh),
        ("VVV", U.v, V.v, W.v, 1.0, uv and vv and wv),
    ]
    h = np.zeros(P.base.dim)
    v = np.zeros(P.base.dim)
    for case, X, Y, Z, sign, live in terms:
        if live:
            r = bundle_curvature(w, base, P, case, X, Y, Z)
            h = h + sign * r.h
            v = v + sign * r.v
    return SplitVector(h, v, P)


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
    the ordered pairs a != b of the adapted orthonormal basis, from four
    batched ``bundle_curvature`` calls (HHH, HVV, -HVH, VVV); both modes
    agree with the coordinate oracle.  Both sums add their terms in order.
    """
    check_base(base, P)
    m = base.dim
    d = P.coeffs(w)
    if mode == "basis":
        E = adapted_basis(w, P)
        Eh, Ev = (np.stack([getattr(e, part) for e in E]) for part in "hv")
        al, be = np.nonzero(~np.eye(2 * m, dtype=bool))
        Ah, Av, Bh, Bv = Eh[al], Ev[al], Eh[be], Ev[be]
        Rh, Rv = np.zeros(Ah.shape), np.zeros(Ah.shape)
        for case, rows, X, Y, Z, sign in (
            ("HHH", (al < m) & (be < m), Ah, Bh, Bh, 1.0),
            ("HVV", (al < m) & (be >= m), Ah, Bv, Bv, 1.0),
            ("HVH", (al >= m) & (be < m), Bh, Av, Bh, -1.0),
            ("VVV", (al >= m) & (be >= m), Av, Bv, Bv, 1.0),
        ):
            r = bundle_curvature(w, base, P, case, *(A[rows] for A in (X, Y, Z)))
            Rh[rows], Rv[rows] = sign * r.h, sign * r.v
        num = bundle_metric(w, P, SplitVector(Rh, Rv, P), SplitVector(Ah, Av, P))
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

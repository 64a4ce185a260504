"""Named verification suites executed by the batch runner.

Each suite draws its deterministic samples as stacks (``SuiteContext.draw``),
evaluates one family of closed forms on them against its independent check,
appends controls to the result that ``run_suite`` made from its ``SUITES``
entry and returns its residuals as named columns, which ``run_suite`` lays
out sample by sample.  Negative controls (configurations that must exhibit
a LARGE residual for the suite to pass) are first-class: a suite passes
only if its residuals stay below tolerance and every control stays above
its bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import base_geometry as bg
from . import oracle as orc
from . import sphere_bundle as sb
from . import tangent_bundle as tb
from .jets import _pow
from .weights import (
    WeightPair,
    almost_kahler_complete,
    kahler_family,
    kahler_system_residuals,
    named_family,
)

__all__ = ["SuiteResult", "SuiteContext", "SUITES", "SUITE_ORDER", "run_suite"]


@dataclass
class Control:
    name: str
    value: float
    bound: float
    require: str  # "min": value must exceed bound; "max": stay below

    @property
    def ok(self):
        if not math.isfinite(self.value):
            return False
        return self.value >= self.bound if self.require == "min" else self.value <= self.bound

    def as_dict(self):
        return dict(vars(self), ok=bool(self.ok))


@dataclass
class SuiteResult:
    name: str
    anchor: str
    tolerance: float
    residuals: list = field(default_factory=list)
    controls: list = field(default_factory=list)
    error: str | None = None
    seed: list = field(default_factory=list)
    sample_indices: list = field(default_factory=list)  # each residual's sample, or None

    @property
    def max_residual(self):
        """Largest residual, or the first non-finite one (NaN loses every comparison)."""
        bad = [r for r in self.residuals if not math.isfinite(r)]
        return bad[0] if bad else max(self.residuals, default=0.0)

    @property
    def passed(self):
        if self.error is not None:
            return False
        r = self.max_residual
        return math.isfinite(r) and r <= self.tolerance and all(c.ok for c in self.controls)

    def as_dict(self):
        hist_counts, hist_edges = _log_histogram(self.residuals)
        return {
            "name": self.name,
            "anchor": self.anchor,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "max_residual": self.max_residual,
            "n_samples": len(self.residuals),
            "residuals": list(map(float, self.residuals)),
            "histogram": {"log10_edges": hist_edges, "counts": hist_counts},
            "controls": [c.as_dict() for c in self.controls],
            "seed": list(self.seed),
            "sample_indices": list(self.sample_indices),
            "error": self.error,
        }


def _log_histogram(residuals):
    # counts of log10 |r| over [-16, 0] in decades, the ends clipped into the outer
    # bins; a non-finite residual counts in the top bin, so the counts sum to n_samples
    edges = list(range(-16, 1))
    if not residuals:
        return [0] * (len(edges) - 1), edges
    logs = [math.log10(max(abs(r), 1e-300)) if math.isfinite(r) else 0.0 for r in residuals]
    counts, _ = np.histogram(np.clip(logs, -16, 0), bins=edges)
    return counts.tolist(), edges


@dataclass
class SuiteContext:
    base: bg.ChartMetric
    weights: WeightPair
    samples: int
    seed: int
    h: float
    chart_box: np.ndarray
    fiber_range: tuple

    def rng(self, suite_index):
        return np.random.default_rng([self.seed, suite_index])

    def draw(self, rng, n, block, base=None):
        """n samples, each an x of the chart box and then the numbers of ``block()`` (a
        tuple): the (n, m) stack of x, the metric g of ``base`` (by default the context's)
        there, and the blocks' columns, each entry of the tuple stacked over the samples.

        Every x must be admissible for the context's base and ``base``.  One pass takes
        each x as admissible and validates them as one stack per base; only if a stack
        holds an inadmissible x are the samples drawn again from the same rng state,
        each x checked alone and an inadmissible one redrawn.
        """
        base = base or self.base
        lo, hi = self.chart_box[:, 0], self.chart_box[:, 1]

        def g_at(x):  # g of base at x (or a stack of x), admissible for both bases
            g = self.base.validate_at(x)
            return g if base is self.base else base.validate_at(x)

        def sample(check):  # an x that ``check`` takes, its g, then the sample's block
            for _ in range(1000):
                x = lo + (hi - lo) * rng.random(self.base.dim)
                try:
                    g = check(x)
                except bg.GeometryError:
                    continue
                return x, g, block()
            raise bg.ChartDomainError("chart box contains no admissible points")

        state = rng.bit_generator.state
        x, _, blocks = zip(*[sample(lambda x: None) for _ in range(n)])
        try:
            g = g_at(np.array(x))
        except bg.GeometryError:
            rng.bit_generator.state = state
            x, g, blocks = zip(*[sample(g_at) for _ in range(n)])
        return np.array(x), np.array(g), [np.array(c) for c in zip(*blocks)]


# ---------------------------------------------------------------- suites


def _suite_base_checks(ctx, rng, res):
    base, m = ctx.base, ctx.base.dim
    sf = isinstance(base, bg.SpaceForm)
    # per sample: x, then on a space form the plane X, Y of its sectional check
    x, g, XY = ctx.draw(rng, ctx.samples,
                        lambda: tuple(rng.standard_normal((2, m)) if sf else ()))
    gam, R, NR = bg.base_jets(base, x)
    low = bg.lower_curvature(g, R)
    fd = orc.fd_connection(base, x, h=1e-5)
    terms = [
        gam - np.swapaxes(gam, -1, -2),
        R + np.swapaxes(R, -1, -2),
        low + np.einsum("...hkij->...khij", low),
        low - np.einsum("...hkij->...ijhk", low),
        # first Bianchi: cyclic sum over (k, i, j); second: over (l, i, j)
        R + np.einsum("...hkij->...hjki", R) + np.einsum("...hkij->...hijk", R),
        NR + np.einsum("...ihkjl->...lhkij", NR) + np.einsum("...jhkli->...lhkij", NR),
        gam - fd,
    ]
    cols = {"identities": np.max([np.abs(a).reshape(len(x), -1).max(1) for a in terms], 0)}
    if sf:
        c, gd = base.curvature, np.einsum("...jl,hi->...hlij", g, np.eye(m))  # g_jl d^h_i
        ident = c * (gd - np.swapaxes(gd, -1, -2))
        cols["space_form"] = np.abs(R - ident).reshape(len(x), -1).max(axis=1)
        cols["sectional"] = np.abs(bg._sectional(g, R, *XY) - c)
    return cols


def _forms(base, w, q, vecs, h):
    # Omega and the Lee covector of w at q and on the exterior-derivative stencil along
    # vecs (of every row of a stack), from one chart evaluation of them all
    def forms(qs):
        chart = orc._chart_point(base, w, qs)
        return orc._omega_matrix(*chart), orc._lee_covector(*chart)

    return orc._stencil_values(forms, q, vecs, h)


def _domega(Om, vecs, h):
    """Numeric dOmega(v1, v2, v3) at q, or at each row of a stack, from the fundamental
    form on the stencil of ``_forms``."""

    def omega_form(Om, v1, v2):
        return np.vecdot(bg._vg(v1, Om), v2)

    return orc._exterior(Om, omega_form, vecs, h)


def _lck_terms(base, w, q, vecs, h):
    """dOmega(v1, v2, v3), (lee ^ Omega)(v1, v2, v3) and d(lee)(v1, v2) at q, or at each
    row of a stack, from one chart evaluation of q and the dOmega stencil (the d(lee)
    stencil is part of it)."""
    Om, lee = _forms(base, w, q, vecs, h)
    dlee = orc._exterior(lee, np.vecdot, vecs[:2], h)
    return _domega(Om, vecs, h), orc.wedge_1_2(lee[0], Om[0], *vecs), dlee


def _unit(v, g):  # each row of v scaled to g-unit length
    return v / np.sqrt(np.vecdot(bg._vg(v, g), v))[:, None]


def _units(ctx, rng, n, shape=(0,), base=None):
    """n samples, each a point (x, u) of the unit tangent bundle of ``base`` (by default
    the context's) and then a block of normals of ``shape`` (by default none): the x, the
    g-unit u and the blocks, each stacked over the samples."""
    base = base or ctx.base
    x, g, (direction, vecs) = ctx.draw(rng, n, lambda: (
        rng.standard_normal(base.dim), rng.standard_normal(shape)), base)
    return x, _unit(direction, g), vecs


def _draw(ctx, rng, n, shape=(0,), weights=None, base=None, t_range=None):
    """n samples, each a point of T(M) over ``base`` (by default the context's) and then
    a block of normals of ``shape`` (by default none): the stacked point, and the blocks'
    rows as one leading axis.  A point is an x of the chart box and a g-unit direction
    there, scaled to an energy t drawn uniformly from ``t_range`` (by default that of the
    fiber range) inside the domain of ``weights`` (by default the context's)."""
    w, base = weights or ctx.weights, base or ctx.base
    x, g, (direction, s, vecs) = ctx.draw(rng, n, lambda: (
        rng.standard_normal(base.dim), rng.random(), rng.standard_normal(shape)), base)
    lo, hi = t_range or (0.5 * ctx.fiber_range[0] ** 2, 0.5 * ctx.fiber_range[1] ** 2)
    dlo, dhi = w.t_domain
    lo = max(lo, dlo if dlo > 0 else (1e-6 if w.epsilon == +1 else lo))
    hi = min(hi, dhi * 0.98 if math.isfinite(dhi) else hi)
    u = np.sqrt(2.0 * (lo + (hi - lo) * s))[:, None] * _unit(direction, g)
    P = tb.TangentPoint(base, x, u, g, 0.5 * np.vecdot(bg._vg(u, g), u))
    return P, np.moveaxis(vecs, 1, 0)


def _suite_lck(ctx, rng, res):
    P, vecs = _draw(ctx, rng, ctx.samples, (3, 2 * ctx.base.dim))
    dom, wed, dlee = _lck_terms(ctx.base, ctx.weights, P.q, vecs, ctx.h)
    return {"domega_lee": abs(dom - wed), "dlee": abs(dlee)}


def _suite_almost_kahler(ctx, rng, res):
    base, m = ctx.base, ctx.base.dim
    pair = almost_kahler_complete(lambda t: 1.0 + t, epsilon=-1, name="ak(1+t)")
    cg = named_family("cheeger_gromoll")
    P, vecs = _draw(ctx, rng, ctx.samples, (3, 2 * m), weights=pair)
    dom = _domega(_forms(base, pair, P.q, vecs, ctx.h)[0], vecs, ctx.h)
    # negative control: non-closedness is an existence claim, so the
    # Cheeger-Gromoll form must be visibly non-closed somewhere on the sample
    vh, v1, v2 = np.eye(2 * m)[[0, m, 2 * m - 1]]
    cg_domega = _domega(_forms(base, cg, P.q, [vh, v1, v2], ctx.h)[0], [vh, v1, v2], ctx.h)
    res.controls.append(Control("cg_not_almost_kahler", float(np.max(abs(cg_domega))), 1e-2, "min"))
    return {"domega": abs(dom), "lee_coef": abs(P.coeffs(pair).lee_coef)}


def _suite_kahler(ctx, rng, res):
    # Eq. (13) is closure under the unverified Lee coefficient a'/sqrt(a), so
    # the case-2 pairs are integrable and lcK: the residuals are the
    # Nijenhuis tensor, dOmega - lee ^ Omega and d(lee), and the fundamental
    # form must stay visibly non-closed.
    if ctx.base.dim != 2:  # its x are drawn from the config's chart box
        res.error = f"kahler suite checks its own m = 2 base, not one of m = {ctx.base.dim}"
        return {}
    c, kappa = -1.0, 2.0
    base = bg.SpaceForm(c, 2)
    pair = kahler_family(2, c, kappa)
    # per sample: the point, U and V of the Nijenhuis tensor, then v1, v2, v3
    # at least 4 points, so that the not_closed control does not rest on one or two draws
    P, (U, V, *vecs) = _draw(ctx, rng, max(4, ctx.samples), (5, 4), weights=pair, base=base)
    nij = np.max(np.abs(orc.fd_nijenhuis(base, pair, P.q, U, V)), axis=-1)
    dom, wed, dlee = _lck_terms(base, pair, P.q, vecs, ctx.h)
    r13, r14 = np.max(np.abs(kahler_system_residuals(pair, P.t, c)), axis=-1)
    res.controls.append(Control("eq13_residual", float(r13), 1e-10, "max"))
    res.controls.append(Control("eq14_residual", float(r14), 1e-10, "max"))
    res.controls.append(Control("not_closed", float(np.max(abs(dom))), 1e-2, "min"))
    return {"nijenhuis": nij, "domega_lee": abs(dom - wed), "dlee": abs(dlee)}


def _rop(R, X, Y, Z):
    # R(X, Y)Z of the oracle's curvature R[h, k, i, j] = R^h_{kij}, row by row on stacks
    return np.einsum("...hkij,...k,...i,...j->...h", R, Z, X, Y)


def _lift_connections(w, P, X, Y, cases, h):
    """Per case, the largest |closed - FD| component of nabla on the lifts of X and Y at
    each row of P: the closed form against the lift fields differenced on the oracle
    connection, from one ``fd_connection`` call and one evaluation of X^H and X^V at P."""
    base = P.base
    gamma = orc.fd_connection(orc.InducedMetric(base, w), P.q, h=h)
    U = {k: orc.lift_field(base, X, k)(P.q) for k in dict.fromkeys(c[0] for c in cases)}
    out = []
    for case in cases:
        closed = orc.split_to_coord(tb.bundle_connection(w, base, P, case, X, Y))
        num = orc.fd_lift_connection(gamma, P.q, U[case[0]], orc.lift_field(base, Y, case[1]), h=h)
        out.append(np.max(np.abs(closed - num), axis=-1))
    return out


def _suite_connection(ctx, rng, res):
    P, (X, Y) = _draw(ctx, rng, ctx.samples, (2, ctx.base.dim))
    cases = ("HH", "HV", "VH", "VV")
    return dict(zip(cases, _lift_connections(ctx.weights, P, X, Y, cases, ctx.h)))


_SLOT_CASES = ("HHH", "HHV", "HVH", "HVV", "VVH", "VVV")


def _suite_curvature(ctx, rng, res):
    base, w, m = ctx.base, ctx.weights, ctx.base.dim
    im = orc.InducedMetric(base, w)
    # per sample: the point, X, Y, Z, then (h, v) of the random split vectors U, V, W, S
    P, (X, Y, Z, *hv) = _draw(ctx, rng, max(1, ctx.samples // 4), (11, m))
    closed = [orc.split_to_coord(tb.bundle_curvature(w, base, P, case, X, Y, Z))
              for case in _SLOT_CASES]
    lifts = {k: [orc.lift_field(base, v, k)(P.q) for v in (X, Y, Z)] for k in "HV"}
    Rhat = orc.fd_curvature(im, P.q, h=ctx.h)
    cols = {}
    for case, cl in zip(_SLOT_CASES, closed):
        Uc, Vc, Wc = (lifts[k][n] for n, k in enumerate(case))
        cols[case] = np.max(np.abs(cl - _rop(Rhat, Uc, Vc, Wc)), axis=-1)
    # closed-form curvature symmetries + first Bianchi on random splits
    U, V, W, S = (tb.SplitVector(h, v, P) for h, v in zip(hv[::2], hv[1::2]))

    def gen(A, B, C):
        return tb.bundle_curvature_general(w, base, P, A, B, C)

    def riem(A, B, C, D):
        return tb.bundle_metric(w, P, gen(A, B, C), D)

    r = riem(U, V, W, S)
    bsum = gen(U, V, W) + gen(V, W, U) + gen(W, U, V)
    sym = [abs(r + riem(V, U, W, S)), abs(r + riem(U, V, S, W)), abs(r - riem(W, S, U, V)),
           np.sqrt(abs(tb.bundle_metric(w, P, bsum, bsum)))]
    res.controls.append(Control("curvature_symmetries", float(np.max(sym)), 1e-8, "max"))
    return cols


def _suite_flat_g1(ctx, rng, res):
    base, w, m = ctx.base, ctx.weights, ctx.base.dim
    im = orc.InducedMetric(base, w)
    P, (X, Y, Z) = _draw(ctx, rng, ctx.samples, (3, m), t_range=(0.01, 3.0))
    closed = [tb.bundle_curvature(w, base, P, case, X, Y, Z) for case in _SLOT_CASES]
    worst = np.max([np.abs(np.hstack([r.h, r.v])).max(axis=-1) for r in closed], axis=0)
    k = min(ctx.samples, max(2, ctx.samples // 10))  # the samples the oracle checks too
    fd = np.abs(orc.fd_curvature(im, P.q[:k], h=ctx.h)).reshape(k, -1).max(axis=1)
    return {"closed": worst, "oracle": fd}


def _suite_sectional(ctx, rng, res):
    base, w = ctx.base, ctx.weights
    if not isinstance(base, bg.SpaceForm):
        res.error = "sectional display suite needs a space-form base"
        return {}
    c, m = base.curvature, base.dim
    P, _ = _draw(ctx, rng, ctx.samples)
    vals = P.values(w)
    frame = bg.orthonormal_frame(P.gx, first=P.u)
    X, Y = (frame[:, 1], frame[:, 2]) if m > 2 else (frame[:, 0], frame[:, -1])
    XH, YH, YV = (tb.SplitVector.horizontal(X, P), tb.SplitVector.horizontal(Y, P),
                  tb.SplitVector.vertical(Y, P))
    gxu2, gyu2 = (_pow(np.vecdot(v, P.gu), 2) for v in (X, Y))
    a, b = vals.a, vals.b
    E = tb.adapted_basis(w, P)
    # the planes XH^YH, XH^YV, E_i^E_m (i < m) on a leading axis that broadcasts against P
    planes = [(XH, YH), (XH, YV)] + [(E[i], E[m]) for i in range(m)]

    def stacked(side):  # each plane's vectors at the rows of P, one plane per position
        return tb.SplitVector(*(np.stack([getattr(s, f) for s in side]) for f in "hv"), P)

    K = tb.bundle_sectional(w, base, P, *map(stacked, zip(*planes)))
    disp = c - 0.75 * a * c * c * (gxu2 + gyu2)
    disp_hv = _pow(a, 2) * c * c * gxu2 / (4 * (a + b * gyu2))
    # parallelogram-area displays against the Gram determinant
    q_hh = tb.area_squared(w, P, XH, YH)
    q_hv = tb.area_squared(w, P, XH, YV)
    q_vv = tb.area_squared(w, P, tb.SplitVector.vertical(X, P), YV)
    res.controls.extend(Control("K(XH,YV) nonnegative", float(k), -1e-12, "min") for k in K[1])
    return {"K(XH,YH)": abs(K[0] - disp), "K(XH,YV)": abs(K[1] - disp_hv),
            "K(E_i,E_m)": abs(K[2:]).T, "area(XH,YH)": abs(q_hh - 1.0),
            "area(XH,YV)": abs(q_hv - (a + b * gyu2)),
            "area(XV,YV)": abs(q_vv - (_pow(a, 2) + a * b * (gxu2 + gyu2)))}


def _suite_scalar(ctx, rng, res):
    base, w = ctx.base, ctx.weights
    P, _ = _draw(ctx, rng, ctx.samples)
    closed = tb.scalar_curvature(w, base, P, mode="closed")
    basis = tb.scalar_curvature(w, base, P, mode="basis")
    denom = np.maximum(1.0, abs(closed))
    if isinstance(base, bg.SpaceForm):
        sf_form = tb.scalar_curvature_space_form(w, base.curvature, base.dim, P)
        res.controls.extend(Control("space_form_display", float(v), 1e-9, "max")
                            for v in abs(sf_form - closed) / denom)
    return {"closed_basis": abs(closed - basis) / denom}


_SPHERE_DRAWS = (3 * 3 + 2 * 2) * 2  # per sample: 3 pairs per structure, 2 per bundle


def _suite_sphere_bundle(ctx, rng, res):
    base, w, m = ctx.base, ctx.weights, ctx.base.dim
    sas = named_family("sasaki")
    # per sample: (x, u), then the normals of its checks below, in the order they read them
    x, u, normals = _units(ctx, rng, max(2, ctx.samples // 4), (_SPHERE_DRAWS, 2 * m))
    n = len(x)
    pairs = iter(np.moveaxis(normals.reshape(n, -1, 2, 2 * m), 1, 0))

    def tangent_pairs(S, k):
        # the next k normal pairs of every sample projected by S: U and V of shape (n, k, 2m)
        UV = bg._gv(S.tangent_projector()[:, None, None],
                    np.stack([next(pairs) for _ in range(k)], axis=1))
        return UV[:, :, 0], UV[:, :, 1]

    # the paper's unit bundle (w, 1) and its tangent sphere bundle (Sasaki, r) at each x,
    # as rows of one stacked point; each bundle's rows are one stack of all samples
    bundles = [(True, w, 1.0), (False, sas, 1.3)]
    radii = np.array([r for *_, r in bundles])
    points = sb.sphere_point(base, np.repeat(x, len(bundles), axis=0),
                             (radii[:, None] * u[:, None]).reshape(-1, m), r=np.tile(radii, n))
    cols, deta = {}, []
    for b, (unit, ww, r) in enumerate(bundles):
        P = points[np.arange(b, len(points.t), len(bundles))]
        tag = f"{ww.name} r={r}"
        for eps in ([-1, 1] if unit else [None]):
            S = sb.contact_structure(P, ww, rescaled=False, epsilon=eps)
            phi, eta, G = S.phi[:, None], S.eta[:, None], S.G[:, None]
            U, V = tangent_pairs(S, 3)
            phiU, etaU = bg._gv(phi, U), np.vecdot(eta, U)
            phi2 = bg._gv(phi, phiU) + U - etaU[..., None] * S.xi[:, None]
            lhs = np.vecdot(bg._vg(phiU, G), bg._gv(phi, V))
            rhs = np.vecdot(bg._vg(U, G), V) - etaU * np.vecdot(eta, V)
            cols[f"{tag} eps={eps} phi^2, eta(phi), G(phi, phi)"] = np.stack(
                [abs(phi2).max(-1), abs(np.vecdot(eta, phiU)), abs(lhs - rhs)], -1)
            cols[f"{tag} eps={eps} phi(xi), eta(xi)"] = np.stack(
                [abs(bg._gv(S.phi, S.xi)).max(-1), abs(np.vecdot(S.eta, S.xi) - 1.0)], -1)
        # induced metric displays vs ambient restriction
        G_dd, G_dv, G_vv = sb.induced_metric(P, ww)
        amb = orc.InducedMetric(base, ww).matrix(P.q)
        deltas, verts = sb.generators(P)
        dT, vT = np.swapaxes(deltas, -1, -2), np.swapaxes(verts, -1, -2)
        cols[f"{tag} G_dd, G_dv, G_vv"] = np.stack([abs(A).max(axis=(-2, -1)) for A in (
            deltas @ amb @ dT - G_dd, deltas @ amb @ vT - G_dv, verts @ amb @ vT - G_vv)], -1)
        # the vertical generators satisfy u^i vert_i = 0 and have rank m-1
        cols[f"{tag} u.vert"] = abs(bg._vg(P.u, verts)).max(-1)
        cols[f"{tag} rank"] = abs(np.linalg.matrix_rank(verts, tol=1e-10) - (m - 1))
        if unit:  # the unit-bundle connection on one generator case per sample
            k = np.arange(n)
            t1 = (P, w, np.array(("dd", "Yd", "dY", "YY"))[k % 4], k % m, (k // 4) % m)
            cols["t1_connection"] = abs(sb.t1_connection(*t1) - sb.t1_connection_fd(*t1)).max(-1)
        # rescaled contact metric condition, numeric d(eta)
        S = sb.contact_structure(P, ww, rescaled=True)
        U, V = tangent_pairs(S, 2)
        dvals = sb.deta_numeric(P, ww, np.stack([U, V], axis=2), rescaled=True)
        deta.append(abs(dvals - np.vecdot(bg._vg(U, S.G[:, None]), bg._gv(S.phi[:, None], V))))
    res.controls.append(Control("contact_metric_condition", float(np.max(deta)), 1e-8, "max"))
    return cols


def _suite_isometry(ctx, rng, res):
    base = ctx.base
    w4 = WeightPair(lambda t: 4.0, lambda t: 0.0, -1, name="a4")
    x, u, _ = _units(ctx, rng, max(2, ctx.samples // 5))
    good, bad = sb.isometry_residuals(base, w4, x, u, radii=(None, 1.0), rng=rng)
    res.controls.append(Control("wrong_radius_metric", bad["metric"], 0.1, "min"))
    return {k: good[k] for k in ("metric", "phi", "xi")}


def _suite_k_contact(ctx, rng, res):
    base, m = ctx.base, ctx.base.dim
    # the curvature-1 space form: the config base itself where it is that metric
    c1 = isinstance(base, bg.SpaceForm) and base.curvature == 1.0
    sf1, eu = base if c1 else bg.SpaceForm(1.0, m), bg.euclidean(m)
    bases, counts = (sf1, eu, base), (max(2, ctx.samples // 4), 2, 2)  # a unit stack each
    P, Pe, Pc = (sb.sphere_point(b, *_units(ctx, rng, k, base=b)[:2], r=1.0)
                 for b, k in zip(bases, counts))
    sas = named_family("sasaki")
    v = sb.k_contact_verdict(sas, P)
    w2 = WeightPair(lambda t: 2.0, lambda t: 0.0, -1, name="a2")
    v2 = sb.k_contact_verdict(w2, P)
    res.controls.append(Control("a2_not_k_contact", v2["k_contact_residual"], 1e-2, "min"))
    v3 = sb.k_contact_verdict(sas, Pe)
    res.controls.append(Control("flat_not_k_contact", v3["k_contact_residual"], 1e-2, "min"))
    res.controls.append(Control("phi_not_parallel", v3["sasakian_residual"], 1e-2, "min"))
    # config-provided pair: verdict must match the theorem's prediction
    vc = sb.k_contact_verdict(ctx.weights, Pc)
    agree = vc["is_k_contact"] == vc["predicted_k_contact"]
    res.controls.append(Control("verdict_matches_theorem", 1.0 if agree else 0.0, 0.5, "min"))
    return {k: v[k] for k in ("k_contact_residual", "sasakian_residual")}


def _suite_oracle_cross(ctx, rng, res):
    base, w, m = ctx.base, ctx.weights, ctx.base.dim
    im = orc.InducedMetric(base, w)
    parts = {"connection": 1e-5, "curvature": 1e-4, "sectional": 1e-4, "scalar": 1e-4}
    # per sample: the point, X and Y, then (h, v) of the random split vectors U, V, W
    P, (X, Y, *hv) = _draw(ctx, rng, max(2, ctx.samples // 4), (8, m))
    worst = {"connection": _lift_connections(w, P, X, Y, ("HV",), ctx.h)[0]}
    Rhat = orc.fd_curvature(im, P.q, h=ctx.h)
    G = im.matrix(P.q)
    U, V, Wv = (tb.SplitVector(h, v, P) for h, v in zip(hv[::2], hv[1::2]))
    cl = orc.split_to_coord(tb.bundle_curvature_general(w, base, P, U, V, Wv))
    Uc, Vc, Wc = (orc.split_to_coord(z) for z in (U, V, Wv))
    worst["curvature"] = np.max(np.abs(cl - _rop(Rhat, Uc, Vc, Wc)), axis=-1)
    k_closed = tb.bundle_sectional(w, base, P, U, V)

    def g(A, B):
        return np.vecdot(bg._vg(A, G), B)

    num_k = g(_rop(Rhat, Uc, Vc, Vc), Uc)
    worst["sectional"] = abs(k_closed - num_k / (g(Uc, Uc) * g(Vc, Vc) - g(Uc, Vc) ** 2))
    ric = np.einsum("...ikij->...kj", Rhat)
    scal_num = np.einsum("...kj,...kj->...", np.linalg.inv(G), ric)
    worst["scalar"] = abs(tb.scalar_curvature(w, base, P) - scal_num)
    res.controls.extend(Control(f"{k}_residual", float(np.max(worst[k])), t0, "max")
                        for k, t0 in parts.items())
    return {c.name: c.value / c.bound for c in res.controls}  # each as a share of its bound


SUITES = {
    "base_checks": (_suite_base_checks, "§2", 1e-6),
    "lck": (_suite_lck, "Prop. 2.6", 1e-5),
    "almost_kahler": (_suite_almost_kahler, "Thm. 2.6", 1e-5),
    "kahler": (_suite_kahler, "Thm. 2.9", 1e-5),
    "connection": (_suite_connection, "Prop. 2.11", 1e-5),
    "curvature": (_suite_curvature, "Prop. 2.12", 1e-4),
    "flat_g1": (_suite_flat_g1, "Prop. 2.17", 1e-6),
    "sectional": (_suite_sectional, "Prop. 2.15", 1e-8),
    "scalar": (_suite_scalar, "Prop. 2.18", 1e-6),
    "sphere_bundle": (_suite_sphere_bundle, "§3.1-3.2", 1e-8),
    "isometry": (_suite_isometry, "Thm. 3.3", 1e-10),
    "k_contact": (_suite_k_contact, "Thm. 3.7", 1e-8),
    "oracle_cross": (_suite_oracle_cross, "Props. 2.11-2.18", 1.0),
}

SUITE_ORDER = list(SUITES)


def _flatten(columns):
    """A suite's residual columns as one list, and each residual's sample.  A column is
    an (n,) or (n, k) array over the first n samples, or a suite-level scalar (sample
    None); per sample come the entries of every column that has it, in column order,
    and the scalars last."""
    arrays = [np.asarray(c, dtype=float) for c in columns.values()]
    rows = [a.reshape(len(a), -1) for a in arrays if a.ndim]
    scalars = [float(a) for a in arrays if not a.ndim]
    samples = np.concatenate([np.repeat(np.arange(len(r)), r.shape[1]) for r in rows]
                             + [np.zeros(0, int)])
    order = np.argsort(samples, kind="stable")
    values = np.concatenate([r.ravel() for r in rows] + [np.zeros(0)])[order]
    return values.tolist() + scalars, samples[order].tolist() + [None] * len(scalars)


def run_suite(name, ctx, tolerance=None):
    fn, anchor, default_tol = SUITES[name]
    tol = default_tol if tolerance is None else float(tolerance)
    idx = SUITE_ORDER.index(name)
    rng = ctx.rng(idx)
    res = SuiteResult(name, anchor, tol, seed=[ctx.seed, idx])
    try:
        res.residuals, res.sample_indices = _flatten(fn(ctx, rng, res))
    except Exception as exc:  # domain violations etc: report, keep running
        res = SuiteResult(name, anchor, tol, error=f"{type(exc).__name__}: {exc}",
                          seed=[ctx.seed, idx])
    return res

"""Base Riemannian manifold in a chart: metric, Christoffels, curvature.

The curvature sign convention is fixed so that a space of constant
sectional curvature c satisfies R(X,Y)Z = c (g(Y,Z) X - g(X,Z) Y), i.e.
R^k_{lij} = c (g_{jl} d^k_i - g_{il} d^k_j) with R(e_i, e_j) e_l = R^k_{lij} e_k.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet

__all__ = [
    "GeometryError",
    "ChartDomainError",
    "SingularMetricError",
    "DegeneratePlaneError",
    "ChartMetric",
    "SpaceForm",
    "euclidean",
    "diagonal_polynomial",
    "metric_from_spec",
    "christoffel",
    "base_jets",
    "curvature",
    "nabla_curvature",
    "lower_curvature",
    "orthonormal_frame",
]


class GeometryError(ValueError):
    pass


class ChartDomainError(GeometryError):
    pass


class SingularMetricError(GeometryError):
    pass


class DegeneratePlaneError(GeometryError):
    pass


class ChartMetric:
    """Metric components g_ij on a single chart of an m-manifold.

    ``components`` maps a list of m scalars (floats or jets) to an m x m
    nested sequence of scalars; writing it against the jet algebra gives
    analytic derivatives up to third order.
    """

    def __init__(self, dim, components, domain=None, name="custom"):
        self.dim = int(dim)
        self.components = components
        self.domain = domain
        self.name = name

    def check_domain(self, x):
        """x as a float array, checked to be a point of the chart, or each row of an
        (n, m) stack to be one, by one call of ``domain`` (which takes a point or a
        stack and returns one verdict per row); an error names the first point outside."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,) or x.ndim > 2:
            raise ChartDomainError(f"point shape {x.shape} != ({self.dim},) or (n, {self.dim})")
        if self.domain is not None:
            inside = np.ravel(self.domain(x))
            if not inside.all():
                p = np.reshape(x, (-1, self.dim))[inside.argmin()]
                raise ChartDomainError(f"{self.name}: point {p} outside chart domain")
        return x

    def matrix(self, x):
        """Components g_ij at x, or at each row of an (n, m) stack from one evaluation
        of ``components`` on the stack's columns, each row equal to the single call."""
        x = self.check_domain(x)
        rows = self.components(list(np.moveaxis(x, -1, 0)))
        g = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                g[..., i, j] = e.v if isinstance(e, Jet) else e
        return g

    def derivatives(self, x, order=3):
        """The first ``order + 1`` of (g, dg, d2g, d3g), with dg[l, i, j] = d_l g_ij
        and so on: (g, dg) at order 1, all four at order 3.  At an (n, m) stack of
        points, one evaluation of ``components`` on stacked jets gives each array a
        leading axis of n rows, each equal to the single call bit for bit."""
        x = self.check_domain(x)
        m, stack = self.dim, x.shape[:-1]
        rows = self.components(Jet.seed(x, order))
        out = tuple(np.zeros(stack + (m,) * (k + 2)) for k in range(order + 1))
        for i in range(m):
            for j in range(m):
                e = rows[i][j]
                if isinstance(e, Jet):
                    for arr, part in zip(out, (e.v, e.d1, e.d2, e.d3)):
                        arr[..., i, j] = np.moveaxis(part, -1, 0) if stack else part
                else:
                    out[0][..., i, j] = float(e)
        return out

    def validate_at(self, x):
        return self._checked(self.matrix(x), x)

    def admits(self, x):
        """One verdict per row of an (n, m) stack: whether ``validate_at`` takes that x
        alone, that is x is a point of the chart and g there is symmetric positive
        definite; g is evaluated once, at the rows inside the chart."""
        x = np.asarray(x, dtype=float)
        ok = np.ones(len(x), bool) if self.domain is None else np.ravel(self.domain(x))
        if ok.any():
            asym, low, _ = _flaws(self.matrix(x[ok]))
            ok[ok] = ~(asym | low)
        return ok

    def _checked(self, g, x):
        # g at x, checked symmetric and positive definite; on an (n, m, m) stack at the
        # rows of x every row is checked, and an error names the first bad row's point
        xs, gs = np.reshape(x, (-1, self.dim)), np.reshape(g, (-1, self.dim, self.dim))
        asym, low, w = _flaws(gs)
        if asym.any():
            raise GeometryError(f"{self.name}: components not symmetric at {xs[asym.argmax()]}")
        if low.any():
            i = low.argmax()
            raise SingularMetricError(
                f"{self.name}: metric not positive definite at {xs[i]} (eigenvalues {w[i]})"
            )
        return g


def _flaws(gs):
    # per matrix of an (n, m, m) stack: whether it is not symmetric, whether it is not
    # positive definite, and its eigenvalues
    w = np.linalg.eigvalsh(gs)
    return np.abs(gs - gs.transpose(0, 2, 1)).max(axis=(1, 2)) != 0.0, w.min(axis=1) <= 0.0, w


class SpaceForm(ChartMetric):
    """Constant-curvature model in its conformal chart g = I / (1 + (c/4)|x|^2)^2."""

    def __init__(self, curvature, dim):
        c = float(curvature)

        def components(xs):
            f = 1.0
            for xi in xs:
                f = f + (c / 4.0) * xi * xi
            w = 1.0 / (f * f)
            return [
                [w if i == j else 0.0 for j in range(dim)] for i in range(dim)
            ]

        def domain(x):
            return 1.0 + (c / 4.0) * np.vecdot(x, x) > 0.0

        super().__init__(dim, components, domain=domain, name=f"space_form(c={c})")
        self.curvature = c


def euclidean(dim):
    return SpaceForm(0.0, dim)


def diagonal_polynomial(dim, entries, name="diagonal_polynomial"):
    """Diagonal metric with polynomial entries.

    ``entries[i]`` is a list of terms ``{"c": coeff, "powers": [p_1..p_m]}``
    giving g_ii(x) = sum_terms c * prod_j x_j^p_j.
    """
    terms = [
        [(float(t["c"]), [int(p) for p in t["powers"]]) for t in entry]
        for entry in entries
    ]
    if len(terms) != dim:
        raise GeometryError(f"need {dim} diagonal entries, got {len(terms)}")

    def components(xs):
        diag = []
        for entry in terms:
            acc = 0.0
            for c, powers in entry:
                term = c
                for xj, p in zip(xs, powers):
                    for _ in range(p):
                        term = term * xj
                acc = acc + term
            diag.append(acc)
        return [[diag[i] if i == j else 0.0 for j in range(dim)] for i in range(dim)]

    return ChartMetric(dim, components, name=name)


def metric_from_spec(doc):
    """Build a metric from a declarative JSON document."""
    try:
        dim = int(doc["dim"])
        kind = doc["kind"]
        params = doc.get("params", {})
    except (KeyError, TypeError) as exc:
        raise GeometryError(f"invalid metric spec: missing field {exc}") from exc
    if kind == "space_form":
        return SpaceForm(params.get("curvature", 0.0), dim)
    if kind == "diagonal_polynomial":
        return diagonal_polynomial(dim, params["entries"])
    raise GeometryError(f"unknown metric kind {kind!r}")


def _inverse(g, x):
    # g^-1 at x, or at each row of a stack; an error names the first singular row's point
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        for gi, xi in zip(g, x) if g.ndim == 3 else ():
            _inverse(gi, xi)
        raise SingularMetricError(f"metric matrix singular at point {x}") from exc


def _distinct(points):
    """The distinct rows of an (n, k) stack, compared by their exact bytes, in order of
    first appearance (so an error names the first bad row), and each row's index among them."""
    rows = np.ascontiguousarray(points)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return rows[first[order]], np.argsort(order)[index]


def _readonly(out):
    # the arrays of out (one, or a tuple) made read-only, so a stray write to an array
    # a tangent point keeps raises instead of corrupting a later read
    for a in out if isinstance(out, tuple) else (out,):
        a.flags.writeable = False
    return out


def _vg(v, g):
    # the row vector v g, on stacks of v and g; each row rounds as the 1-D v @ g
    return (v[..., None, :] @ g)[..., 0, :]


def _gv(g, v):
    # the column vector g v, on stacks of g and v; each row rounds as the 1-D g @ v
    return (g @ v[..., None])[..., 0]


def _per_row(f, axes=2):
    # a scalar coefficient, or one per stack row, broadcast against the rows' matrices
    # (or against arrays with another number of trailing ``axes``)
    return np.reshape(f, np.shape(f) + (1,) * axes)


def _on(T, *vecs):
    # T[..., h, a, b, ...] vecs[0]^a vecs[1]^b ..., T having one core axis after h per
    # vector (R(X, Y)Z is _on(R, Z, X, Y)): one matrix-vector product per vector, the last
    # first, row by row on stacks
    m = T.shape[-1]
    T = T.reshape(T.shape[:T.ndim - len(vecs) - 1] + (-1,))
    for v in reversed(vecs):
        T = _gv(T.reshape(T.shape[:-1] + (-1, m)), v)
    return T


def _christoffel_core(dg):
    # core[..., i, j, l] = d_i g_jl + d_j g_il - d_l g_ij from dg[..., l, i, j] = d_l g_ij
    *lead, a, b, c = range(dg.ndim)
    return dg + dg.transpose(*lead, b, a, c) - dg.transpose(*lead, b, c, a)


def _levi_civita(ginv, dg):
    """Gamma^k_ij = 1/2 g^{kl}(d_i g_jl + d_j g_il - d_l g_ij) from g^{-1} and dg,
    on any leading stack axes."""
    return 0.5 * np.einsum("...kl,...ijl->...kij", ginv, _christoffel_core(dg))


def christoffel(metric, x):
    """Levi-Civita symbols of ``metric`` at x from its first-order jets."""
    return _metric_and_christoffel(metric, x)[1]


def _metric_and_christoffel(metric, x):
    # (g(x), Gamma(x)) from one first-order jet evaluation, at a point or at each row of
    # an (n, m) stack, evaluated once at the stack's distinct x
    xs, index = _distinct(x) if np.ndim(x) == 2 else (x, ...)
    g, dg = metric.derivatives(xs, 1)
    return g[index], _levi_civita(_inverse(g, xs), dg)[index]


def base_jets(metric, x):
    """(Gamma, R, nabla R) at x from one evaluation of the metric jets.

    The layouts are those of ``christoffel``, ``curvature`` and
    ``nabla_curvature``.  Gamma, dGamma[p, k, i, j] = d_p Gamma^k_ij and
    d2Gamma[p, q, k, i, j] come from (g, dg, d2g, d3g).  Past Gamma and R each
    contraction sums one index as one batched matrix product on reshaped or
    transposed views, the same products at a point as at each row of a stack.  At
    an (n, m) stack of points each array gains a leading axis of n rows, from one
    evaluation at the stack's distinct x, and each row equals the single call bit
    for bit.
    """
    gamma, R, nabla_r = _curvature_jets(metric, x)
    return gamma, R, nabla_r()


def _curvature_jets(metric, x):
    # Gamma and R of base_jets, and a function of no arguments that completes its nabla R
    # from the same jets, so that a caller that reads R alone skips d2Gamma and nabla R
    xs, index = _distinct(x) if np.ndim(x) == 2 else (x, ...)
    g, dg, d2g, d3g = metric.derivatives(xs, 3)
    m, lead = g.shape[-1], g.shape[:-2]
    five = (m,) * 5

    def mat(T, *core):  # T with its core axes regrouped as ``core``
        return T.reshape(lead + core)

    def l_first(t, at):  # a product t laid out as [h, k, i, j] around l at axis ``at``
        return np.moveaxis(mat(t, *five), at, -5)

    ginv = _inverse(g, xs)
    gamma = _levi_civita(ginv, dg)
    # core and its first two derivatives d_p core, d_p d_q core, the last index l as rows:
    # coreT[l, (i j)], dcoreT[p, l, (i j)], d2coreT[p, q, l, (i j)]
    coreT, dcoreT, d2coreT = (np.swapaxes(c.reshape(c.shape[:-3] + (m * m, m)), -1, -2)
                              for c in map(_christoffel_core, (dg, d2g, d3g)))
    G, G2 = ginv[..., None, :, :], ginv[..., None, None, :, :]  # g^-1 at each p, each (p, q)
    dginv = -(G @ dg @ G)
    dgamma = 0.5 * (mat(mat(dginv, m * m, m) @ coreT, m, m, m, m) + mat(G @ dcoreT, m, m, m, m))
    R = _curvature_from(gamma, dgamma)

    def nabla_r():
        dginv_p, dg_q = dginv[..., :, None, :, :], dg[..., None, :, :, :]
        d2ginv = -(dginv_p @ dg_q @ G2 + G2 @ d2g @ G2 + G2 @ dg_q @ dginv_p)
        # dginv[q, k, l] dcore[p, i, j, l] at [p, q, k, i, j]; its (q, p) transpose is the other
        cross = mat(mat(dginv, 1, m * m, m) @ dcoreT, *five)
        d2gamma = 0.5 * (mat(mat(d2ginv, m ** 3, m) @ coreT, *five) + cross
                         + np.swapaxes(cross, -5, -4) + mat(G2 @ d2coreT, *five))
        # dR[p, h, k, i, j] = d_p R^h_{kij}, from d2Gamma[p, i, h, j, k] = d_p d_i G^h_jk and
        # the quadratic terms dG^h_il G^l_jk + G^h_il dG^l_jk, summed at [p, h, i, j, k]
        *_, p, i, h, j, k = range(d2gamma.ndim)
        dterm = d2gamma.transpose(*_, p, h, k, i, j)
        dquad = np.moveaxis(mat(mat(dgamma, m ** 3, m) @ mat(gamma, m, m * m), *five)
                            + mat(mat(gamma, 1, m * m, m) @ mat(dgamma, m, m, m * m), *five),
                            -1, -3)
        dR = dterm - np.swapaxes(dterm, -1, -2) + dquad - np.swapaxes(dquad, -1, -2)
        # the Gamma terms of nabla R[l, h, k, i, j], each one product summing p, added one
        # at a time so that few (n, m^5) arrays are held at once
        gT = np.swapaxes(mat(gamma, m, m * m), -1, -2)[..., None, :, :]  # [(l k), p]
        NR = (dR + l_first(mat(gamma, m * m, m) @ mat(R, m, m ** 3), -4)
              - l_first(gT @ mat(R, m, m, m * m), -4) - l_first(gT @ mat(R, m * m, m, m), -3)
              - l_first(mat(R, m ** 3, m) @ mat(gamma, m, m * m), -2))
        return NR[index]

    return gamma[index], R[index], nabla_r


def _curvature_from(gamma, dgamma):
    # R[h, k, i, j] = d_i Gamma^h_jk - d_j Gamma^h_ik + G^h_il G^l_jk - G^h_jl G^l_ik,
    # on any leading stack axes
    term = np.einsum("...ihjk->...hkij", dgamma)  # d_i G^h_jk
    quad = np.einsum("...hil,...ljk->...hkij", gamma, gamma)
    return term - np.swapaxes(term, -1, -2) + quad - np.swapaxes(quad, -1, -2)


def curvature(metric, x):
    """Curvature R[h, k, i, j] = R^h_{kij}, with R(e_i, e_j) e_k = R^h_{kij} e_h."""
    return _curvature_jets(metric, x)[1]


def nabla_curvature(metric, x):
    """Covariant derivative NR[l, h, k, i, j] = (nabla_l R)^h_{kij}."""
    return base_jets(metric, x)[2]


def lower_curvature(g, R):
    """R_{hkij} = g_{hp} R^p_{kij}, row by row on stacks."""
    return np.einsum("...hp,...pkij->...hkij", g, R)


def _sectional(g, R, X, Y):
    # sectional curvature of span(X, Y) from g and R at one point, or row by row on stacks
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    rxyy = _on(R, Y, X, Y)
    num, nx, ny, xy = (np.vecdot(_vg(A, g), B) for A, B in ((rxyy, X), (X, X), (Y, Y), (X, Y)))
    den = nx * ny - xy * xy
    if np.any(den <= 1e-14 * nx * ny):
        raise DegeneratePlaneError(f"degenerate plane span({X}, {Y}): Gram determinant {den}")
    return num / den


def orthonormal_frame(g, first=None):
    """g-orthonormal frame rows e_i, optionally with e_1 along ``first``; at an (n, m, m)
    stack of g (and an (n, m) stack of ``first``) one frame per row, as the single call."""
    m = g.shape[-1]
    gs = np.reshape(g, (-1, m, m))
    seeds = ([] if first is None else [np.reshape(first, (-1, m))]) + list(np.eye(m))
    frame, size = np.zeros(gs.shape), np.zeros(len(gs), dtype=int)
    for s in seeds:
        v = np.broadcast_to(s, gs.shape[:-1])
        for i in range(m):
            e = frame[:, i]
            v = np.where((i < size)[:, None], v - np.vecdot(_vg(e, gs), v)[:, None] * e, v)
        norm2 = np.vecdot(_vg(v, gs), v)
        new = np.flatnonzero((norm2 > 1e-20) & (size < m))
        frame[new, size[new]] = v[new] / np.sqrt(norm2[new])[:, None]
        size[new] += 1
    if (size != m).any():
        raise GeometryError("failed to build an orthonormal frame")
    return frame.reshape(g.shape)

"""Random draws and reference kernels shared by the tests: t inside a weight pair's domain,
split vectors, the one-by-one rejection sampler that ``SuiteContext.draw`` must reproduce,
the einsum forms of the base jets and of the bundle curvature's slot cases that the
matrix-product kernels of ``base_geometry`` and ``tangent_bundle`` must agree with, and the
point-by-point directional and exterior derivatives that the oracle's stacked stencils
must agree with."""

import math

import numpy as np

from tbgeom import base_geometry as bg
from tbgeom.base_geometry import ChartDomainError, GeometryError
from tbgeom.tangent_bundle import SplitVector, TangentPoint


def sample_domain(pair, rng, n, t_max=None):
    """n values of t drawn uniformly from the pair's domain, clipped to
    [1e-3, min(hi, t_max or 3)) and kept off its upper end."""
    lo, hi = pair.t_domain
    hi = min(hi, t_max if t_max is not None else 3.0)
    lo = max(lo, 1e-3)
    return lo + (hi - lo) * rng.random(n) * 0.98


def random_split_vector(P, rng):
    """A split vector at P with standard normal horizontal, then vertical, parts."""
    m = P.base.dim
    return SplitVector(rng.standard_normal(m), rng.standard_normal(m), P)


def admissible_x(ctx, rng, base=None):
    """The next x of the context's chart box admissible for its base and then for
    ``base`` (by default the same), and g of ``base`` there, checked one x at a time."""
    base = base or ctx.base
    lo, hi = ctx.chart_box[:, 0], ctx.chart_box[:, 1]
    for _ in range(1000):
        x = lo + (hi - lo) * rng.random(ctx.base.dim)
        try:
            g = ctx.base.validate_at(x)
            return x, g if base is ctx.base else base.validate_at(x)
        except GeometryError:
            continue
    raise ChartDomainError("chart box contains no admissible points")


def unit_point(ctx, rng, base=None):
    """An admissible x, g there and a g-unit direction u, one sample at a time."""
    x, g = admissible_x(ctx, rng, base)
    u = rng.standard_normal((base or ctx.base).dim)
    return x, g, u / math.sqrt(u @ g @ u)


def tangent_point(ctx, rng, weights=None, base=None, t_range=None):
    """A point of T(M) drawn as the suites draw it, one sample at a time: a unit point,
    scaled to an energy t drawn uniformly inside the fiber range and the weights' domain."""
    w, base = weights or ctx.weights, base or ctx.base
    x, g, direction = unit_point(ctx, rng, base)
    lo, hi = t_range or (0.5 * ctx.fiber_range[0] ** 2, 0.5 * ctx.fiber_range[1] ** 2)
    dlo, dhi = w.t_domain
    lo = max(lo, dlo if dlo > 0 else (1e-6 if w.epsilon == +1 else lo))
    hi = min(hi, dhi * 0.98 if math.isfinite(dhi) else hi)
    t = lo + (hi - lo) * rng.random()
    u = math.sqrt(2.0 * t) * direction
    return TangentPoint(base, x, u, g, 0.5 * float(u @ g @ u))


def reference_base_jets(metric, x):
    """(Gamma, R, nabla R) at x, or at each row of an (n, m) stack, with every contraction
    one ``np.einsum`` over the full index set, as written out from the definitions."""
    xs, index = bg._distinct(x) if np.ndim(x) == 2 else (x, ...)
    g, dg, d2g, d3g = metric.derivatives(xs, 3)
    ginv = bg._inverse(g, xs)
    gamma = bg._levi_civita(ginv, dg)
    core, dcore, d2core = map(bg._christoffel_core, (dg, d2g, d3g))
    dginv = -np.einsum("...ka,...pab,...bl->...pkl", ginv, dg, ginv)
    dgamma = 0.5 * (
        np.einsum("...pkl,...ijl->...pkij", dginv, core)
        + np.einsum("...kl,...pijl->...pkij", ginv, dcore)
    )
    d2ginv = -(
        np.einsum("...pka,...qab,...bl->...pqkl", dginv, dg, ginv)
        + np.einsum("...ka,...pqab,...bl->...pqkl", ginv, d2g, ginv)
        + np.einsum("...ka,...qab,...pbl->...pqkl", ginv, dg, dginv)
    )
    d2gamma = 0.5 * (
        np.einsum("...pqkl,...ijl->...pqkij", d2ginv, core)
        + np.einsum("...qkl,...pijl->...pqkij", dginv, dcore)
        + np.einsum("...pkl,...qijl->...pqkij", dginv, dcore)
        + np.einsum("...kl,...pqijl->...pqkij", ginv, d2core)
    )
    R = bg._curvature_from(gamma, dgamma)
    dterm = np.einsum("...pihjk->...phkij", d2gamma)
    dquad = np.einsum("...phil,...ljk->...phkij", dgamma, gamma) + np.einsum(
        "...hil,...pljk->...phkij", gamma, dgamma
    )
    dR = dterm - np.swapaxes(dterm, -1, -2) + dquad - np.swapaxes(dquad, -1, -2)
    NR = (
        dR
        + np.einsum("...hlp,...pkij->...lhkij", gamma, R)
        - np.einsum("...plk,...hpij->...lhkij", gamma, R)
        - np.einsum("...pli,...hkpj->...lhkij", gamma, R)
        - np.einsum("...plj,...hkip->...lhkij", gamma, R)
    )
    return gamma[index], R[index], NR[index]


def _rop(R, X, Y, Z):
    # R(X, Y)Z
    return np.einsum("...hkij,...k,...i,...j->...h", R, Z, X, Y)


def _nrop(NR, W, X, Y, Z):
    # (nabla_W R)(X, Y)Z
    return np.einsum("...lhkij,...l,...k,...i,...j->...h", NR, W, Z, X, Y)


def reference_bundle_curvature(w, P, case, X, Y, Z):
    """(h, v) of the bundle curvature's slot case at P, every R and nabla R term one einsum
    over the full tensor, u in its slot as one more vector."""
    d = P.coeffs(w)
    a, ap, L, M, F1, F2, F3 = (np.asarray(c)[..., None]
                               for c in (d.values.a, d.values.ap, d.L, d.M, d.F1, d.F2, d.F3))
    R, NR, gu, u = P.R, P.NR, P.gu, P.u

    def rop(A, B, C):
        return _rop(R, A, B, C)

    def dot(A, B):
        return np.vecdot(A, B)[..., None]

    def gx(A, B):
        return dot(bg._vg(A, P.gx), B)

    zero = np.zeros(np.broadcast_shapes(np.shape(X), np.shape(u)))
    if case == "HHH":
        return (rop(X, Y, Z) + (a / 4) * (rop(u, rop(X, Z, u), Y) - rop(u, rop(Y, Z, u), X)
                                          + 2 * rop(u, rop(X, Y, u), Z)),
                0.5 * _nrop(NR, Z, X, Y, u))
    if case == "HHV":
        return ((a / 2) * (_nrop(NR, X, u, Z, Y) - _nrop(NR, Y, u, Z, X)),
                rop(X, Y, Z) + (a / 4) * (rop(Y, rop(u, Z, X), u) - rop(X, rop(u, Z, Y), u))
                + L * dot(Z, gu) * rop(X, Y, u) + M * gx(rop(X, Y, u), Z) * u)
    if case == "HVH":
        return ((a / 2) * _nrop(NR, X, u, Y, Z),
                0.5 * (rop(X, Z, Y) - (a / 2) * rop(X, rop(u, Y, Z), u)
                       + L * dot(Y, gu) * rop(X, Z, u) + M * gx(rop(X, Z, u), Y) * u))
    if case == "HVV":
        return (-(a / 2) * rop(Y, Z, X) - (a * a / 4) * rop(u, Y, rop(u, Z, X))
                + (ap / 4) * (dot(Z, gu) * rop(u, Y, X) - dot(Y, gu) * rop(u, Z, X)), zero)
    if case == "VVH":
        return (a * rop(X, Y, Z) + (ap / 2) * (dot(X, gu) * rop(u, Y, Z) - dot(Y, gu) * rop(u, X, Z))
                + (a * a / 4) * (rop(u, X, rop(u, Y, Z)) - rop(u, Y, rop(u, X, Z))), zero)
    if case == "VVV":
        gxu, gyu, gzu, gxz, gyz = dot(X, gu), dot(Y, gu), dot(Z, gu), gx(X, Z), gx(Y, Z)
        return zero, (F1 * gzu * (gxu * Y - gyu * X) + F2 * (gxz * Y - gyz * X)
                      + F3 * (gxz * gyu - gyz * gxu) * u)
    raise ValueError(case)


def fd_directional(fun, q, v, h=1e-4):
    """Directional derivative along v at q of a scalar- or array-valued function, each
    point evaluated alone: the central quotients at the steps h and h/2, combined by one
    Richardson step, (4 D(h/2) - D(h)) / 3, as the oracle's quotient rule."""
    q, v = np.asarray(q, dtype=float), np.asarray(v, dtype=float)
    f = [np.asarray(fun(q + s * v)) - np.asarray(fun(q - s * v)) for s in (h, h / 2)]
    return (4.0 * (f[1] / h) - f[0] / (2 * h)) / 3.0


def fd_exterior_derivative(form, q, vectors, h=1e-4):
    """Numeric exterior derivative of the k-form ``form(q, v_1, .., v_k)`` on constant
    coordinate-extended vectors, in the 1/(k+1)-normalized convention (brackets of
    constant fields vanish): the alternating sum of the ``fd_directional`` derivatives
    of the form on the other vectors."""
    vectors, total = [np.asarray(v, dtype=float) for v in vectors], 0.0
    for i, v in enumerate(vectors):
        rest = vectors[:i] + vectors[i + 1 :]
        total += (-1.0) ** i * fd_directional(lambda p: form(p, *rest), q, v, h=h)
    return total / len(vectors)

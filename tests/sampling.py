"""Random draws shared by the tests: t inside a weight pair's domain, split vectors, and
the one-by-one rejection sampler that ``SuiteContext.draw`` must reproduce."""

import math

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

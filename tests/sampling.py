"""Random draws shared by the tests: t inside a weight pair's domain, and split vectors."""

from tbgeom.tangent_bundle import SplitVector


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

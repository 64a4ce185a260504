"""Weight pairs (a, b, eps) for the generalized tangent-bundle metric.

The metric weights are functions of the fiber energy density t >= 0; the
vertical block of the bundle metric is a(t) g + b(t) g(.,u) g(.,u).
Derived scalar coefficients (connection, curvature, complex-structure and
Lee-form coefficients) live in DerivedCoefficients.

For eps = -1 the complex-structure coefficients

    A(t) = (1/2t)(1/sqrt(a) - 1/sqrt(a+2bt)),
    B(t) = (1/2t)(sqrt(a) - sqrt(a+2bt))

have removable singularities at t = 0; they are evaluated through the
algebraically rationalized forms

    A = b / (sqrt(a) q (sqrt(a)+q)),   B = -b / (sqrt(a)+q),   q = sqrt(a+2bt),

which are exact and stable for all t >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import Series, Taylor, exp, log, sqrt

__all__ = [
    "WeightDomainError",
    "WeightValues",
    "WeightPair",
    "DerivedCoefficients",
    "derived_coeffs",
    "named_family",
    "almost_kahler_complete",
    "kahler_family",
    "integrability_constant",
    "kahler_system_residuals",
    "weights_from_spec",
    "FAMILIES",
]


class WeightDomainError(ValueError):
    pass


@dataclass(frozen=True)
class WeightValues:
    """Weight functions and their derivatives evaluated at one t."""

    t: float
    a: float
    ap: float
    app: float
    b: float
    bp: float

    @property
    def vertical_norm_weight(self):
        return self.a + 2.0 * self.t * self.b


class WeightPair:
    """Pair of scalar weight functions with sign eps and validity domain.

    ``a`` and ``b`` must accept floats and either jet type; derivatives are
    read from a ``Taylor`` evaluation (a to second order, b to first); when
    ``b`` is ``a`` that one evaluation serves both.
    """

    def __init__(self, a, b, epsilon=-1, t_domain=(0.0, math.inf), name="custom",
                 params=None):
        if epsilon not in (-1, 1):
            raise WeightDomainError(f"epsilon must be +-1, got {epsilon}")
        if not float(t_domain[0]) < float(t_domain[1]):
            raise WeightDomainError(f"t_domain {tuple(t_domain)}: expected lo < hi")
        self.a = a
        self.b = b
        self.epsilon = int(epsilon)
        self.t_domain = (float(t_domain[0]), float(t_domain[1]))
        self.name = name
        self.params = dict(params or {})

    def contains(self, t):
        lo, hi = self.t_domain
        return (lo <= t) & (t < hi)

    def eval(self, t):
        """Weight values at a float t, or at each t of a 1-D array (then every field
        is an array, each entry equal to the float evaluation).  Any t outside the
        domain, or with a <= 0 or a + 2tb <= 0, raises WeightDomainError."""
        t = t if isinstance(t, np.ndarray) else float(t)
        # each check reads a plain bool directly on the float path
        inside = self.contains(t)
        bad = None if inside is True else _first(np.logical_not(inside), t)
        if bad:
            raise WeightDomainError(
                f"{self.name}: t={bad[0]} outside domain [{self.t_domain[0]}, {self.t_domain[1]})"
            )
        tj = Taylor.var(t)
        aj = self.a(tj)
        bj = aj if self.b is self.a else self.b(tj)
        a, ap, app = (aj.v, aj.d1, aj.d2) if isinstance(aj, Taylor) else (float(aj), 0.0, 0.0)
        b, bp = (bj.v, bj.d1) if isinstance(bj, Taylor) else (float(bj), 0.0)
        if type(t) is not float:
            a, ap, app, b, bp = (np.broadcast_to(f, t.shape) for f in (a, ap, app, b, bp))
        w = WeightValues(t, a, ap, app, b, bp)
        for what, value in (("a(t)", w.a), ("a+2tb", w.vertical_norm_weight)):
            low = value <= 0.0
            bad = None if low is False else _first(low, value, t)
            if bad:
                raise WeightDomainError(f"{self.name}: {what}={bad[0]} <= 0 at t={bad[1]}")
        return w

    def __repr__(self):
        return f"WeightPair({self.name}, eps={self.epsilon})"


def _first(bad, *values):
    # None if ``bad`` holds nowhere, else ``values`` (floats, or arrays like it) at its first hit
    if isinstance(bad, np.ndarray):
        return [v[bad.argmax()] for v in values] if bad.any() else None
    return values if bad else None


@dataclass(frozen=True)
class DerivedCoefficients:
    """Scalar coefficients derived from a weight pair at one t, or at each t of
    an array (then every field is an array, each entry equal to the float call).

    ``values`` are the weight values they were built from, so a caller
    needs no second evaluation at the same t.
    """

    L: float
    M: float
    N: float
    F1: float
    F2: float
    F3: float
    A_coef: float
    B_coef: float
    lee_coef: float
    values: WeightValues


def _sqrt(v):
    # math.sqrt on a float, np.sqrt entry by entry on an array: both round correctly
    return math.sqrt(v) if type(v) is float else np.sqrt(v)


def _ab_coeffs(w: WeightValues, epsilon: int):
    sa = _sqrt(w.a)
    q = _sqrt(w.vertical_norm_weight)
    if epsilon == -1:
        A = w.b / (sa * q * (sa + q))
        B = -w.b / (sa + q)
        return A, B
    t = w.t
    if _first(t < 1e-12, t):
        raise WeightDomainError("A(t), B(t) undefined on the zero section for eps=+1")
    A = (1.0 / (2 * t)) * (1.0 / sa + 1.0 / q)
    B = (1.0 / (2 * t)) * (sa + q)
    return A, B


def derived_coeffs(pair: WeightPair, t):
    """Connection, curvature, complex-structure and Lee coefficients at a float t
    or at each t of a 1-D array."""
    return _coeffs_from(pair.eval(t), pair.epsilon)


def _coeffs_from(w: WeightValues, epsilon: int):
    # derived_coeffs from weight values already evaluated, at one t or an array of t
    a, ap, app, b, bp, tt = w.a, w.ap, w.app, w.b, w.bp, w.t
    v = w.vertical_norm_weight
    L = ap / (2 * a)
    M = (2 * b - ap) / (2 * v)
    N = (a * bp - 2 * ap * b) / (2 * a * v)
    Lp = app / (2 * a) - ap * ap / (2 * a * a)
    vp = ap + 2 * b + 2 * tt * bp
    Mp = ((2 * bp - app) * v - (2 * b - ap) * vp) / (2 * v * v)
    F1 = Lp - L * L - N * (1 + 2 * tt * L)
    F2 = L - M * (1 + 2 * tt * L)
    F3 = N - (Mp + M * M + 2 * tt * M * N)
    A, B = _ab_coeffs(w, epsilon)
    sa = _sqrt(a)
    lee = (ap / (2 * sa) + B) / sa  # the oracle-adjudicated (1/sqrt(a)) (a'/(2 sqrt(a)) + B)
    return DerivedCoefficients(L, M, N, F1, F2, F3, A, B, lee, w)


def _hh_coef(d: DerivedCoefficients):
    # coefficient of g(X,u)Y - g(Y,u)X in the HH Nijenhuis tensor
    a, ap = d.values.a, d.values.ap
    return -ap / (2 * a * a) + (a + d.values.t * ap) / (a * _sqrt(a)) * d.A_coef


def integrability_constant(pair: WeightPair, t):
    """c(t) = -a'/(2a^2) + ((a + t a')/(a sqrt(a))) A(t); constant iff integrable."""
    return _hh_coef(derived_coeffs(pair, t))


def kahler_system_residuals(pair: WeightPair, t, c):
    """Residuals of the first-order system b = 2a'(ta'+a)/a and a' = 2ca(2ta'+a).

    These are the paper's Eqs. (13)-(14).  Eq. (13) is the closure condition
    that follows from the unverified Lee coefficient a'/sqrt(a); with the
    verified a'/(2 sqrt a) closure reads b = a'(1 + t a'/(2a)) instead.  The
    pairs solving the system are integrable and locally conformal Kahler,
    not Kahler.
    """
    w = pair.eval(t)
    r1 = w.b - 2 * w.ap * (w.t * w.ap + w.a) / w.a
    r2 = w.ap - 2 * c * w.a * (2 * w.t * w.ap + w.a)
    return r1, r2


_CLOSURE_CHECKS = 1000  # the t on [lo, min(hi, 10)] at which the closure sign is checked


def almost_kahler_complete(a, epsilon=-1, t_domain=(0.0, math.inf), name=None):
    """Complete a weight a(t) to a pair whose fundamental 2-form is closed.

    The closure condition fixes b = a' (1 + t a'/(2a)); it is solvable with
    sign eps exactly when eps * (a + t a') < 0, i.e. t*a(t) increasing for
    eps = -1 and decreasing for eps = +1 (checked by dense sampling).
    """

    def b(t):
        # a' is the derivative series of a at a seed, composed with t; its unknown top is NaN
        s = a(Taylor.var(t.v if isinstance(t, Series) else t))
        if not isinstance(s, Taylor):
            return 0.0
        ap = s.derivative()
        apt = (t.compose(*(ap.v, ap.d1, ap.d2, math.nan)[: t.order + 1])
               if isinstance(t, Series) else ap.v)
        return apt * (1 + t * apt / (2 * a(t)))

    pair = WeightPair(a, b, epsilon, t_domain, name or "almost_kahler_complete")
    lo, hi = max(pair.t_domain[0], 0.0), min(pair.t_domain[1], 10.0)
    t = np.linspace(lo + 1e-9, hi - 1e-9, _CLOSURE_CHECKS)
    w = pair.eval(t)  # also enforces a > 0 and a + 2tb > 0
    bad = _first(pair.epsilon * (w.a + t * w.ap) >= 0, t)
    if bad:
        trend, sign = ("increasing", ">") if pair.epsilon == -1 else ("decreasing", "<")
        raise WeightDomainError(f"t*a(t) not {trend} at t={bad[0]}: "
                                f"closure needs a + t a' {sign} 0 for eps={pair.epsilon:+d}")
    return pair


def kahler_family(case, c, kappa):
    """Integrable-structure weight families over a curvature-c base.

    The pairs solve the paper's Eqs. (13)-(14) (see kahler_system_residuals):
    over the curvature-c base their almost complex structure is integrable
    and the fundamental form satisfies dOmega = lee ^ Omega with a closed,
    nonzero Lee form, so they are locally conformal Kahler, not Kahler.

    Case 1: c > 0, kappa < 0, eps = +1 on 0 < t < -1/kappa.
    Case 2: kappa c < 0, eps = -1; domain all t >= 0 for kappa > 0, else
    t < -1/kappa.
    """
    c = float(c)
    kappa = float(kappa)
    if case == 1:
        if not (c > 0 and kappa < 0):
            raise WeightDomainError("case 1 needs c > 0 and kappa < 0")

        def a(t):
            return (1 + sqrt(1 + kappa * t)) / (4 * c * t)

        def b(t):
            return -kappa * (1 + sqrt(1 + kappa * t)) / (
                (8 * c * t) * (1 + kappa * t)
            )

        return WeightPair(a, b, +1, (1e-12, -1.0 / kappa), "kahler_case1",
                          {"c": c, "kappa": kappa})
    if case == 2:
        if not kappa * c < 0:
            raise WeightDomainError("case 2 needs kappa*c < 0")
        hi = math.inf if kappa > 0 else -1.0 / kappa

        def a(t):
            return -kappa / (4 * c * (1 + sqrt(1 + kappa * t)))

        def b(t):
            return kappa**2 / ((8 * c) * (1 + kappa * t) * (1 + sqrt(1 + kappa * t)))

        return WeightPair(a, b, -1, (0.0, hi), "kahler_case2",
                          {"c": c, "kappa": kappa})
    raise WeightDomainError(f"unknown case {case!r} (expected 1 or 2)")


def _sasaki():
    return WeightPair(lambda t: 1.0, lambda t: 0.0, -1, name="sasaki")


def _cheeger_gromoll():
    def a(t):
        return 1.0 / (1.0 + 2.0 * t)

    return WeightPair(a, a, -1, name="cheeger_gromoll")


def _g1(a0=1.0):
    def a(t):
        s = sqrt(1.0 + 2.0 * t)
        return a0 * exp(2.0 * s) / ((1.0 + s) * (1.0 + s))

    return WeightPair(a, a, -1, name="g1" if a0 == 1.0 else f"flat_exp(a0={a0})")


def _lck_example(c=1.0, k=1.0):
    if k <= 0 or c < 0:
        raise WeightDomainError("lck_example needs k > 0 and c >= 0")

    def a(t):
        s = sqrt(1.0 + 2.0 * t)
        return exp(2.0 * s) / (2.0 * (c * exp(2.0 * s) * t + (1.0 + t + s) * k))

    return WeightPair(a, a, -1, name="lck_example", params={"c": c, "k": k})


def _scal_a23():
    # The paper's constant-scalar-curvature family, singled out by its
    # coefficient (2-3a)/2.  With the verified -a/2 its scalar curvature is
    # (m-1)(mc - (2/3) t c^2) and varies with t; scal_t2 is the family whose
    # scalar curvature is constant.
    return WeightPair(lambda t: 2.0 / 3.0, lambda t: 0.0, -1, name="scal_a23")


def _scal_exp(m):
    m = int(m)

    def b(t):
        return exp(-1.5 * ((m - 2.0) * t + (m / 3.0) * log(t)))

    return WeightPair(lambda t: 2.0 / 3.0, b, -1, (1e-12, math.inf),
                      "scal_exp", {"m": m})


def _scal_band(k, c, m):
    # The paper's banded-k family with a = k < 2/3.  Its scalar curvature is
    # not constant in t under the verified -a/2 coefficient; scal_t2 is the
    # family whose scalar curvature is constant.
    k, c, m = float(k), float(c), int(m)
    if not 0.0 < k < 2.0 / 3.0:
        raise WeightDomainError("scal_band needs 0 < k < 2/3")

    def b(t):
        return (c * c * k * k * (3.0 * k - 2.0) * t) / (
            2.0 + m + 2.0 * c * c * (2.0 - 3.0 * k) * k * t * t
        )

    return WeightPair(lambda t: k, b, -1, name="scal_band",
                      params={"k": k, "c": c, "m": m})


def _scal_t2(k, c, m):
    # a = 1 keeps the scalar curvature at (m-1)(mc + k) on the whole domain
    k, c, m = float(k), float(c), int(m)
    # positive root of m(2+m) - 2k(2+m) t - 2 c^2 m t^2 = 0 bounds the domain
    if c != 0.0:
        aa, bb, cc = -2.0 * c * c * m, -2.0 * k * (2.0 + m), m * (2.0 + m)
        disc = bb * bb - 4 * aa * cc
        roots = [(-bb + s * math.sqrt(disc)) / (2 * aa) for s in (+1, -1)]
        t2 = max(r for r in roots if r > 0)
    elif k > 0:
        t2 = m / (2.0 * k)
    else:
        t2 = math.inf

    def b(t):
        return (k * (2.0 + m) + c * c * m * t) / (
            m * (2.0 + m) - 2.0 * k * (2.0 + m) * t - 2.0 * c * c * m * t * t
        )

    return WeightPair(lambda t: 1.0, b, -1, (0.0, t2), "scal_t2",
                      params={"k": k, "c": c, "m": m})


def _flat_power(a0, k):
    a0, k = float(a0), float(k)
    if a0 <= 0:
        raise WeightDomainError("flat_power needs a0 > 0")
    if not (k > 1 or k <= 0):
        raise WeightDomainError("flat_power needs k > 1 or k <= 0")
    p = 2.0 * (k - 1.0)

    def a(t):
        return a0 * exp(p * log(t))

    def b(t):
        return k * a0 * p * exp((p - 1.0) * log(t))

    if k == 0.0:
        b = lambda t: 0.0  # noqa: E731 - k * a' vanishes identically
    return WeightPair(a, b, -1, (1e-12, math.inf), "flat_power",
                      params={"a0": a0, "k": k})


FAMILIES = {
    "sasaki": _sasaki,
    "cheeger_gromoll": _cheeger_gromoll,
    "g1": _g1,
    "lck_example": _lck_example,
    "scal_a23": _scal_a23,
    "scal_exp": _scal_exp,
    "scal_band": _scal_band,
    "scal_t2": _scal_t2,
    "flat_power": _flat_power,
    "flat_exp": _g1,
    "kahler_case1": lambda c, kappa: kahler_family(1, c, kappa),
    "kahler_case2": lambda c, kappa: kahler_family(2, c, kappa),
}


def named_family(name, **params):
    try:
        builder = FAMILIES[name]
    except KeyError:
        raise WeightDomainError(
            f"unknown weight family {name!r}; known: {sorted(FAMILIES)}"
        ) from None
    return builder(**params)


def _poly_callable(coeffs):
    coeffs = [float(c) for c in coeffs]

    def f(t):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    return f


def weights_from_spec(doc):
    """Build a weight pair from a declarative JSON document.

    Either {"name": ..., "params": {...}, "epsilon": ...} for a named family
    or {"a": spec, "b": spec, "epsilon": ...} with spec one of
    {"poly": [c0, c1, ...]} or {"exp_poly": [c0, c1, ...]} (exp of the poly).
    """
    if not isinstance(doc, dict):
        raise WeightDomainError(f"invalid weights spec: expected an object, got {doc!r}")
    eps = doc.get("epsilon")
    if eps is not None and (type(eps) is not int or eps not in (-1, 1)):
        raise WeightDomainError(f"epsilon: expected the integer -1 or +1, got {eps!r}")
    if "name" in doc:
        pair = named_family(doc["name"], **doc.get("params", {}))
        if eps is not None and eps != pair.epsilon:
            pair = WeightPair(pair.a, pair.b, eps, pair.t_domain, pair.name, pair.params)
        return pair

    def build(spec):
        if "poly" in spec:
            return _poly_callable(spec["poly"])
        if "exp_poly" in spec:
            p = _poly_callable(spec["exp_poly"])
            return lambda t: exp(p(t))
        raise WeightDomainError(f"unknown weight function spec {spec!r}")

    try:
        a = build(doc["a"])
        b = build(doc["b"])
    except (KeyError, TypeError) as exc:
        raise WeightDomainError(f"invalid weights spec: {exc}") from exc
    lo, hi = doc.get("t_domain", (0.0, math.inf))
    return WeightPair(a, b, -1 if eps is None else eps, (lo, hi), "custom")

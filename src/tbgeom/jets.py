"""Truncated Taylor (jet) arithmetic up to third order.

A jet carries the value of a scalar expression together with its
derivatives up to a fixed order, so one evaluation on seeded jets yields
every derivative needed downstream, exactly.  ``Taylor`` (one variable,
three floats) serves the weights a(t), b(t), of which ``WeightPair.eval``
reads a to a'' and b to b'; ``Jet`` (n variables, numpy arrays) serves the
base metric components, truncated at the order its caller reads: 1 for g and
its first derivatives, 3 for the curvature and its covariant derivative.
They share ``-``, ``/``, ``reciprocal`` and ``**`` and differ in ``+``,
``*``, negation and ``compose``; a map of a series computes its derivative
factors only up to the series' order.  A ``Taylor`` may carry arrays, one
entry per t, each equal to its float evaluation.

A ``Jet`` may likewise be seeded at a stack of N points (vector-mode
Taylor arithmetic): ``v`` is then an (N,) array and the stack is the
*last* axis of ``d1`` (n, N), ``d2`` (n, n, N) and ``d3`` (n, n, n, N),
so the same products broadcast for one point and for a stack.  Each
point's slice equals its single-point evaluation bit for bit: every
operation is elementwise in the stack, and array powers go through the
float power of each entry.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Series", "Taylor", "Jet", "sqrt", "exp", "log"]


def _num(x):
    # a constant as a float, or unchanged when it is an array of values
    if type(x) is float:
        return x
    return x if isinstance(x, np.ndarray) else float(x)


def _pow(u, p):
    # u**p, on an array through the float power of each entry: numpy's array power can differ
    if type(u) is float:
        return u**p
    return (u.astype(object) ** p).astype(float) if isinstance(u, np.ndarray) else u**p


class Series:
    """Operations shared by both jet types, written in terms of their own."""

    __slots__ = ()

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _chain(self, *factors):
        # compose with f, f', f'', ... given as callables, each called only up to this order
        return self.compose(*(f() for f in factors[: self.order + 1]))

    def reciprocal(self):
        u = self.v
        zero = u == 0.0
        if zero.any() if isinstance(zero, np.ndarray) else zero:
            raise ZeroDivisionError("jet reciprocal at zero value")
        return self._chain(lambda: 1.0 / u, lambda: -1.0 / _pow(u, 2),
                           lambda: 2.0 / _pow(u, 3), lambda: -6.0 / _pow(u, 4))

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return self * (1.0 / _num(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * _num(other)

    def __pow__(self, p):
        if isinstance(p, int):
            if p < 0:
                return (self ** (-p)).reciprocal()
            out = 1.0
            for _ in range(p):
                out = out * self
            return out
        u = self.v
        return self._chain(lambda: _pow(u, p), lambda: p * _pow(u, p - 1),
                           lambda: p * (p - 1) * _pow(u, p - 2),
                           lambda: p * (p - 1) * (p - 2) * _pow(u, p - 3))


class Taylor(Series):
    """Value and first two derivatives of a function of one variable."""

    __slots__ = ("v", "d1", "d2")
    order = 2

    def __init__(self, v, d1=0.0, d2=0.0):
        self.v, self.d1, self.d2 = v, d1, d2

    @classmethod
    def var(cls, value):
        return cls(_num(value), 1.0)

    def derivative(self):
        """The series shifted down one order; its unknown top order is NaN."""
        return Taylor(self.d1, self.d2, math.nan)

    def __add__(self, other):
        if isinstance(other, Taylor):
            return Taylor(self.v + other.v, self.d1 + other.d1, self.d2 + other.d2)
        return Taylor(self.v + _num(other), self.d1, self.d2)

    __radd__ = __add__

    def __neg__(self):
        return Taylor(-self.v, -self.d1, -self.d2)

    def __mul__(self, other):
        if not isinstance(other, Taylor):
            c = _num(other)
            return Taylor(c * self.v, c * self.d1, c * self.d2)
        # Leibniz rule, with the rounding order of Jet at n = 1
        a, b = self, other
        return Taylor(
            a.v * b.v,
            a.v * b.d1 + b.v * a.d1,
            a.v * b.d2 + b.v * a.d2 + a.d1 * b.d1 + b.d1 * a.d1,
        )

    __rmul__ = __mul__

    def compose(self, f0, f1, f2):
        """Chain rule for a scalar map f applied to this series."""
        g = self.d1
        return Taylor(f0, f1 * g, f2 * (g * g) + f1 * self.d2)


def _sym_gh(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    # symmetrization of gradient x hessian over the three index placements
    return (h[None] * g[:, None, None] + h[:, None] * g[None, :, None]
            + h[:, :, None] * g[None, None])


class Jet(Series):
    """Value plus partial derivatives in ``n`` variables, truncated at order 1 or 3,
    at one point or at a stack of points (on the last axis, see the module).

    The order is fixed when the point is seeded.  An order-1 jet carries only
    ``v`` and ``d1`` (``d2 = d3 = None``), and arithmetic keeps its operands'
    order, so callers that read only first derivatives build nothing else.
    """

    __slots__ = ("v", "d1", "d2", "d3")

    def __init__(self, v, d1, d2=None, d3=None):
        self.v = v  # a float, or an (N,) array for a stack
        self.d1, self.d2, self.d3 = d1, d2, d3

    @property
    def order(self):
        return 1 if self.d2 is None else 3

    @classmethod
    def seed(cls, x, order=3):
        """Seed a chart point, or each row of an (N, n) stack of points: one
        independent variable per component."""
        if order not in (1, 3):
            raise ValueError(f"jet order must be 1 or 3, got {order!r}")
        x = np.asarray(x, dtype=float)
        n, stack = x.shape[-1], x.shape[:-1]
        jets = []
        for i in range(n):
            d1 = np.zeros((n,) + stack)
            d1[i] = 1.0
            high = (np.zeros((n, n) + stack), np.zeros((n, n, n) + stack)) if order == 3 else ()
            jets.append(cls(x[..., i] if stack else float(x[i]), d1, *high))
        return jets

    def _operand(self, other):
        # the other jet of a binary operation, which must be of this jet's order
        if (other.d2 is None) != (self.d2 is None):
            raise ValueError(f"cannot combine jets of orders {self.order} and {other.order}")
        return other

    def __add__(self, other):
        if isinstance(other, Jet):
            o = self._operand(other)
            v, d1, d2, d3 = o.v, o.d1, o.d2, o.d3
        else:
            # a constant adds +0.0 to every derivative, turning -0.0 into +0.0
            v, d1, d2, d3 = float(other), 0.0, 0.0, 0.0
        if self.d2 is None:
            return Jet(self.v + v, self.d1 + d1)
        return Jet(self.v + v, self.d1 + d1, self.d2 + d2, self.d3 + d3)

    __radd__ = __add__

    def __neg__(self):
        if self.d2 is None:
            return Jet(-self.v, -self.d1)
        return Jet(-self.v, -self.d1, -self.d2, -self.d3)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = float(other)
            if self.d2 is None:
                return Jet(c * self.v, c * self.d1)
            return Jet(c * self.v, c * self.d1, c * self.d2, c * self.d3)
        a, b = self, self._operand(other)
        d1 = a.v * b.d1 + b.v * a.d1
        if a.d2 is None:
            return Jet(a.v * b.v, d1)
        d2 = a.v * b.d2 + b.v * a.d2 + a.d1[:, None] * b.d1[None] + b.d1[:, None] * a.d1[None]
        d3 = a.v * b.d3 + b.v * a.d3 + _sym_gh(b.d1, a.d2) + _sym_gh(a.d1, b.d2)
        return Jet(a.v * b.v, d1, d2, d3)

    __rmul__ = __mul__

    def compose(self, f0, f1, f2=None, f3=None):
        """Chain rule for a scalar map f applied to this jet; an order-1 jet reads f0, f1."""
        g, h, c = self.d1, self.d2, self.d3
        if h is None:
            return Jet(f0, f1 * g)
        gg = g[:, None] * g[None]  # outer products on the leading axes, any stack axis last
        d3 = f3 * (gg[:, :, None] * g[None, None]) + f2 * _sym_gh(g, h) + f1 * c
        return Jet(f0, f1 * g, f2 * gg + f1 * h, d3)


# values from numpy, whose exp and log differ from math's in the last bit


def sqrt(x):
    if isinstance(x, Series):
        u = x.v
        s = _num(np.sqrt(u))
        return x._chain(lambda: s, lambda: 0.5 / s, lambda: -0.25 / (u * s),
                        lambda: 0.375 / (_pow(u, 2) * s))
    return np.sqrt(x)


def exp(x):
    if isinstance(x, Series):
        e = _num(np.exp(x.v))
        return x.compose(*[e] * (x.order + 1))
    return np.exp(x)


def log(x):
    if isinstance(x, Series):
        u = x.v
        return x._chain(lambda: _num(np.log(u)), lambda: 1.0 / u, lambda: -1.0 / _pow(u, 2),
                        lambda: 2.0 / _pow(u, 3))
    return np.log(x)

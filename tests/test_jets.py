import math

import numpy as np
import pytest

from tbgeom import base_geometry as bg
from tbgeom import jets
from tbgeom.jets import Jet, Taylor, exp, log, sqrt


def fd4(f, x, h=1e-3):
    # fourth-order central difference, scalar
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def test_polynomial_derivatives_exact():
    x, y = Jet.seed([2.0, -1.0])
    f = x * x * y + 3.0 * y * y * y - x / y
    assert f.v == pytest.approx(4.0 * (-1.0) + 3.0 * (-1.0) + 2.0)
    # d/dx = 2xy - 1/y ; d/dy = x^2 + 9y^2 + x/y^2
    assert f.d1[0] == pytest.approx(2 * 2 * (-1) + 1.0)
    assert f.d1[1] == pytest.approx(4.0 + 9.0 + 2.0)
    # d3/dy3 = 18 + 6x/y^4
    assert f.d3[1, 1, 1] == pytest.approx(18.0 + 6 * 2.0)


@pytest.mark.parametrize("func,ref", [(sqrt, np.sqrt), (exp, np.exp), (log, np.log)])
def test_scalar_functions_match_finite_differences(func, ref):
    t0 = 0.7

    j = func(Taylor.var(t0) * Taylor.var(t0) + 0.5)

    def g(t):
        return float(ref(t * t + 0.5))

    assert j.v == pytest.approx(g(t0), abs=1e-12)
    assert j.d1 == pytest.approx(fd4(g, t0), abs=1e-9)
    assert j.d2 == pytest.approx(fd4(lambda s: fd4(g, s), t0, h=3e-3), abs=1e-6)
    # second order against the general Jet seeded in one variable
    x = Jet.seed([t0])[0]
    assert j.d2 == pytest.approx(func(x * x + 0.5).d2[0, 0], rel=1e-12)


def test_mixed_partials_symmetric():
    rng = np.random.default_rng(0)
    xs = Jet.seed(rng.uniform(0.5, 1.5, 3))
    f = exp(xs[0] * xs[1]) / sqrt(xs[2]) + log(xs[1] + xs[2] * xs[2])
    assert np.allclose(f.d2, f.d2.T)
    for perm in [(1, 0, 2), (2, 1, 0), (0, 2, 1)]:
        assert np.allclose(f.d3, f.d3.transpose(perm))


def test_division_and_power():
    t = Taylor.var(1.5)
    f = (t ** 3 + 1.0) / (2.0 - t)
    def g(s):
        return (s**3 + 1) / (2 - s)
    assert f.v == pytest.approx(g(1.5))
    assert f.d1 == pytest.approx(fd4(g, 1.5), abs=1e-7)
    x = Jet.seed([1.5])[0]
    ref = (x ** 3 + 1.0) / (2.0 - x)
    assert f.d2 == pytest.approx(ref.d2[0, 0], rel=1e-12)
    assert (t ** -2).v == pytest.approx(1.5 ** -2)


def test_jet_derivative_is_jet_evaluable():
    def a(t):
        return exp(t) * t + 1.0

    # the derivative series of a: value and first derivative of a'
    ap = a(Taylor.var(0.5)).derivative()
    assert ap.v == pytest.approx(np.exp(0.5) * 1.5)
    assert ap.d1 == pytest.approx(np.exp(0.5) * 2.5)
    # its second derivative would need a''' and is unknown, never a finite guess
    assert math.isnan(ap.d2)
    # it takes part in further jet arithmetic: (a'^2)' = 2 a' a''
    assert (ap * ap).d1 == pytest.approx(2 * ap.v * ap.d1)


def _bits(j):
    # value and first derivatives as raw bytes, so -0.0 and +0.0 differ
    return np.float64(j.v).tobytes(), j.d1.tobytes()


FIRST_ORDER_OPS = {
    "add_const": lambda x, y: x + 2.5,
    "radd_const": lambda x, y: 2.5 + x,
    "sub_const": lambda x, y: x - 2.5,
    "rsub_const": lambda x, y: 2.5 - x,
    "add_jet": lambda x, y: x + y,
    "sub_jet": lambda x, y: x - y,
    "neg": lambda x, y: -x,
    # the constant turns the -0.0 partial of -x into +0.0
    "neg_add_const": lambda x, y: -x + 1.0,
    "mul_scalar": lambda x, y: 3.0 * x,
    "rmul_scalar": lambda x, y: x * -0.5,
    "mul_jet": lambda x, y: x * y,
    "div_jet": lambda x, y: x / y,
    "div_const": lambda x, y: x / 3.0,
    "rdiv_const": lambda x, y: 2.0 / x,
    "reciprocal": lambda x, y: (x * y).reciprocal(),
    "pow_int": lambda x, y: (x + y) ** 3,
    "pow_neg_int": lambda x, y: (x - y) ** -2,
    "pow_float": lambda x, y: (x * y) ** 1.5,
    "sqrt": lambda x, y: sqrt(x * x + y),
    "exp": lambda x, y: exp(x - y),
    "log": lambda x, y: log(x + y * y),
    "space_form": lambda x, y: 1.0 / ((1.0 + 0.25 * x * x + 0.25 * y * y) ** 2),
}


@pytest.mark.parametrize("op", FIRST_ORDER_OPS.values(), ids=FIRST_ORDER_OPS.keys())
def test_first_order_jets_match_the_leading_orders_bit_for_bit(op):
    p = [0.7, 1.3]
    low, full = op(*Jet.seed(p, 1)), op(*Jet.seed(p, 3))
    assert (low.order, low.d2, low.d3) == (1, None, None)
    assert full.order == 3 and full.d3.shape == (2, 2, 2)
    assert _bits(low) == _bits(full)


def test_first_order_constant_sum_has_no_negative_zero():
    x, _ = Jet.seed([0.7, 1.3], 1)
    assert np.signbit((-x).d1[1]) and not np.signbit((-x + 1.0).d1[1])


def test_jets_of_different_orders_do_not_combine():
    a, b = Jet.seed([0.5], 1)[0], Jet.seed([0.5], 3)[0]
    for op in (lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t, lambda s, t: s / t):
        with pytest.raises(ValueError, match="orders 1 and 3"):
            op(a, b)
        with pytest.raises(ValueError, match="orders 3 and 1"):
            op(b, a)
    for order in (0, 2, 4):
        with pytest.raises(ValueError, match="order must be 1 or 3"):
            Jet.seed([0.5], order)


def test_a_taylor_series_carries_the_value_and_two_derivatives():
    t = Taylor.var(0.5)
    f = exp(sqrt(t) * log(t + 2.0)) / (1.0 + t) ** 1.5
    assert Taylor.__slots__ == ("v", "d1", "d2") and f.order == 2
    x = Jet.seed([0.5])[0]
    ref = exp(sqrt(x) * log(x + 2.0)) / (1.0 + x) ** 1.5
    assert (f.v, f.d1, f.d2) == (ref.v, ref.d1[0], ref.d2[0, 0])


def test_first_order_jets_take_no_power_above_the_second(monkeypatch):
    # an order-1 jet reads only f' of reciprocal, sqrt, log and **, whose powers of the
    # value stop at u^2; the third and fourth powers are in the higher factors
    exponents = []
    pow_ = jets._pow

    def counted(u, p):
        exponents.append(p)
        return pow_(u, p)

    monkeypatch.setattr(jets, "_pow", counted)
    x = np.array([[0.1, -0.2], [0.3, 0.05]])
    first = bg.SpaceForm(1.0, 2).derivatives(x, 1)
    assert exponents and max(exponents) < 3
    exponents.clear()
    full = bg.SpaceForm(1.0, 2).derivatives(x, 3)
    assert max(exponents) >= 3
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, full))
    exponents.clear()
    u, v = Jet.seed([0.7, 1.3], 1)
    sqrt(u * v), log(u + v), (u * v) ** 1.5, (u * v).reciprocal()
    assert max(exponents) < 3

import math

import numpy as np
import pytest

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
    # third order against the general Jet seeded in one variable
    x = Jet.seed([t0])[0]
    assert j.d3 == pytest.approx(func(x * x + 0.5).d3[0, 0, 0], rel=1e-12)


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
    assert [f.d2, f.d3] == pytest.approx([ref.d2[0, 0], ref.d3[0, 0, 0]], rel=1e-12)
    assert (t ** -2).v == pytest.approx(1.5 ** -2)


def test_jet_derivative_is_jet_evaluable():
    def a(t):
        return exp(t) * t + 1.0

    # the derivative series of a: value and first derivative of a'
    ap = a(Taylor.var(0.5)).derivative()
    assert ap.v == pytest.approx(np.exp(0.5) * 1.5)
    assert ap.d1 == pytest.approx(np.exp(0.5) * 2.5)
    assert ap.d2 == pytest.approx(np.exp(0.5) * 3.5)
    # its third derivative would need a'''' and is unknown, never a finite guess
    assert math.isnan(ap.d3)
    # it takes part in further jet arithmetic: (a'^2)' = 2 a' a''
    assert (ap * ap).d1 == pytest.approx(2 * ap.v * ap.d1)

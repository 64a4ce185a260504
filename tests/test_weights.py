"""Weight families, derived coefficients, and the closure/integrability laws."""

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from tbgeom import weights as wt
from tbgeom.jets import Jet
from sampling import sample_domain


def fd(f, t, h=1e-6):
    return (f(t + h) - f(t - h)) / (2 * h)


def flatness_residual(pair, t):
    """Residual of the flatness relation t (a')^2 + 2 a a' - 2 a b = 0."""
    w = pair.eval(t)
    return w.t * w.ap**2 + 2 * w.a * w.ap - 2 * w.a * w.b


ALL_FAMILIES = [
    wt.named_family("sasaki"),
    wt.named_family("cheeger_gromoll"),
    wt.named_family("g1"),
    wt.named_family("lck_example", c=1.0, k=1.0),
    wt.named_family("scal_a23"),
    wt.named_family("scal_exp", m=2),
    wt.named_family("scal_band", k=0.5, c=1.0, m=2),
    wt.named_family("scal_t2", k=0.3, c=1.0, m=2),
    wt.named_family("flat_power", a0=1.0, k=2.0),
    wt.named_family("flat_exp", a0=2.0),
    wt.kahler_family(1, c=1.0, kappa=-1.0),
    wt.kahler_family(2, c=-1.0, kappa=2.0),
    wt.almost_kahler_complete(lambda t: wt.exp(t)),
]


# every family, an almost-Kahler completion and both kinds of spec function
STACKED = ALL_FAMILIES + [
    wt.almost_kahler_complete(lambda t: 1 + t),
    wt.weights_from_spec({"a": {"poly": [1.0, 0.5, 0.25]}, "b": {"poly": [0.2, -0.1]}}),
    wt.weights_from_spec({"a": {"exp_poly": [0.1, -0.3]}, "b": {"exp_poly": [-1.0, 0.2, 0.05]}}),
]


@pytest.mark.parametrize("pair", STACKED, ids=[f"{p.name}-{i}" for i, p in enumerate(STACKED)])
def test_eval_on_an_array_matches_each_float_evaluation_bit_for_bit(pair):
    t = sample_domain(pair, np.random.default_rng(5), 64)
    stacked = pair.eval(t)
    for f in fields(wt.WeightValues):
        column = getattr(stacked, f.name)
        assert column.shape == t.shape, f.name
        for i, ti in enumerate(t):
            assert float(column[i]).hex() == float(getattr(pair.eval(ti), f.name)).hex(), f.name


@pytest.mark.parametrize("pair,bad,match", [
    (wt.named_family("g1"), -0.25, "outside domain"),
    (wt.kahler_family(2, c=1.0, kappa=-1.0), 1.5, "outside domain"),
    (wt.named_family("scal_exp", m=2), 0.0, "outside domain"),
    (wt.WeightPair(lambda t: 1 - t, lambda t: 0.0), 2.0, r"a\(t\)=-1.0 <= 0 at t=2.0"),
    (wt.WeightPair(lambda t: 1.0, lambda t: -t), 1.0, r"a\+2tb=-1.0 <= 0 at t=1.0"),
])
def test_eval_on_an_array_rejects_one_bad_t(pair, bad, match):
    # the stacked error names the bad entry as the float evaluation does, and
    # no NaN is formed on the way
    t = np.array([0.25, 0.5, bad, 0.75])
    with pytest.raises(wt.WeightDomainError, match=match) as single:
        pair.eval(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wt.WeightDomainError) as stacked:
            pair.eval(t)
    assert str(stacked.value) == str(single.value)


def test_sasaki_coefficients_vanish():
    d = wt.derived_coeffs(wt.named_family("sasaki"), 0.8)
    assert (d.L, d.M, d.N) == (0.0, 0.0, 0.0)
    assert (d.F1, d.F2, d.F3) == (0.0, 0.0, 0.0)
    assert d.A_coef == 0.0 and d.B_coef == 0.0 and d.lee_coef == 0.0


def test_cheeger_gromoll_coefficients_at_half():
    d = wt.derived_coeffs(wt.named_family("cheeger_gromoll"), 0.5)
    assert d.L == pytest.approx(-0.5, abs=1e-14)
    assert d.M == pytest.approx(0.75, abs=1e-14)
    assert d.N == pytest.approx(0.25, abs=1e-14)
    assert d.F1 == pytest.approx(1 / 8, abs=1e-14)
    assert d.F2 == pytest.approx(-7 / 8, abs=1e-14)
    assert d.F3 == pytest.approx(0.5, abs=1e-14)


def test_g1_coefficients():
    g1 = wt.named_family("g1")
    for t in (0.1, 0.7, 2.3):
        s = math.sqrt(1 + 2 * t)
        d = wt.derived_coeffs(g1, t)
        assert d.L == pytest.approx(1 / (1 + s), rel=1e-12)
        assert d.M == pytest.approx(1 / (1 + 2 * t + s), rel=1e-12)
        # sign corrected from the defining formula: N = -L/(1+2t) when b = a
        assert d.N == pytest.approx(-1 / ((1 + 2 * t) * (1 + s)), rel=1e-12)
        for f in (d.F1, d.F2, d.F3):
            assert abs(f) <= 1e-14


@pytest.mark.parametrize("pair", ALL_FAMILIES, ids=lambda p: p.name)
def test_positivity_on_domain(pair):
    rng = np.random.default_rng(0)
    for t in sample_domain(pair, rng, 50):
        vals = pair.eval(t)
        assert vals.a > 0
        assert vals.vertical_norm_weight > 0


@pytest.mark.parametrize("pair", ALL_FAMILIES, ids=lambda p: p.name)
def test_derivatives_match_central_differences(pair):
    rng = np.random.default_rng(1)
    for t in sample_domain(pair, rng, 8, t_max=2.0):
        if t < 1e-4:
            continue
        vals = pair.eval(t)
        a = lambda s: pair.eval(s).a
        b = lambda s: pair.eval(s).b
        assert vals.ap == pytest.approx(fd(a, t), abs=1e-6 * max(1, abs(vals.ap)))
        assert vals.bp == pytest.approx(fd(b, t), abs=1e-5 * max(1, abs(vals.bp)))


@pytest.mark.parametrize("pair", ALL_FAMILIES, ids=lambda p: p.name)
def test_eval_matches_multivariate_jet(pair):
    # the univariate Taylor path against the general Jet seeded in one variable
    def series(f, tj, order):
        fj = f(tj)
        if not isinstance(fj, Jet):
            return [float(fj)] + [0.0] * order
        return [fj.v, fj.d1[0], fj.d2[0, 0]][: order + 1]

    rng = np.random.default_rng(4)
    for t in sample_domain(pair, rng, 10):
        vals = pair.eval(t)
        tj = Jet.seed([t])[0]
        assert [vals.a, vals.ap, vals.app] == pytest.approx(series(pair.a, tj, 2), rel=1e-12)
        assert [vals.b, vals.bp] == pytest.approx(series(pair.b, tj, 1), rel=1e-12)


@pytest.mark.parametrize("name", ["cheeger_gromoll", "g1", "lck_example"])
def test_eval_reads_one_series_when_b_is_a(name):
    shared = wt.named_family(name)
    assert shared.b is shared.a
    calls = []

    def counted(t):
        calls.append(t)
        return shared.a(t)

    once = wt.WeightPair(counted, counted, shared.epsilon, shared.t_domain, name)
    twice = wt.WeightPair(counted, lambda t: counted(t), shared.epsilon, shared.t_domain, name)
    for t in (0.0, 0.3, 1.7):
        calls.clear()
        vals = once.eval(t)
        assert len(calls) == 1
        assert vals == twice.eval(t) == shared.eval(t)
        assert len(calls) == 3


def test_ab_coefficients_stable_at_zero():
    cg = wt.named_family("cheeger_gromoll")
    d0 = wt.derived_coeffs(cg, 0.0)
    # rationalized forms: A(0) = b/(2 a^{3/2}), B(0) = -b/(2 sqrt a) with a=b=1
    assert d0.A_coef == pytest.approx(0.5)
    assert d0.B_coef == pytest.approx(-0.5)
    d = wt.derived_coeffs(cg, 1e-9)
    assert d.A_coef == pytest.approx(d0.A_coef, abs=1e-8)


def test_eps_plus_one_rejects_zero_section():
    pair = wt.WeightPair(lambda t: 1.0, lambda t: 0.1, epsilon=+1)
    with pytest.raises(wt.WeightDomainError):
        wt.derived_coeffs(pair, 0.0)


def test_almost_kahler_complete_sasaki_case():
    pair = wt.almost_kahler_complete(lambda t: 1.0, epsilon=-1)
    for t in (0.0, 0.5, 2.0):
        assert pair.eval(t).b == pytest.approx(0.0, abs=1e-15)


def test_almost_kahler_complete_closure():
    pair = wt.almost_kahler_complete(lambda t: 1.0 + t, epsilon=-1)
    # closure fixes b = a'(1 + t a'/(2a)); at t = 1 that is 1 + 1/4
    assert pair.eval(1.0).b == pytest.approx(1.25, rel=1e-12)
    assert pair.b(1.0) == pytest.approx(1.25, rel=1e-12)
    for t in np.linspace(0.0, 3.0, 25):
        assert abs(wt.derived_coeffs(pair, t).lee_coef) <= 1e-10


def test_almost_kahler_complete_accepts_decreasing_a():
    # the closure precondition for eps=-1 is (t a)' > 0, not a' > 0; the
    # decreasing 1/(1+2t) profile still admits a closed completion
    pair = wt.almost_kahler_complete(lambda t: 1.0 / (1.0 + 2.0 * t), epsilon=-1)
    for t in (0.0, 0.4, 1.3):
        assert abs(wt.derived_coeffs(pair, t).lee_coef) <= 1e-12
        assert pair.eval(t).vertical_norm_weight > 0


def test_almost_kahler_complete_preconditions():
    # eps=-1 needs t*a increasing; a = exp(-3t) violates it beyond t = 1/3
    from tbgeom.jets import exp

    with pytest.raises(wt.WeightDomainError):
        wt.almost_kahler_complete(lambda t: exp(-3.0 * t), epsilon=-1)
    # eps=+1 needs t*a decreasing; a = 1 + t violates it everywhere
    with pytest.raises(wt.WeightDomainError):
        wt.almost_kahler_complete(lambda t: 1.0 + t, epsilon=+1)


def test_kahler_family_case2_values_at_zero():
    pair = wt.kahler_family(2, c=-1.0, kappa=2.0)
    vals = pair.eval(0.0)
    assert vals.a == pytest.approx(0.25, rel=1e-14)
    assert vals.b == pytest.approx(-0.25, rel=1e-14)


def test_kahler_family_case1_domain_excludes_origin():
    pair = wt.kahler_family(1, c=1.0, kappa=-1.0)
    assert not pair.contains(0.0)
    with pytest.raises(wt.WeightDomainError):
        pair.eval(0.0)
    assert pair.eval(0.5).a > 0


def test_kahler_family_system_residuals():
    for case, c, kappa in [(2, -1.0, 2.0), (1, 1.0, -1.0)]:
        pair = wt.kahler_family(case, c, kappa)
        rng = np.random.default_rng(2)
        for t in sample_domain(pair, rng, 50):
            r13, r14 = wt.kahler_system_residuals(pair, t, c)
            assert abs(r13) <= 1e-10
            assert abs(r14) <= 1e-10
    r13, r14 = wt.kahler_system_residuals(wt.kahler_family(2, -1.0, 2.0), 0.2, -1.0)
    assert abs(r13) <= 1e-12 and abs(r14) <= 1e-12


def test_kahler_family_bad_parameters():
    with pytest.raises(wt.WeightDomainError):
        wt.kahler_family(1, c=-1.0, kappa=-1.0)
    with pytest.raises(wt.WeightDomainError):
        wt.kahler_family(2, c=-1.0, kappa=-2.0)


def test_named_family_values():
    sas = wt.named_family("sasaki")
    assert sas.eval(1.7).a == 1.0 and sas.eval(1.7).b == 0.0 and sas.epsilon == -1
    cg = wt.named_family("cheeger_gromoll")
    v = cg.eval(1.0)
    assert v.a == pytest.approx(1 / 3) and v.b == pytest.approx(1 / 3)
    with pytest.raises(wt.WeightDomainError):
        wt.named_family("not_a_family")


def test_flat_power_family():
    fp = wt.named_family("flat_power", a0=1.0, k=2.0)
    v = fp.eval(1.0)
    assert v.a == pytest.approx(1.0, rel=1e-12)  # t^2 at t=1
    assert v.b == pytest.approx(4.0, rel=1e-12)  # k a' = 2 * 2t
    assert abs(flatness_residual(fp, 1.0)) <= 1e-12


@pytest.mark.parametrize("name,params", [
    ("g1", {}),
    ("flat_power", {"a0": 1.0, "k": 2.0}),
    ("flat_power", {"a0": 0.5, "k": -1.0}),
    ("flat_exp", {"a0": 2.0}),
])
def test_flat_families_satisfy_flatness_relation(name, params):
    pair = wt.named_family(name, **params)
    rng = np.random.default_rng(3)
    for t in sample_domain(pair, rng, 20, t_max=2.5):
        v = pair.eval(t)
        scale = max(1.0, abs(2 * v.a * v.b))
        assert abs(flatness_residual(pair, t)) <= 1e-12 * scale


def test_integrability_constant():
    sas = wt.named_family("sasaki")
    for t in (0.2, 1.0):
        assert wt.integrability_constant(sas, t) == pytest.approx(0.0, abs=1e-15)
    lck = wt.named_family("lck_example", c=1.0, k=1.0)
    for t in (0.1, 0.5, 1.0):
        assert wt.integrability_constant(lck, t) == pytest.approx(1.0, abs=1e-9)
    k2 = wt.kahler_family(2, c=-1.0, kappa=2.0)
    for t in (0.05, 0.1, 0.2):
        assert wt.integrability_constant(k2, t) == pytest.approx(-1.0, abs=1e-9)


def test_scal_t2_domain_bound():
    pair = wt.named_family("scal_t2", k=0.3, c=1.0, m=2)
    t2 = pair.t_domain[1]
    assert t2 > 0
    # a + 2tb = m(2+m)/D(t) must blow up at the boundary and stay positive inside
    assert pair.eval(0.98 * t2).vertical_norm_weight > 0
    with pytest.raises(wt.WeightDomainError):
        pair.eval(1.01 * t2)


def test_weights_from_spec():
    pair = wt.weights_from_spec({"name": "cheeger_gromoll"})
    assert pair.name == "cheeger_gromoll"
    custom = wt.weights_from_spec(
        {"a": {"poly": [1.0, 0.5]}, "b": {"exp_poly": [0.0, -1.0]}, "epsilon": -1}
    )
    assert custom.eval(2.0).a == pytest.approx(2.0)
    assert custom.eval(2.0).b == pytest.approx(math.exp(-2.0))
    with pytest.raises(wt.WeightDomainError):
        wt.weights_from_spec({"a": {"nope": []}, "b": {"poly": [0.0]}})

import numpy as np
import pytest

from tbgeom import base_geometry as bg
from tbgeom import oracle as orc

from sampling import reference_base_jets

EUCLID2 = bg.euclidean(2)
DIAG_POLY = bg.diagonal_polynomial(
    2,
    [
        [{"c": 1.0, "powers": [0, 0]}],
        [{"c": 1.0, "powers": [0, 0]}, {"c": 1.0, "powers": [2, 0]}],
    ],
)


def sectional(metric, x, X, Y):
    # sectional curvature of span(X, Y) at x, from the metric and its curvature there
    return bg._sectional(metric.matrix(x), bg.curvature(metric, x), X, Y)


def space_form_identity(metric, x):
    g = metric.matrix(x)
    m = metric.dim
    c = metric.curvature
    eye = np.eye(m)
    return c * (np.einsum("jl,hi->hlij", g, eye) - np.einsum("il,hj->hlij", g, eye))


def test_christoffel_euclidean_vanishes():
    assert np.max(np.abs(bg.christoffel(EUCLID2, [0.3, -0.7]))) == 0.0


def test_christoffel_spaceform_origin_vanishes():
    sf = bg.SpaceForm(4.0, 2)
    assert np.max(np.abs(bg.christoffel(sf, [0.0, 0.0]))) == 0.0


def test_christoffel_matches_finite_differences():
    sf = bg.SpaceForm(1.0, 2)
    x = np.array([0.3, 0.4])
    diff = bg.christoffel(sf, x) - orc.fd_connection(sf, x, h=1e-5)
    assert np.max(np.abs(diff)) <= 1e-8


def test_christoffel_and_oracle_match_the_exact_conformal_connection():
    # g = exp(2 phi) delta with phi = -log(1 + c |x|^2 / 4): Gamma^k_ij = d_ik d_j phi +
    # d_jk d_i phi - d_ij d_k phi, here near the edge |x| < 2 of the c = -1 chart
    c, x = -1.0, np.array([1.4, 1.42])
    assert np.linalg.norm(x) >= 1.99
    dphi, e = -(c * x / 2) / (1 + c * (x @ x) / 4), np.eye(2)
    exact = (e.T[:, :, None] * dphi[None, None, :] + e[:, None, :] * dphi[None, :, None]
             - e[None, :, :] * dphi[:, None, None])
    assert np.max(np.abs(exact)) > 100
    sf = bg.SpaceForm(c, 2)
    assert np.max(np.abs(bg.christoffel(sf, x) - exact)) <= 1e-10
    assert np.max(np.abs(orc.fd_connection(sf, x, h=1e-5) - exact)) <= 1e-6


def test_christoffel_symmetric_lower_indices():
    rng = np.random.default_rng(1)
    for metric in (bg.SpaceForm(-1.0, 3), DIAG_POLY):
        x = rng.uniform(-0.4, 0.4, metric.dim)
        gam = bg.christoffel(metric, x)
        assert np.max(np.abs(gam - gam.transpose(0, 2, 1))) == 0.0


def test_curvature_flat_base():
    assert np.max(np.abs(bg.curvature(EUCLID2, [0.1, 0.9]))) == 0.0


def test_curvature_space_form_identity():
    rng = np.random.default_rng(2)
    sf = bg.SpaceForm(-1.0, 3)
    for _ in range(5):
        x = rng.uniform(-0.3, 0.3, 3)
        R = bg.curvature(sf, x)
        assert np.max(np.abs(R - space_form_identity(sf, x))) <= 1e-7


def test_sectional_space_forms():
    sf = bg.SpaceForm(1.0, 2)
    x = np.array([0.3, 0.4])
    assert sectional(sf, x, [1.0, 0.0], [0.3, 1.0]) == pytest.approx(1.0, abs=1e-7)
    sf25 = bg.SpaceForm(2.5, 3)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-0.3, 0.3, 3)
        X, Y = rng.standard_normal(3), rng.standard_normal(3)
        assert sectional(sf25, x, X, Y) == pytest.approx(2.5, abs=1e-6)


def test_sectional_scaling_invariance_and_flat():
    x = np.array([0.2, -0.1])
    X, Y = np.array([1.0, 0.5]), np.array([-0.2, 0.8])
    assert sectional(EUCLID2, x, X, Y) == 0.0
    sf = bg.SpaceForm(-1.0, 2)
    assert sectional(sf, x, 2.0 * X, Y) == pytest.approx(
        sectional(sf, x, X, Y), rel=1e-14
    )


def test_sectional_degenerate_plane_raises():
    with pytest.raises(bg.DegeneratePlaneError):
        sectional(EUCLID2, [0.0, 0.0], [1.0, 0.0], [2.0, 0.0])


def test_curvature_symmetries_and_first_bianchi():
    rng = np.random.default_rng(4)
    for metric in (bg.SpaceForm(1.5, 3), DIAG_POLY):
        x = rng.uniform(-0.3, 0.3, metric.dim)
        g = metric.matrix(x)
        R = bg.curvature(metric, x)
        low = bg.lower_curvature(g, R)
        assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) <= 1e-9
        assert np.max(np.abs(low + low.transpose(1, 0, 2, 3))) <= 1e-9
        assert np.max(np.abs(low - low.transpose(2, 3, 0, 1))) <= 1e-9
        cyc = R + R.transpose(0, 3, 1, 2) + R.transpose(0, 2, 3, 1)
        assert np.max(np.abs(cyc)) <= 1e-9


def test_nabla_curvature_locally_symmetric_spaces():
    rng = np.random.default_rng(5)
    for c in (-1.0, 2.0):
        sf = bg.SpaceForm(c, 2)
        x = rng.uniform(-0.3, 0.3, 2)
        assert np.max(np.abs(bg.nabla_curvature(sf, x))) <= 1e-6
    assert np.max(np.abs(bg.nabla_curvature(EUCLID2, [0.4, 0.1]))) == 0.0


def test_nabla_curvature_against_finite_differences():
    # product-like metric diag(1, 1 + x1^2) at (0.2, 0)
    x = np.array([0.2, 0.0])
    metric = DIAG_POLY
    gam = bg.christoffel(metric, x)
    R0 = bg.curvature(metric, x)
    m, h = 2, 1e-4
    dR = np.zeros((m, m, m, m, m))
    for l in range(m):
        e = np.zeros(m)
        e[l] = h
        dR[l] = (bg.curvature(metric, x + e) - bg.curvature(metric, x - e)) / (2 * h)
    fd = (
        dR
        + np.einsum("hlp,pkij->lhkij", gam, R0)
        - np.einsum("plk,hpij->lhkij", gam, R0)
        - np.einsum("pli,hkpj->lhkij", gam, R0)
        - np.einsum("plj,hkip->lhkij", gam, R0)
    )
    assert np.max(np.abs(bg.nabla_curvature(metric, x) - fd)) <= 1e-5


def test_second_bianchi():
    rng = np.random.default_rng(6)
    x = rng.uniform(-0.3, 0.3, 2)
    NR = bg.nabla_curvature(DIAG_POLY, x)
    cyc = NR + NR.transpose(4, 1, 2, 0, 3) + NR.transpose(3, 1, 2, 4, 0)
    assert np.max(np.abs(cyc)) <= 1e-9


def test_curvature_matches_nested_finite_differences():
    sf = bg.SpaceForm(1.0, 2)
    x = np.array([0.25, -0.15])
    diff = bg.curvature(sf, x) - orc.fd_curvature(sf, x)
    assert np.max(np.abs(diff)) <= 1e-6


DIAG_POLY3 = bg.diagonal_polynomial(
    3,
    [
        [{"c": 1.0, "powers": [0, 0, 0]}, {"c": 0.5, "powers": [0, 2, 0]}],
        [{"c": 2.0, "powers": [0, 0, 0]}, {"c": -0.3, "powers": [1, 0, 1]}],
        [{"c": 1.0, "powers": [0, 0, 0]}, {"c": 0.2, "powers": [3, 1, 0]}],
    ],
)
ORDER_METRICS = [bg.SpaceForm(c, m) for c in (1.0, 0.0, -1.0) for m in (2, 3)] + [DIAG_POLY3]


@pytest.mark.parametrize("metric", ORDER_METRICS, ids=lambda mt: f"{mt.name}-{mt.dim}")
def test_first_order_derivatives_are_the_leading_arrays(metric):
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = rng.uniform(-0.6, 0.6, metric.dim)
        low, full = metric.derivatives(x, 1), metric.derivatives(x)
        assert len(low) == 2 and len(full) == 4
        for a, b in zip(low, full):
            assert a.tobytes() == b.tobytes()
        # g from the jets is the plain evaluation, bit for bit
        assert low[0].tobytes() == metric.matrix(x).tobytes()


@pytest.mark.parametrize("order", [0, 2, 4])
def test_derivatives_reject_other_orders(order):
    with pytest.raises(ValueError, match="order must be 1 or 3"):
        bg.SpaceForm(1.0, 2).derivatives([0.1, 0.2], order)


def test_chart_domain_violation_is_hard_error():
    sf = bg.SpaceForm(-4.0, 2)  # domain |x|^2 < 1
    with pytest.raises(bg.ChartDomainError):
        sf.matrix([1.5, 0.0])
    # a stack is tested by one call of the domain predicate, and the error names its
    # first point outside
    calls = []
    domain = sf.domain
    sf.domain = lambda x: calls.append(np.shape(x)) or domain(x)
    stack = np.array([[0.1, 0.2], [0.0, 1.5], [2.0, 0.0]])
    with pytest.raises(bg.ChartDomainError, match=r"point \[0\.  1\.5\] outside"):
        sf.matrix(stack)
    assert calls == [(3, 2)]
    assert sf.check_domain(stack[:1]).shape == (1, 2)


@pytest.mark.parametrize("metric", [*ORDER_METRICS, DIAG_POLY],
                         ids=lambda mt: f"{mt.name}-{mt.dim}")
def test_matrix_on_a_stack_equals_each_single_call_bit_for_bit(metric):
    x = np.random.default_rng(metric.dim).uniform(-0.4, 0.4, (9, metric.dim))
    x[1] = x[0]  # a repeated point
    g = metric.matrix(x)
    assert g.shape == (9, metric.dim, metric.dim)
    for xi, gi in zip(x, g):
        assert [v.hex() for v in gi.ravel().tolist()] == [
            v.hex() for v in metric.matrix(xi).ravel().tolist()]


def test_singular_metric_error_names_point():
    bad = bg.ChartMetric(2, lambda xs: [[xs[0], 0.0], [0.0, 1.0]], name="bad")
    with pytest.raises(bg.SingularMetricError) as err:
        bad.validate_at([0.0, 1.0])
    assert "0" in str(err.value)


def test_metric_from_spec_roundtrip():
    sf = bg.metric_from_spec(
        {"dim": 3, "kind": "space_form", "params": {"curvature": -1.0}}
    )
    assert isinstance(sf, bg.SpaceForm) and sf.curvature == -1.0
    dp = bg.metric_from_spec(
        {
            "dim": 2,
            "kind": "diagonal_polynomial",
            "params": {
                "entries": [
                    [{"c": 1.0, "powers": [0, 0]}],
                    [{"c": 1.0, "powers": [0, 0]}, {"c": 1.0, "powers": [2, 0]}],
                ]
            },
        }
    )
    assert dp.matrix([0.2, 0.0])[1, 1] == pytest.approx(1.04)
    with pytest.raises(bg.GeometryError):
        bg.metric_from_spec({"dim": 2, "kind": "nope"})


@pytest.mark.parametrize("metric", [DIAG_POLY, DIAG_POLY3], ids=["m2", "m3"])
def test_base_jets_agree_with_the_einsum_reference(metric):
    # the matrix-product kernels sum in another order than the full-index einsum forms
    rng = np.random.default_rng(metric.dim)
    x = rng.uniform(-0.6, 0.6, (5, metric.dim))
    for at in (x, x[0]):
        got, want = bg.base_jets(metric, at), reference_base_jets(metric, at)
        assert np.abs(want[2]).max() > 0.1  # nabla R does not vanish on this base
        for name, a, b in zip(("Gamma", "R", "nabla R"), got, want):
            assert a.shape == b.shape
            assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b))), name

"""Stacked base jets: every row of a stacked evaluation is its single call.

``ChartMetric.derivatives``, ``base_geometry._metric_and_christoffel`` and
``oracle.InducedMetric.matrix`` take an (n, m) stack of points (n, 2m for the
induced metric) and evaluate it in one pass over stacked jets.  Each row must
equal the single-point call byte for byte, with repeated points and rows
that share x, and a bad row must raise the single call's error, naming its
own point.
"""

import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tbgeom import base_geometry as bg  # noqa: E402
from tbgeom import oracle as orc  # noqa: E402
from tbgeom.weights import named_family  # noqa: E402

DIAG_POLY3 = bg.diagonal_polynomial(
    3,
    [
        [{"c": 1.0, "powers": [0, 0, 0]}, {"c": 0.5, "powers": [0, 2, 0]}],
        [{"c": 2.0, "powers": [0, 0, 0]}, {"c": -0.3, "powers": [1, 0, 1]}],
        [{"c": 1.0, "powers": [0, 0, 0]}, {"c": 0.2, "powers": [3, 1, 0]}],
    ],
)
METRICS = [bg.SpaceForm(c, m) for c in (-1.0, 0.0, 0.5, 1.0) for m in (2, 3, 4)] + [DIAG_POLY3]
WEIGHTS = [named_family(name) for name in ("cheeger_gromoll", "g1", "sasaki")]
COORD = st.floats(-0.6, 0.6, allow_nan=False, allow_infinity=False)


def vectors(m, size):
    return st.lists(st.lists(COORD, min_size=m, max_size=m), min_size=1, max_size=size)


@st.composite
def stacks(draw):
    """A metric and a stack of (x, y) rows drawn from small pools, so that rows
    repeat and several rows share one x."""
    metric = draw(st.sampled_from(METRICS))
    m = metric.dim
    xs, ys = draw(vectors(m, 4)), draw(vectors(m, 3))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(xs) - 1), st.integers(0, len(ys) - 1)),
                          min_size=1, max_size=9))
    return metric, np.array([xs[i] + ys[j] for i, j in pairs])


@settings(max_examples=80, deadline=None)
@given(stacks(), st.sampled_from(WEIGHTS))
def test_stacked_rows_equal_single_calls_byte_for_byte(stack, w):
    metric, q = stack
    m = metric.dim
    x = q[:, :m]
    for order in (1, 3):
        stacked = metric.derivatives(x, order)
        assert [a.shape[0] for a in stacked] == [len(x)] * (order + 1)
        for k, xk in enumerate(x):
            for a, b in zip(stacked, metric.derivatives(xk, order)):
                assert a[k].tobytes() == b.tobytes()
    g, gamma = bg._metric_and_christoffel(metric, x)
    G = orc.InducedMetric(metric, w).matrix(q)
    for k, (xk, qk) in enumerate(zip(x, q)):
        gk, gammak = bg._metric_and_christoffel(metric, xk)
        assert g[k].tobytes() == gk.tobytes() and gamma[k].tobytes() == gammak.tobytes()
        assert G[k].tobytes() == orc.InducedMetric(metric, w).matrix(qk).tobytes()


def named(x):
    # the message fragment that names the point x
    return re.escape(str(np.asarray(x, dtype=float)))


def test_a_stack_outside_the_chart_names_its_bad_row():
    # the curvature -1 chart is the disc |x| < 2
    sf = bg.SpaceForm(-1.0, 2)
    x = np.array([[0.1, 0.2], [0.3, -0.1], [2.5, 0.0], [3.0, 0.0]])
    for call in (lambda: sf.derivatives(x, 1), lambda: sf.derivatives(x, 3),
                 lambda: bg._metric_and_christoffel(sf, x),
                 lambda: orc.InducedMetric(sf, WEIGHTS[0]).matrix(np.hstack([x, x]))):
        with pytest.raises(bg.ChartDomainError, match=named(x[2])):
            call()


def test_a_singular_row_names_its_point():
    # g = diag(x1, 1) is singular on x1 = 0
    base = bg.diagonal_polynomial(
        2, [[{"c": 1.0, "powers": [1, 0]}], [{"c": 1.0, "powers": [0, 0]}]])
    x = np.array([[0.5, 0.1], [0.4, 0.2], [0.0, 0.3], [0.0, 0.7]])
    with pytest.raises(bg.SingularMetricError, match=named(x[2])):
        bg._metric_and_christoffel(base, x)
    with pytest.raises(bg.SingularMetricError, match=named(x[2])):
        orc.InducedMetric(base, WEIGHTS[0]).matrix(np.hstack([x, x]))
    # a negative x1 is invertible but indefinite: the per-row check names it
    x[2, 0] = -0.1
    g = base.derivatives(x, 1)[0]
    with pytest.raises(bg.SingularMetricError, match=named(x[2])):
        base._checked(g, x)

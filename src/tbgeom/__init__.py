"""Numerical geometry of weighted metrics on tangent bundles.

The package constructs the two-weight family of Riemannian metrics on
T(M) together with its compatible almost complex structure and all
derived geometry, and verifies every closed form against an independent
finite-difference coordinate oracle.
"""

from .base_geometry import (
    ChartMetric,
    ChartDomainError,
    DegeneratePlaneError,
    GeometryError,
    SingularMetricError,
    SpaceForm,
    christoffel,
    curvature,
    diagonal_polynomial,
    euclidean,
    metric_from_spec,
    nabla_curvature,
)
from .weights import (
    DerivedCoefficients,
    WeightDomainError,
    WeightPair,
    almost_kahler_complete,
    derived_coeffs,
    integrability_constant,
    kahler_family,
    named_family,
    weights_from_spec,
)
from .tangent_bundle import (
    SplitVector,
    TangentPoint,
    adapted_basis,
    almost_complex,
    area_squared,
    bundle_connection,
    bundle_curvature,
    bundle_curvature_general,
    bundle_metric,
    bundle_sectional,
    kahler_form,
    lee_form,
    nijenhuis,
    scalar_curvature,
    tangent_point,
)
from .oracle import InducedMetric

__version__ = "0.1.0"

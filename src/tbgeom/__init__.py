"""Numerical geometry of weighted metrics on tangent bundles.

The package constructs the two-weight family of Riemannian metrics on
T(M) together with its compatible almost complex structure and all
derived geometry, and verifies every closed form against an independent
finite-difference coordinate oracle.
"""

__version__ = "0.1.0"

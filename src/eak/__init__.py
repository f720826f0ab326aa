"""Exact discrete geometry of rational polytopes.

Computes solid-angle sums, Ehrhart counting functions and their
codimension-one/-two quasi-coefficients in exact rational arithmetic,
with angle values carried symbolically and brute-force oracles for
verification.
"""

from eak.exactval import AngleValue, ExactValue, angle_of_cos_ratio
from eak.polytope import Polytope

__all__ = [
    "AngleValue",
    "ExactValue",
    "Polytope",
    "angle_of_cos_ratio",
]

__version__ = "0.1.0"

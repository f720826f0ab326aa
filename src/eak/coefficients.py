"""Closed-form quasi-coefficients of solid-angle and Ehrhart functions.

The codimension-one coefficients are facet sums of periodized first
Bernoulli polynomials; the codimension-two coefficients add the
transverse-cone data: second Bernoulli terms, a Dedekind-Rademacher
sum, and (for the solid-angle flavor) the exact dihedral angle term.
All evaluations are exact; only the dihedral angles can be irrational,
and they are carried symbolically in :class:`ExactValue`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from eak.bernoulli import is_integer, one_sided_B1, periodized
from eak.dedekind import dr_sum_fast
from eak.exactval import ExactValue, exact_sum
from eak.local_data import (
    CodimTwoData,
    FacetData,
    all_codim2_data,
    all_facet_data,
)
from eak.polytope import Polytope


@dataclass(frozen=True)
class QuasiCoefficient:
    """Evaluable quasi-coefficient: a sum of per-face closed-form terms."""

    kind: str  # one of "a_d1", "a_d2", "e_d1", "e_d2"
    period: int
    terms: tuple  # the per-face local data of P
    term: Callable  # (face data, t) -> that face's summand at t

    def eval(self, t) -> ExactValue:
        t = Fraction(t)
        return exact_sum(self.term(f, t) for f in self.terms)


def _facet_term_a(f: FacetData, t: Fraction) -> Fraction:
    return -f.vol_star * periodized(1, f.x_F_dot * t)


def _facet_term_e(f: FacetData, t: Fraction) -> Fraction:
    return -f.vol_star * one_sided_B1(f.x_F_dot * t, "plus")


def _b2_part(g: CodimTwoData, t: Fraction) -> Fraction:
    """(c_G/2k) ((|v2|/|v1|) B2~(dot1 t) + (|v1|/|v2|) B2~(dot2 t)),
    through the rational regrouping c_G |v2|/|v1| = -<v1,v2>/|v1|^2."""
    coef1 = -g.dot12 / (2 * g.k * g.norm1_sq)
    coef2 = -g.dot12 / (2 * g.k * g.norm2_sq)
    return coef1 * periodized(2, g.dot1 * t) + coef2 * periodized(2, g.dot2 * t)


def _dedekind_part(g: CodimTwoData, t: Fraction) -> Fraction:
    return dr_sum_fast(g.h, g.k, (g.x1 + g.h * g.x2) * t, -g.k * g.x2 * t)


def _codim2_term_a(g: CodimTwoData, t: Fraction) -> ExactValue:
    value = ExactValue.of(_b2_part(g, t) - _dedekind_part(g, t))
    if g.membership_scale(t):
        value = value + ExactValue.angle_turn(g.c_G) - Fraction(1, 4)
    return value * g.vol_star


def _codim2_term_e(g: CodimTwoData, t: Fraction) -> Fraction:
    value = _b2_part(g, t) - _dedekind_part(g, t)
    if is_integer(g.k * g.x1 * t):
        value -= Fraction(1, 2) * periodized(1, (g.h_inv * g.x1 + g.x2) * t)
    if is_integer(g.k * g.x2 * t):
        value -= Fraction(1, 2) * one_sided_B1((g.x1 + g.h * g.x2) * t, "plus")
    return value * g.vol_star


def coeff_a_d1(P: Polytope) -> QuasiCoefficient:
    return QuasiCoefficient("a_d1", P.denominator(), all_facet_data(P), _facet_term_a)


def coeff_e_d1(P: Polytope) -> QuasiCoefficient:
    return QuasiCoefficient("e_d1", P.denominator(), all_facet_data(P), _facet_term_e)


def coeff_a_d2(P: Polytope) -> QuasiCoefficient:
    return QuasiCoefficient("a_d2", P.denominator(), all_codim2_data(P), _codim2_term_a)


def coeff_e_d2(P: Polytope) -> QuasiCoefficient:
    return QuasiCoefficient("e_d2", P.denominator(), all_codim2_data(P), _codim2_term_e)


def recovered_a_d1(P: Polytope, t) -> ExactValue:
    """a_{d-1}(t) reconstructed from Ehrhart data:
    -e_{d-1}(P; -t) + (1/2) sum over facets of vol*(F) 1_Z(<v_F,x_F> t)."""
    t = Fraction(t)
    e_d1 = coeff_e_d1(P)
    value = -e_d1.eval(-t)
    for f in e_d1.terms:
        if is_integer(f.x_F_dot * t):
            value = value + f.vol_star / 2
    return value


def tetrahedron_identity(P: Polytope) -> Fraction:
    """Edge sum that vanishes identically on integer tetrahedra."""
    if P.dim != 3 or len(P.vertices) != 4:
        raise ValueError("integer tetrahedron required")
    if P.denominator() != 1:
        raise ValueError("integer tetrahedron required")
    facets = all_facet_data(P)  # in inequality order, as g.f1 and g.f2 index
    total = Fraction(0)
    for g in all_codim2_data(P):
        vol1, vol2 = facets[g.f1].vol_star, facets[g.f2].vol_star
        # Every summand is rational after regrouping: the cosine terms give
        # c_G |v_1|/|v_2| = -<v_1,v_2>/|v_2|^2, and since the Euclidean
        # facet volume is vol*(F) |v_F| (sublattice determinant identity),
        # the norm factors cancel out of the volume ratios entirely.
        term = (
            -g.dot12 / g.norm2_sq
            - g.dot12 / g.norm1_sq
            - vol2 / (3 * vol1)
            - vol1 / (3 * vol2)
        )
        total += g.vol_star / g.k * term
    return total


@dataclass
class QuasiPolynomialD3:
    """Full degree-3 quasi-polynomial: known top coefficients plus a
    constant term recovered from one exact evaluation per residue class."""

    flavor: str  # "solid-angle" | "ehrhart"
    vol: Fraction
    c2: QuasiCoefficient
    c1: QuasiCoefficient
    base_eval: Callable  # exact A_P or L_P at small dilations
    period: int

    def c0(self, t) -> ExactValue:
        t = Fraction(t)
        if t <= 0:
            raise ValueError("positive t required")
        # representative of t's residue class in (0, period]
        t0 = t - self.period * math.ceil(t / self.period - 1)
        base = self.base_eval(t0)
        if not isinstance(base, ExactValue):
            base = ExactValue.of(base)
        return (
            base
            - ExactValue.of(self.vol * t0**3)
            - self.c2.eval(t0) * t0**2
            - self.c1.eval(t0) * t0
        )

    def value(self, t) -> ExactValue:
        t = Fraction(t)
        return (
            ExactValue.of(self.vol * t**3)
            + self.c2.eval(t) * t**2
            + self.c1.eval(t) * t
            + self.c0(t)
        )


def complete_quasipolynomial_d3(P: Polytope, flavor: str) -> QuasiPolynomialD3:
    if P.dim != 3:
        raise ValueError("three-dimensional polytope required")
    from eak import oracle

    if flavor == "solid-angle":
        c2, c1 = coeff_a_d1(P), coeff_a_d2(P)
        base = lambda t: oracle.solid_angle_sum(P, t)
    elif flavor == "ehrhart":
        c2, c1 = coeff_e_d1(P), coeff_e_d2(P)
        base = lambda t: Fraction(oracle.count_points(P, t))
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return QuasiPolynomialD3(flavor, P.volume(), c2, c1, base, P.denominator())

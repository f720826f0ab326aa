"""Reference facet and codimension-two walks on Fractions.

These are the walks the package used before it evaluated each face over
one integer denominator: every value is a Fraction.  The facet walk sums
relative volumes times periodized B1 values.  In the codimension-two walk
the Dedekind-Rademacher sum comes from ``dr_sum_direct`` on the
normalized arguments, and the B1 corrections and the membership test read
the rational offsets x1 and x2.  The tests compare
``coefficients._facet_walk`` and ``coefficients._codim2_walk`` with them
exactly.  The membership test and the edge-sum identity of integer
tetrahedra are read from the codimension-two data here too.
"""

from __future__ import annotations

from fractions import Fraction

from eak.bernoulli import is_integer, one_sided_B1, periodized
from eak.exactval import ExactValue, exact_sum
from eak.local_data import CodimTwoData, all_codim2_data
from eak.polytope import Polytope
from reference_dedekind import dr_sum_direct, normalize_args


def membership_scale(g: CodimTwoData, t) -> bool:
    """Whether t * xbar_G lies in Lambda_G^*."""
    t = Fraction(t)
    return (t * g.k * g.x2).denominator == 1 and (t * (g.x1 + g.h * g.x2)).denominator == 1


def facet_walk(P: Polytope, t) -> dict[str, ExactValue]:
    """a_{d-1}(t) and e_{d-1}(t), facet by facet in Fractions."""
    t = Fraction(t)
    a = boundary = Fraction(0)
    for (_, b), F in zip(P.inequalities, P.facets()):
        x, vol = b * t, P.relative_volume(F)
        a -= vol * periodized(1, x)
        if is_integer(x):
            boundary += vol
    return {"a_d1": ExactValue.of(a), "e_d1": ExactValue.of(a + boundary / 2)}


def codim2_walk(P: Polytope, t) -> dict[str, ExactValue]:
    """a_{d-2}(t) and e_{d-2}(t), term by term in Fractions."""
    t = Fraction(t)
    shared = quarter = correction = Fraction(0)
    angles = []
    for g in all_codim2_data(P):
        # (c_G/2k) ((|v2|/|v1|) B2~(b1 t) + (|v1|/|v2|) B2~(b2 t)), b_i the
        # offset of F_i, by the rational regrouping c_G |v2|/|v1| = -<v1,v2>/|v1|^2
        s1, s2 = P.inequalities[g.f1][1] * t, P.inequalities[g.f2][1] * t
        b2 = -Fraction(g.dot12) / (2 * g.k) * (
            periodized(2, s1) / g.norm1_sq + periodized(2, s2) / g.norm2_sq
        )
        x, y = (g.x1 + g.h * g.x2) * t, -s1
        shared += (b2 - dr_sum_direct(*normalize_args(g.h, g.k, x, y))) * g.vol_star
        if is_integer(s2):
            correction += periodized(1, (g.h_inv * g.x1 + g.x2) * t) * g.vol_star
        if is_integer(y):
            correction += one_sided_B1(x, "plus") * g.vol_star
        if membership_scale(g, t):
            quarter += g.vol_star
            angles.append(g.omega * g.vol_star)
    a_d2 = exact_sum([shared - quarter / 4, *angles])
    return {"a_d2": a_d2, "e_d2": ExactValue.of(shared - correction / 2)}


def tetrahedron_identity(P: Polytope) -> Fraction:
    """Edge sum that vanishes identically on integer tetrahedra."""
    if P.dim != 3 or len(P.vertices) != 4:
        raise ValueError("integer tetrahedron required")
    if P.denominator() != 1:
        raise ValueError("integer tetrahedron required")
    facets = P.facets()  # in inequality order, as g.f1 and g.f2 index
    total = Fraction(0)
    for g in all_codim2_data(P):
        vol1, vol2 = P.relative_volume(facets[g.f1]), P.relative_volume(facets[g.f2])
        # Every summand is rational after regrouping: the cosine terms give
        # c_G |v_1|/|v_2| = -<v_1,v_2>/|v_2|^2, and since the Euclidean
        # facet volume is vol*(F) |v_F| (sublattice determinant identity),
        # the norm factors cancel out of the volume ratios entirely.
        term = (
            -Fraction(g.dot12, g.norm2_sq)
            - Fraction(g.dot12, g.norm1_sq)
            - vol2 / (3 * vol1)
            - vol1 / (3 * vol2)
        )
        total += g.vol_star / g.k * term
    return total

"""Per-face local parameters of the codimension-two quasi-coefficients.

For a codimension-two face G this is the transverse-cone description,
read from its two facet normals and their offsets alone: the cone type
(h, k), the two offsets as integers over one denominator, from which the
barycentric offsets (x1, x2) follow, and the exact dihedral angle, as a
cosine and, on first use, in turns.  It names its two facets by index,
and a facet needs no record of its own: its normal and offset are
P.inequalities[i] and its relative volume is P.relative_volume(F).  Each
polytope's data is built once, on first use, and kept on it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from eak import linalg
from eak.exactval import AngleValue, ExactValue
from eak.polytope import Face, Polytope


@dataclass(frozen=True)
class CodimTwoData:
    face: Face
    f1: int  # facet indices: (v_Fi, b_i) = P.inequalities[fi], and
    f2: int  # F1 has the lexicographically smaller normal
    norm1_sq: int
    norm2_sq: int
    dot12: int  # <v_F1, v_F2>
    c_G: AngleValue  # cosine of the transverse angle
    k: int
    h: int
    h_inv: int
    den: int  # the lcm of the denominators of b1 and b2
    b1_num: int  # b1 * den
    b2_num: int  # b2 * den
    vol_star: Fraction

    @property
    def x1(self) -> Fraction:
        return Fraction(self.b2_num, self.k * self.den)  # b2 / k

    @property
    def x2(self) -> Fraction:
        return Fraction(self.b1_num, self.k * self.den)  # b1 / k

    @cached_property
    def omega(self) -> ExactValue:
        """The transverse angle in turns, arccos(c_G)/(2pi); only the
        solid-angle flavor reads it."""
        return ExactValue.angle_turn(self.c_G)

    def membership_scale(self, t) -> bool:
        """Whether t * xbar_G lies in Lambda_G^*."""
        t = Fraction(t)
        return (t * self.k * self.x2).denominator == 1 and (
            t * (self.x1 + self.h * self.x2)
        ).denominator == 1


def codim2_data(P: Polytope, face: Face) -> CodimTwoData:
    # a ridge lies in exactly two facets; F1 has the lex-smaller normal
    i, j = sorted(face.tight_set, key=P.inequalities.__getitem__)
    (v1, b1), (v2, b2) = P.inequalities[i], P.inequalities[j]
    n1, n2 = int(linalg.norm_sq(v1)), int(linalg.norm_sq(v2))
    dot12 = int(linalg.dot(v1, v2))

    # x -> (<v1, x>, <v2, x>) maps the dual of Lambda_G onto the sublattice
    # of Z^2 of index k that contains (1, -h): k is the gcd of the 2x2
    # minors of [v1; v2], kept on P for the volumes too, and any integer x
    # with <v1, x> = 1 gives h.  The cone generators map to (0, k) and
    # (k, 0), so the projection of G, which maps to (b1, b2), has
    # coordinates x1 = b2/k and x2 = b1/k.
    k = P.minor_gcd(face.tight_set)
    h = -sum(a * x for a, x in zip(v2, _unit_preimage(v1))) % k
    h_inv = 1 if k == 1 else pow(h, -1, k)
    den = math.lcm(b1.denominator, b2.denominator)
    return CodimTwoData(
        face=face,
        f1=i,
        f2=j,
        norm1_sq=n1,
        norm2_sq=n2,
        dot12=dot12,
        c_G=dihedral_angle(v1, v2),
        k=k,
        h=h,
        h_inv=h_inv,
        den=den,
        b1_num=int(b1 * den),
        b2_num=int(b2 * den),
        vol_star=P.relative_volume(face),
    )


def dihedral_angle(v1: tuple[int, ...], v2: tuple[int, ...]) -> AngleValue:
    """c_G of a ridge from its two integer facet normals alone, in integers:
    the angle whose cosine is -<v1, v2> / (|v1| |v2|)."""
    dot = sum(map(operator.mul, v1, v2))
    return AngleValue((dot < 0) - (dot > 0),
                      Fraction(dot * dot, sum(x * x for x in v1) * sum(x * x for x in v2)))


def _unit_preimage(v: tuple[int, ...]) -> list[int]:
    """An integer x with <v, x> = 1, for a primitive integer v, from a
    chain of extended gcds over its coordinates."""
    g, x = v[0], [1] + [0] * (len(v) - 1)
    for idx in range(1, len(v)):
        g, s, t = linalg.extended_gcd(g, v[idx])
        x = [s * c for c in x]
        x[idx] = t
    return x


def all_codim2_data(P: Polytope) -> tuple[CodimTwoData, ...]:
    """Data of every codimension-two face of P, built on first use and
    kept on P."""
    if P._codim2_data is None:
        P._codim2_data = tuple(codim2_data(P, f) for f in P.codim2_faces())
    return P._codim2_data

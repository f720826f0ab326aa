"""Per-face local parameters of the codimension-two quasi-coefficients.

For a codimension-two face G this is the transverse-cone description,
read from its two facet normals and their offsets alone: the cone type
(h, k), the two offsets as integers over one denominator, from which the
barycentric offsets (x1, x2) follow, and the exact dihedral angle, as a
cosine and, on first use, in turns.  It names its two facets by index,
and a facet needs no record of its own: its normal and offset are
P.inequalities[i] and its relative volume is P.relative_volume(F).  Each
ridge's facet pair and cosine are computed once per polytope, in
integers, and shared with the solid-angle table, which reads nothing
else of this data.  Each polytope's data is built once, on first use,
and kept on it.
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


def ridges(P: Polytope) -> dict[frozenset[int], tuple[int, int, AngleValue]]:
    """(f1, f2, c_G) of each ridge of P, by its tight set: its two facet
    indices, F1 with the lexicographically smaller normal, and its
    dihedral angle from the two integer normals alone.  Built on first use
    and kept on P; the codim-2 data and the solid-angle table both read
    it, and neither reads more of the other."""
    if P._ridges is None:
        P._ridges = {}
        for G in P.codim2_faces():
            # a ridge lies in exactly two facets
            i, j = sorted(G.tight_set, key=P.inequalities.__getitem__)
            v1, v2 = P.inequalities[i][0], P.inequalities[j][0]
            P._ridges[G.tight_set] = (i, j, dihedral_angle(v1, v2))
    return P._ridges


def codim2_data(P: Polytope, face: Face) -> CodimTwoData:
    i, j, c_G = ridges(P)[face.tight_set]
    (v1, b1), (v2, b2) = P.inequalities[i], P.inequalities[j]
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
        norm1_sq=sum(x * x for x in v1),
        norm2_sq=sum(x * x for x in v2),
        dot12=sum(map(operator.mul, v1, v2)),
        c_G=c_G,
        k=k,
        h=h,
        h_inv=h_inv,
        den=den,
        b1_num=b1.numerator * (den // b1.denominator),
        b2_num=b2.numerator * (den // b2.denominator),
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

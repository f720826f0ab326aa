"""Per-face local parameters of the quasi-coefficient formulas.

For a facet F this is the primitive outward normal, the supporting
offset and the relative volume.  For a codimension-two face G it is the
full transverse-cone description: the projected lattice, the cone type
(h, k), the barycentric offsets (x1, x2) and the exact dihedral angle.
Each polytope's data is built once, on first use, and kept on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from eak import linalg
from eak.exactval import AngleValue, angle_of_cos_ratio, primitive_integer_vector
from eak.lattice import (
    EmbeddedLattice,
    basis_from_generators,
    intersection_with_integer_lattice,
    lattice_primitive,
)
from eak.linalg import Vec
from eak.polytope import Face, Polytope


@dataclass(frozen=True)
class FacetData:
    face: Face
    v_F: tuple[int, ...]  # primitive outward normal
    x_F_dot: Fraction  # <v_F, x> for any x in F
    vol_star: Fraction
    norm_sq: Fraction


@dataclass(frozen=True)
class CodimTwoData:
    face: Face
    f1: int  # facet indices, F1 = lexicographically smaller normal
    f2: int
    v_F1: tuple[int, ...]
    v_F2: tuple[int, ...]
    norm1_sq: Fraction
    norm2_sq: Fraction
    dot12: Fraction  # <v_F1, v_F2>
    c_G: AngleValue  # cosine of the transverse angle; omega = arccos(c_G)/(2pi)
    k: int
    h: int
    h_inv: int
    x1: Fraction
    x2: Fraction
    dot1: Fraction  # <v_F1, xbar_G> = k*x2
    dot2: Fraction  # <v_F2, xbar_G> = k*x1
    vol_star: Fraction
    gram_lambda_G: Fraction  # det(B^T B) of Lambda_G = lin(G)^perp cap Z^d
    dual_lattice: EmbeddedLattice  # Lambda_G^* in lin(G)^perp
    v_F1_G: Vec  # primitive dual-lattice vector orthogonal to v_F1
    v_F2_G: Vec
    basis_v1: Vec  # cone-type basis (v1, v2) of Lambda_G^*:
    basis_v2: Vec  # v_F1_G = v1 and v_F2_G = h*v1 + k*v2

    @property
    def ratio12(self) -> Fraction:
        return self.norm1_sq / self.norm2_sq

    def membership_scale(self, t) -> bool:
        """Whether t * xbar_G lies in Lambda_G^*."""
        t = Fraction(t)
        return (t * self.k * self.x2).denominator == 1 and (
            t * (self.x1 + self.h * self.x2)
        ).denominator == 1


def facet_data(P: Polytope, face: Face) -> FacetData:
    (idx,) = face.tight_set
    a, b = P.inequalities[idx]
    return FacetData(
        face=face,
        v_F=a,
        x_F_dot=b,
        vol_star=P.relative_volume(face),
        norm_sq=linalg.norm_sq(a),
    )


def codim2_data(P: Polytope, face: Face) -> CodimTwoData:
    i, j = P.incident_facets(face)
    a_i, b_i = P.inequalities[i]
    a_j, b_j = P.inequalities[j]
    if a_j < a_i:
        (i, a_i, b_i), (j, a_j, b_j) = (j, a_j, b_j), (i, a_i, b_i)
    v1, v2 = a_i, a_j
    n1, n2 = linalg.norm_sq(v1), linalg.norm_sq(v2)
    dot12 = linalg.dot(v1, v2)
    c_G = angle_of_cos_ratio(-dot12, n1 * n2)

    # Lambda_G = lin(G)^perp cap Z^d and its dual, the projection of Z^d.
    lam = intersection_with_integer_lattice([linalg.vec(v1), linalg.vec(v2)])
    proj = linalg.orthogonal_projection([linalg.vec(v1), linalg.vec(v2)])
    dual = basis_from_generators(linalg.columns(proj), rank=2)

    # Primitive generators of the transverse cone boundary: f_{m,other} is
    # the component of the other normal orthogonal to v_{F_m}.
    f1_dir = linalg.vec_sub(linalg.vec_scale(n1, v2), linalg.vec_scale(dot12, v1))
    f2_dir = linalg.vec_sub(linalg.vec_scale(n2, v1), linalg.vec_scale(dot12, v2))
    v_F1_G = lattice_primitive(dual, f1_dir)
    v_F2_G = lattice_primitive(dual, f2_dir)

    # Cone type (h, k): complete the coordinates of v_F1_G to a unimodular
    # basis of Z^2 and normalize so v_F2_G = h*v1 + k*v2 with 0 <= h < k.
    c1 = tuple(int(c) for c in dual.coordinates(v_F1_G))
    c2 = tuple(int(c) for c in dual.coordinates(v_F2_G))
    _, u = linalg.complete_primitive_2d(c1)
    sol = linalg.solve(linalg.from_columns([c1, u]), c2)
    alpha, beta = int(sol[0]), int(sol[1])
    if beta < 0:
        u = (-u[0], -u[1])
        beta = -beta
    k = beta
    m, h = divmod(alpha, k)
    u = (u[0] + m * c1[0], u[1] + m * c1[1])
    basis_v1 = dual.from_coordinates(c1)
    basis_v2 = dual.from_coordinates(u)
    if math.gcd(h, k) != 1:
        raise AssertionError("cone type (h, k) not coprime")
    h_inv = 1 if k == 1 else pow(h, -1, k)

    # Offsets: xbar_G is the projection of any point of G; its coordinates
    # in (v_F1_G, v_F2_G) are (x1, x2), and pairing with the normals gives
    # b's back: <v_F1, xbar> = k*x2, <v_F2, xbar> = k*x1.
    g0 = P.face_vertices(face)[0]
    xbar = linalg.mat_vec(proj, g0)
    coords = linalg.solve(linalg.from_columns([v_F1_G, v_F2_G]), xbar)
    if coords is None:
        raise AssertionError("projected point not in the transverse plane")
    x1, x2 = coords[0], coords[1]

    return CodimTwoData(
        face=face,
        f1=i,
        f2=j,
        v_F1=v1,
        v_F2=v2,
        norm1_sq=n1,
        norm2_sq=n2,
        dot12=dot12,
        c_G=c_G,
        k=k,
        h=h,
        h_inv=h_inv,
        x1=x1,
        x2=x2,
        dot1=linalg.dot(v1, xbar),
        dot2=linalg.dot(v2, xbar),
        vol_star=P.relative_volume(face),
        gram_lambda_G=lam.gram_det,
        dual_lattice=dual,
        v_F1_G=v_F1_G,
        v_F2_G=v_F2_G,
        basis_v1=basis_v1,
        basis_v2=basis_v2,
    )


def all_facet_data(P: Polytope) -> tuple[FacetData, ...]:
    """Data of every facet of P, built on first use and kept on P."""
    if P._facet_data is None:
        P._facet_data = tuple(facet_data(P, f) for f in P.facets())
    return P._facet_data


def all_codim2_data(P: Polytope) -> tuple[CodimTwoData, ...]:
    """Data of every codimension-two face of P, built on first use and
    kept on P."""
    if P._codim2_data is None:
        P._codim2_data = tuple(codim2_data(P, f) for f in P.codim2_faces())
    return P._codim2_data

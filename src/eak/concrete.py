"""Concreteness checks: hyperoctahedral symmetrization, multi-tiling
levels by sampling, central symmetry of facets, and the direct
definition A_P(t) = vol(P) t^d."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from eak import linalg, oracle
from eak.exactval import ExactValue
from eak.polytope import Polytope


@dataclass(frozen=True)
class SignedPermutation:
    """An element of the hypercube symmetry group: coordinate permutation
    composed with sign flips; orthogonal and unimodular."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def apply(self, v):
        return tuple(self.signs[i] * Fraction(v[self.perm[i]]) for i in range(len(self.perm)))


def hyperoctahedral_elements(d: int) -> list[SignedPermutation]:
    """All 2^d d! signed permutations, in deterministic order."""
    if d > 4:
        raise ValueError("dimension above four not supported")
    return [
        SignedPermutation(perm, signs)
        for perm in itertools.permutations(range(d))
        for signs in itertools.product((1, -1), repeat=d)
    ]


@dataclass(frozen=True)
class TilingReport:
    level: int | None  # None: not multi-tiling
    samples: int
    witness: tuple | None  # a sampled point with a deviating multiplicity

    @property
    def is_multitiling(self) -> bool:
        return self.level is not None


def _translate_ranges(Q: Polytope) -> list[range]:
    """Integer translate ranges per axis covering every x in [0,1)^d."""
    ranges = []
    for j in range(Q.dim):
        lo_v = min(v[j] for v in Q.vertices)
        hi_v = max(v[j] for v in Q.vertices)
        ranges.append(range(math.floor(-hi_v), math.ceil(1 - lo_v) + 1))
    return ranges


def _copy_multiplicity(Q: Polytope, x) -> tuple[int, bool]:
    """(covering translate count, whether x hits a translate boundary)."""
    count = 0
    for lam in itertools.product(*_translate_ranges(Q)):
        shifted = tuple(x[i] - lam[i] for i in range(Q.dim))
        tight = False
        inside = True
        for a, b in Q.inequalities:
            s = linalg.dot(a, shifted)
            if s > b:
                inside = False
                break
            if s == b:
                tight = True
        if inside:
            if tight:
                return count, True
            count += 1
    return count, False


def symmetrized_multitiling_level(
    P: Polytope, samples: int = 256, seed: int = 0
) -> TilingReport:
    """Multiplicity of the hyperoctahedral symmetrization of P under
    integer translations, checked exactly at sampled points."""
    if P.dim > 3:
        raise ValueError("dimension above three not supported")
    d = P.dim
    # distinct images weighted by orbit multiplicity
    weighted: dict[tuple, int] = {}
    for g in hyperoctahedral_elements(d):
        verts = tuple(sorted(g.apply(v) for v in P.vertices))
        weighted[verts] = weighted.get(verts, 0) + 1
    polys = [(Polytope(d, list(v)), w) for v, w in weighted.items()]
    rng = random.Random(seed)
    level = None
    for _ in range(samples):
        for _retry in range(64):
            x = tuple(Fraction(rng.randrange(10**6), 10**6) for _ in range(d))
            mult = 0
            boundary = False
            for Q, w in polys:
                m, hit = _copy_multiplicity(Q, x)
                if hit:
                    boundary = True
                    break
                mult += w * m
            if not boundary:
                break
        else:
            raise RuntimeError("could not sample a point off all boundaries")
        if level is None:
            level = mult
        elif mult != level:
            return TilingReport(None, samples, x)
    return TilingReport(level, samples, None)


@dataclass(frozen=True)
class ConcretenessReport:
    concrete: bool
    t_max: int
    failed_t: int | None
    defect: ExactValue | None  # A_P(t) - vol t^d at the first failure


def is_concrete(P: Polytope, t_max: int) -> ConcretenessReport:
    """Check A_P(t) = vol(P) t^d exactly for t = 1..t_max.

    Raises ValueError when a defect has a nonzero canonical form but
    vanishes to 150 bits: equal canonical forms prove equality, unequal
    ones do not prove a difference."""
    if P.dim > 3:
        raise ValueError("dimension above three not supported")
    vol = P.volume()
    for t in range(1, t_max + 1):
        value = oracle.solid_angle_sum(P, t)
        expected = ExactValue.of(vol * Fraction(t) ** P.dim)
        defect = value - expected
        if defect != ExactValue.of(0):
            if abs(defect.eval_numeric(200)) < 2.0**-150:
                raise ValueError(
                    f"cannot decide concreteness at t={t}: the defect {defect} "
                    "is nonzero in form but zero to 150 bits"
                )
            return ConcretenessReport(False, t_max, t, defect)
    return ConcretenessReport(True, t_max, None, None)


def centrally_symmetric_facets(P: Polytope) -> bool:
    """Whether every facet is centrally symmetric about its vertex centroid."""
    for f in P.facets():
        verts = P.face_vertices(f)
        n = len(verts)
        centroid = tuple(
            sum((v[j] for v in verts), Fraction(0)) / n for j in range(P.dim)
        )
        pts = {tuple(v) for v in verts}
        mirrored = {
            tuple(2 * centroid[j] - v[j] for j in range(P.dim)) for v in verts
        }
        if pts != mirrored:
            return False
    return True

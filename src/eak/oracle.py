"""Brute-force ground truth: exact lattice-point counts, exact solid
angles in dimension up to three, Monte Carlo angles in dimension four,
and Vandermonde extraction of quasi-coefficients from samples.

The exact solid-angle sum is a face decomposition.  The solid angle of
tP is constant on the relative interior of each face, and the set of
inequalities tight at a point of tP names the face of P whose dilate
holds the point in its relative interior.  So A_P(t) is the interior
count plus, for each tight set met on the boundary, its point count
times one exact angle, and that angle, kept on the polytope, serves
every t > 0."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from eak import _kernels, linalg
from eak.exactval import ExactValue, angle_of_cos_ratio, exact_sum, primitive_integer_vector
from eak.polytope import Face, Polytope

ENUMERATION_BUDGET = 10**7
MC_SAMPLES = 10**6
INT64_LIMIT = 2**63


class BudgetExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# point enumeration

def _scaled_system(P: Polytope, t: Fraction):
    """Integer system A x <= C equivalent to x in t*P, plus the integer
    bounding box of t*P.  Refuses when a row's value over the box could
    leave int64, where the scan would wrap silently."""
    lo = []
    hi = []
    for j in range(P.dim):
        coords = [v[j] * t for v in P.vertices]
        lo.append(math.floor(min(coords)))
        hi.append(math.ceil(max(coords)))
    reach = [max(abs(lo_j), abs(hi_j)) for lo_j, hi_j in zip(lo, hi)]
    rows_a = []
    rows_c = []
    for a, b in P.inequalities:
        c = b * t
        row = [c.denominator * int(x) for x in a]
        bound = max(sum(abs(x) * r for x, r in zip(row, reach)), abs(c.numerator))
        if bound >= INT64_LIMIT:
            raise BudgetExceeded(
                f"the scaled system at t={t} needs integers up to {bound}, "
                f"beyond the int64 limit 2**63"
            )
        rows_a.append(row)
        rows_c.append(c.numerator)
    return (
        np.array(rows_a, dtype=np.int64),
        np.array(rows_c, dtype=np.int64),
        np.array(lo, dtype=np.int64),
        np.array(hi, dtype=np.int64),
    )


def _enumerate(P: Polytope, t: Fraction, budget: int = ENUMERATION_BUDGET):
    """(interior count, boundary points, A, C) of the scan of t*P, where
    A x <= C is the integer system of t*P."""
    if t <= 0:
        raise ValueError("positive dilation required")
    A, C, lo, hi = _scaled_system(P, t)
    size = int(np.prod(hi - lo + 1))
    if size > budget:
        raise BudgetExceeded(f"bounding box has {size} candidate points (budget {budget})")
    return (*_kernels.scan_box(A, C, lo, hi), A, C)


def count_points(P: Polytope, t, budget: int = ENUMERATION_BUDGET) -> int:
    """|tP cap Z^d| by exact box scan."""
    interior, boundary, _, _ = _enumerate(P, Fraction(t), budget)
    return interior + len(boundary)


# ---------------------------------------------------------------------------
# solid angles

def _edge_turn(a1, a2) -> ExactValue:
    """Dihedral angle fraction at a codim-2 locus with facet normals a1, a2."""
    angle = angle_of_cos_ratio(
        -linalg.dot(a1, a2), linalg.norm_sq(a1) * linalg.norm_sq(a2)
    )
    return ExactValue.angle_turn(angle)


def _vertex_rays(P: Polytope, vid: int) -> list[tuple[int, ...]]:
    """Primitive directions of the polytope edges leaving vertex vid."""
    edges = P.facets() if P.dim == 2 else P.codim2_faces()
    rays = []
    for f in edges:
        if vid in f.vertex_ids:
            other = next(i for i in f.vertex_ids if i != vid)
            rays.append(
                primitive_integer_vector(
                    linalg.vec_sub(P.vertices[other], P.vertices[vid])
                )
            )
    return rays


def _corner_angle(r, ra, rb) -> ExactValue:
    """Angle between the planes span(r, ra) and span(r, rb), measured
    after removing the r-components (the spherical triangle's angle at r)."""
    rr = linalg.norm_sq(r)
    a = linalg.vec_sub(linalg.vec_scale(rr, ra), linalg.vec_scale(linalg.dot(r, ra), r))
    b = linalg.vec_sub(linalg.vec_scale(rr, rb), linalg.vec_scale(linalg.dot(r, rb), r))
    angle = angle_of_cos_ratio(linalg.dot(a, b), linalg.norm_sq(a) * linalg.norm_sq(b))
    return ExactValue.angle_turn(angle)


def _vertex_angle_3d(P: Polytope, vid: int) -> ExactValue:
    """Solid angle at a vertex of a 3-polytope by spherical excess over a
    fan triangulation of the vertex cone."""
    cache = P._vertex_angles
    if vid in cache:
        return cache[vid]
    rays = _vertex_rays(P, vid)
    # adjacency: two edge rays bound a 2-face of the cone iff their edges
    # share a facet through the vertex
    facet_members: list[set[int]] = []
    for f in P.facets():
        if vid in f.vertex_ids:
            members = set()
            for ridx, r in enumerate(rays):
                # ray r lies in facet f iff its normal annihilates r
                (ineq,) = f.tight_set
                a, _ = P.inequalities[ineq]
                if linalg.dot(a, r) == 0:
                    members.add(ridx)
            facet_members.append(members)
    n = len(rays)
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for members in facet_members:
        for i, j in itertools.combinations(sorted(members), 2):
            adj[i].add(j)
            adj[j].add(i)
    # walk the cycle of rays around the cone
    start = min(range(n), key=lambda i: rays[i])
    order = [start]
    prev = None
    while len(order) < n:
        nxt = min(x for x in adj[order[-1]] if x != prev)
        prev = order[-1]
        order.append(nxt)
    total = ExactValue.of(0)
    for i in range(1, n - 1):
        r0, ra, rb = rays[start], rays[order[i]], rays[order[i + 1]]
        excess = (
            _corner_angle(r0, ra, rb)
            + _corner_angle(ra, rb, r0)
            + _corner_angle(rb, r0, ra)
        ) * Fraction(1, 2) - Fraction(1, 4)
        total = total + excess
    cache[vid] = total
    return total


def _vertex_angle_2d(P: Polytope, vid: int) -> ExactValue:
    r1, r2 = _vertex_rays(P, vid)
    angle = angle_of_cos_ratio(
        linalg.dot(r1, r2), linalg.norm_sq(r1) * linalg.norm_sq(r2)
    )
    return ExactValue.angle_turn(angle)


def _classify(P: Polytope, x, t: Fraction):
    """(locus, tight_indices) of a point known to lie in t*P."""
    tight = [
        i for i, (a, b) in enumerate(P.inequalities) if linalg.dot(a, x) == b * t
    ]
    if not tight:
        return "interior", tight
    r = linalg.rank([P.inequalities[i][0] for i in tight])
    if r == 1:
        return "facet", tight
    if r == 2 and P.dim >= 3:
        return "codim2", tight
    return "deep", tight


def solid_angle_at(P: Polytope, x: Sequence, t=1) -> ExactValue:
    """Exact solid angle of t*P at the point x (0 when x is outside)."""
    t = Fraction(t)
    x = linalg.vec(x)
    if P.dim > 3:
        raise ValueError("exact solid angles are limited to dimension <= 3")
    if not P.contains(x, t):
        return ExactValue.of(0)
    locus, tight = _classify(P, x, t)
    if locus == "interior":
        return ExactValue.of(1)
    if locus == "facet":
        return ExactValue.of(Fraction(1, 2))
    if locus == "codim2":
        i, j = tight[0], tight[1]
        return _edge_turn(P.inequalities[i][0], P.inequalities[j][0])
    # a "deep" locus in dimension <= 3 is a vertex of t*P, matching x/t in P
    scaled = tuple(c / t for c in x)
    vid = P.vertices.index(scaled)
    if P.dim == 3:
        return _vertex_angle_3d(P, vid)
    if P.dim == 2:
        return _vertex_angle_2d(P, vid)
    return ExactValue.of(Fraction(1, 2))  # d = 1 endpoint


def solid_angle_sum(P: Polytope, t, budget: int = ENUMERATION_BUDGET) -> ExactValue:
    """A_P(t): exact sum of solid angles of t*P over the integer points.

    Boundary points are grouped by their tight rows (exact in int64, as
    _scaled_system bounds every row), and each group adds its count times
    the angle at one of its points.  The tight set names a face of P, and
    the angle on the face's dilates does not depend on t > 0, so it is
    kept in P._face_angles for every later t."""
    if P.dim > 3:
        return _solid_angle_sum_numeric(P, t, budget)
    t = Fraction(t)
    interior, boundary, A, C = _enumerate(P, t, budget)
    patterns, first, counts = np.unique(
        boundary @ A.T == C, axis=0, return_index=True, return_counts=True
    )
    angles = P._face_angles
    terms = [ExactValue.of(interior)]
    for pattern, i, n in zip(patterns, first, counts):
        key = tuple(np.flatnonzero(pattern).tolist())
        if key not in angles:
            angles[key] = solid_angle_at(P, tuple(int(c) for c in boundary[i]), t)
        terms.append(angles[key] * int(n))
    return exact_sum(terms)


def _solid_angle_sum_numeric(P: Polytope, t, budget: int, seed: int = 20240817) -> float:
    """Monte Carlo solid-angle sum for dimension four."""
    t = Fraction(t)
    interior, boundary, _, _ = _enumerate(P, t, budget)
    total = float(interior)
    rng = np.random.default_rng(seed)
    for row in boundary:
        x = tuple(int(c) for c in row)
        locus, tight = _classify(P, x, t)
        if locus == "facet":
            total += 0.5
            continue
        if locus == "codim2":
            i, j = tight[0], tight[1]
            total += _edge_turn(
                P.inequalities[i][0], P.inequalities[j][0]
            ).eval_numeric()
            continue
        A = np.array([P.inequalities[i][0] for i in tight], dtype=float)
        u = rng.standard_normal((MC_SAMPLES, P.dim))
        total += float(np.mean(np.all(u @ A.T <= 0.0, axis=1)))
    return total


# ---------------------------------------------------------------------------
# coefficient extraction and consistency checks

def interpolate_coefficients(samples: Sequence[tuple], degree: int):
    """Solve for polynomial coefficients (highest degree first) from
    degree+1 exact samples (t_j, value_j); values may be Fractions or
    ExactValues."""
    if len(samples) != degree + 1:
        raise ValueError(f"need {degree + 1} samples for degree {degree}")
    ts = [Fraction(t) for t, _ in samples]
    if len(set(ts)) != len(ts):
        raise ValueError("duplicate sample points make the system singular")
    vandermonde = [[t**k for k in range(degree, -1, -1)] for t in ts]
    inv = linalg.inverse(vandermonde)
    values = [v for _, v in samples]
    exact_mode = any(isinstance(v, ExactValue) for v in values)
    coeffs = []
    for i in range(degree + 1):
        if exact_mode:
            coeffs.append(exact_sum(v * inv[i][j] for j, v in enumerate(values)))
        else:
            coeffs.append(sum((Fraction(v) * inv[i][j] for j, v in enumerate(values)), Fraction(0)))
    return coeffs


def appendixA_cross_check(P: Polytope, t, budget: int = ENUMERATION_BUDGET) -> ExactValue:
    """A_P(t) by the per-point reference: the interior count plus
    solid_angle_at at every boundary point, added one by one, with no
    grouping by face; solid_angle_sum is checked against it."""
    if P.dim != 3:
        raise ValueError("three-dimensional polytope required")
    t = Fraction(t)
    interior, boundary, _, _ = _enumerate(P, t, budget)
    total = ExactValue.of(interior)
    for row in boundary:
        total = total + solid_angle_at(P, tuple(int(c) for c in row), t)
    return total

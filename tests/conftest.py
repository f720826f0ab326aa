"""Shared fixtures: reference polytopes and random generators."""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest
import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from eak import linalg, local_data, oracle, polytope
from eak.exactval import ExactValue, exact_sum
from eak.linalg import Vec
from eak.polytope import MAX_DIM, Polytope
from reference_lattice import (
    EmbeddedLattice,
    basis_from_generators,
    intersection_with_integer_lattice,
    lattice_primitive,
)
import reference_linalg as ref

# a 4-polytope with 16 vertices and rectangular 2-faces, such as x = z = 1
SIXTEEN_VERTICES = [
    (-2, 1, 0, 0), (-2, 1, 0, 1), (-2, 1, 1, 0), (-2, 1, 1, 2),
    (0, -2, 0, 0), (0, -2, 0, 1), (0, -2, 1, 0), (0, -2, 1, 1),
    (1, -2, 0, 0), (1, -2, 0, 2), (1, -2, 1, 0), (1, -2, 1, 2),
    (1, -1, 0, 0), (1, -1, 0, 1), (1, -1, 1, 0), (1, -1, 1, 2),
]

# a 4-polytope with six integer vertices
FOUR_POLYTOPE = [(0, 0, 0, 0), (2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 0),
                 (0, 0, 0, 1), (1, 1, 1, 1)]


@pytest.fixture
def delta() -> Polytope:
    """Standard simplex conv(0, e1, e2, e3)."""
    return Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture
def order() -> Polytope:
    """Order simplex 0 <= z <= y <= x <= 1 (a unimodular image of delta)."""
    return Polytope(3, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)])


@pytest.fixture
def half_order() -> Polytope:
    return Polytope(
        3,
        [
            (0, 0, 0),
            (Fraction(1, 2), 0, 0),
            (Fraction(1, 2), Fraction(1, 2), 0),
            (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        ],
    )


@pytest.fixture
def cube() -> Polytope:
    return Polytope(3, [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])


@pytest.fixture
def hex_prism() -> Polytope:
    """Prism over the centrally symmetric lattice hexagon."""
    hexagon = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    return Polytope(3, [(x, y, z) for x, y in hexagon for z in (0, 1)])


@pytest.fixture
def square() -> Polytope:
    return Polytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.fixture
def local_data_builds(monkeypatch) -> Counter:
    """Counts of (builder name, face vertex ids) over the per-face local
    data built while the test runs: the codim-2 data and the facets'
    relative volumes (their pyramid sums)."""
    builds: Counter = Counter()
    codim2_data = local_data.codim2_data
    pyramid_volume = Polytope._pyramid_volume

    def counted_codim2(P, face):
        builds["codim2_data", face.vertex_ids] += 1
        return codim2_data(P, face)

    def counted_volume(P, face):
        if face.codim == 1:
            builds["facet volume", face.vertex_ids] += 1
        return pyramid_volume(P, face)

    monkeypatch.setattr(local_data, "codim2_data", counted_codim2)
    monkeypatch.setattr(Polytope, "_pyramid_volume", counted_volume)
    return builds


def random_integer_polytope(rng: random.Random, npts=(6, 10), rad=3) -> Polytope:
    """Full-dimensional hull of random integer points in [-rad, rad]^3."""
    while True:
        n = rng.randint(*npts)
        pts = [tuple(rng.randint(-rad, rad) for _ in range(3)) for _ in range(n)]
        try:
            return Polytope(3, pts)
        except ValueError:
            continue


def random_rational_polytope(rng: random.Random, npts=(6, 10)) -> Polytope:
    """Full-dimensional hull of random rational points, |num| <= 4, den <= 3."""
    while True:
        n = rng.randint(*npts)
        pts = [
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            for _ in range(n)
        ]
        try:
            return Polytope(3, pts)
        except ValueError:
            continue


@st.composite
def rational_polytopes(draw, dims: tuple[int, int], extra: int) -> Polytope:
    """Hull of d + 1..d + 1 + extra points with |num| <= 3, den <= 3, for d
    in the closed range dims."""
    d = draw(st.integers(*dims))
    coord = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 1 + extra))
    try:
        return Polytope(d, pts)
    except ValueError:
        assume(False)


def reeve_tetrahedron(r: int) -> Polytope:
    """conv(0, e1, e2, (1, 1, r)): every edge has cone type k = r."""
    return Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, r)])


def random_tetrahedron(rng: random.Random, rad=3) -> Polytope:
    """Non-degenerate integer tetrahedron with coordinates in [-rad, rad]."""
    while True:
        pts = [tuple(rng.randint(-rad, rad) for _ in range(3)) for _ in range(4)]
        try:
            P = Polytope(3, pts)
        except ValueError:
            continue
        if len(P.vertices) == 4:
            return P


def rhombic_dodecahedron(image) -> Polytope:
    """The rhombic dodecahedron conv((+-1, +-1, +-1), +-2 e_i), which tiles
    R^3 by the lattice of even coordinate sum, mapped by the linear
    integer map image(x, y, z)."""
    cube = itertools.product((-1, 1), repeat=3)
    axes = [tuple(2 * s * (i == j) for j in range(3)) for i in range(3) for s in (1, -1)]
    return Polytope(3, [image(*v) for v in (*cube, *axes)])


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


def centrally_symmetric_facets(P: Polytope) -> bool:
    """Whether every facet is centrally symmetric about its vertex centroid."""
    for f in P.facets():
        verts = [P.vertices[i] for i in f.vertex_ids]
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


# ---------------------------------------------------------------------------
# reference: the integer system of t*P with each row's bound the Fraction
# b * t, as eak.oracle._scaled_system built it before it worked in integers


def reference_scaled_system(P: Polytope, t: Fraction):
    """(A, C, lo, hi) of x in t*P, with the refusals of the package's
    _scaled_system: t <= 0, a row past int64, a box past the budget."""
    if t <= 0:
        raise ValueError("positive dilation required")
    L, points = P._dilate
    p, q = t.numerator, L * t.denominator
    columns = list(zip(*points))
    lo = [p * min(c) // q for c in columns]
    hi = [-(-p * max(c) // q) for c in columns]
    reach = [max(abs(lo_j), abs(hi_j)) for lo_j, hi_j in zip(lo, hi)]
    rows_a = []
    rows_c = []
    for a, b in P.inequalities:
        c = b * t
        row = [c.denominator * int(x) for x in a]
        bound = sum(abs(x) * r for x, r in zip(row, reach)) + abs(c.numerator)
        if bound >= oracle.INT64_LIMIT:
            raise oracle.BudgetExceeded(
                f"the scaled system at t={t} needs integers up to {bound}, "
                f"beyond the int64 limit 2**63"
            )
        rows_a.append(row)
        rows_c.append(c.numerator)
    size = math.prod(h - l + 1 for l, h in zip(lo, hi))
    if size > oracle.ENUMERATION_BUDGET:
        raise oracle.BudgetExceeded(f"bounding box has {size} candidate points "
                                    f"(budget {oracle.ENUMERATION_BUDGET})")
    return np.array(rows_a, dtype=np.int64), np.array(rows_c, dtype=np.int64), lo, hi


# ---------------------------------------------------------------------------
# reference: the box scan, one int64 matrix product per value of the first
# coordinate over the whole slab of the box


def reference_scan_box(A, C, lo, hi):
    """(interior_count, boundary_points) for A x <= C over the box [lo, hi],
    every candidate point tested against every row."""
    A, C, lo, hi = (np.asarray(v, dtype=np.int64) for v in (A, C, lo, hi))
    d = len(lo)
    if np.any(hi < lo):
        return 0, np.empty((0, d), dtype=np.int64)
    axes = [np.arange(lo[j], hi[j] + 1, dtype=np.int64) for j in range(1, d)]
    if axes:
        rest = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    else:
        rest = np.empty((1, 0), dtype=np.int64)
    interior = 0
    boundary = []
    pts = np.empty((rest.shape[0], d), dtype=np.int64)
    pts[:, 1:] = rest
    for x0 in range(int(lo[0]), int(hi[0]) + 1):
        pts[:, 0] = x0
        S = pts @ A.T
        inside = np.all(S <= C, axis=1)
        tight = inside & np.any(S == C, axis=1)
        interior += int(inside.sum()) - int(tight.sum())
        if tight.any():
            boundary.append(pts[tight].copy())
    bnd = np.concatenate(boundary, axis=0) if boundary else np.empty((0, d), dtype=np.int64)
    return interior, bnd


# ---------------------------------------------------------------------------
# references: interpolation through the inverse of the Fraction Vandermonde
# matrix, and by Newton's divided differences


def vandermonde_interpolation(samples, degree):
    """Polynomial coefficients (highest degree first) from degree+1 exact
    samples (t_j, value_j), each a row of the Vandermonde inverse times the
    values; ExactValues if any value is one, else Fractions."""
    if len(samples) != degree + 1:
        raise ValueError(f"need {degree + 1} samples for degree {degree}")
    ts = [Fraction(t) for t, _ in samples]
    if len(set(ts)) != len(ts):
        raise ValueError("duplicate sample points make the system singular")
    vandermonde = [[t**k for k in range(degree, -1, -1)] for t in ts]
    inv = ref.inverse(vandermonde)
    values = [v for _, v in samples]
    exact_mode = any(isinstance(v, ExactValue) for v in values)
    coeffs = []
    for i in range(degree + 1):
        if exact_mode:
            coeffs.append(exact_sum(v * inv[i][j] for j, v in enumerate(values)))
        else:
            coeffs.append(sum((Fraction(v) * inv[i][j] for j, v in enumerate(values)), Fraction(0)))
    return coeffs


def newton_interpolation(samples, degree):
    """Polynomial coefficients (highest degree first) from degree+1 exact
    samples (t_j, value_j), by Newton's divided differences expanded into
    the monomial basis; ExactValues if any value is one, else Fractions."""
    if len(samples) != degree + 1:
        raise ValueError(f"need {degree + 1} samples for degree {degree}")
    ts = [Fraction(t) for t, _ in samples]
    if len(set(ts)) != len(ts):
        raise ValueError("duplicate sample points make the system singular")
    values = [v for _, v in samples]
    lift = ExactValue.of if any(isinstance(v, ExactValue) for v in values) else Fraction
    diffs = [v if isinstance(v, ExactValue) else lift(v) for v in values]
    for j in range(1, degree + 1):
        for i in range(degree, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (ts[i] - ts[i - j])
    # p(t) = d_0 + (t - t_0)(d_1 + (t - t_1)(d_2 + ...)), from the inside out
    coeffs = [diffs[degree]]
    for k in range(degree - 1, -1, -1):
        shifted = [c * ts[k] for c in coeffs]
        coeffs = [coeffs[0]] + [c - s for c, s in zip(coeffs[1:], shifted)] + [diffs[k] - shifted[-1]]
    return coeffs


def interpolated_angle_sum(P: Polytope, ts) -> list[ExactValue]:
    """The coefficients of A_P through its values at ts, as eak verify
    interpolates them: P's AngleTable vectors of the scans at ts,
    interpolated and read back with AngleTable.value."""
    table = oracle.angle_table(P)
    samples = [(s, table.vector(*scan)[0]) for s, scan in zip(ts, oracle.face_counts(P, ts))]
    return [table.value(c) for c in oracle.interpolate_coefficients(samples, len(ts) - 1)]


# ---------------------------------------------------------------------------
# Fraction solves and a unimodular completion, used by the references below


def mat(rows) -> ref.Mat:
    return tuple(linalg.vec(r) for r in rows)


def solve(a, b) -> Vec | None:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables (if any) are set to zero.
    """
    rows = [list(linalg.vec(r)) + [Fraction(b[i])] for i, r in enumerate(a)]
    red, pivots = ref.rref(rows)
    n = len(a[0]) if a else 0
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        if c == n:
            return None
        x[c] = red[r][n]
    for r in range(len(pivots), len(red)):
        if red[r][n] != 0:
            return None
    return tuple(x)


def complete_primitive_2d(c) -> tuple[tuple[int, int], tuple[int, int]]:
    """Unimodular basis (c, u) of Z^2 extending the primitive vector c."""
    a, b = int(c[0]), int(c[1])
    g, s, t = linalg.extended_gcd(a, b)
    if g != 1:
        raise ValueError("vector is not primitive")
    # det((a, -t), (b, s)) = a*s + b*t = 1
    return (a, b), (-t, s)


@dataclass(frozen=True)
class TransverseLattice:
    """The transverse lattice of a codim-2 face G and its cone, built
    from the lattices themselves."""

    lam: EmbeddedLattice  # Lambda_G = lin(G)^perp cap Z^d
    dual: EmbeddedLattice  # Lambda_G^*, the projection of Z^d
    v_F1_G: Vec  # primitive dual-lattice vector orthogonal to v_F1
    v_F2_G: Vec
    basis_v1: Vec  # cone-type basis (v1, v2) of Lambda_G^*:
    basis_v2: Vec  # v_F1_G = v1 and v_F2_G = h*v1 + k*v2
    k: int
    h: int
    x1: Fraction  # xbar_G = x1*v_F1_G + x2*v_F2_G
    x2: Fraction
    xbar: Vec  # projection of G onto lin(G)^perp


def transverse_lattice(P: Polytope, g: local_data.CodimTwoData) -> TransverseLattice:
    """Reference for the cone type and offsets of a codim-2 face: Lambda_G,
    its dual, the primitive cone generators and a unimodular completion."""
    v1, v2 = (linalg.vec(P.inequalities[f][0]) for f in (g.f1, g.f2))
    n1, n2, dot12 = linalg.norm_sq(v1), linalg.norm_sq(v2), linalg.dot(v1, v2)
    lam = intersection_with_integer_lattice([v1, v2])
    proj = ref.orthogonal_projection([v1, v2])
    dual = basis_from_generators(ref.columns(proj), rank=2)

    # f_{m,other}: the component of the other normal orthogonal to v_{F_m}
    f1_dir = ref.vec_sub(ref.vec_scale(n1, v2), ref.vec_scale(dot12, v1))
    f2_dir = ref.vec_sub(ref.vec_scale(n2, v1), ref.vec_scale(dot12, v2))
    v_F1_G = lattice_primitive(dual, f1_dir)
    v_F2_G = lattice_primitive(dual, f2_dir)

    # complete the coordinates of v_F1_G to a unimodular basis of Z^2 and
    # normalize so v_F2_G = h*v1 + k*v2 with 0 <= h < k
    c1 = tuple(int(c) for c in dual.coordinates(v_F1_G))
    c2 = tuple(int(c) for c in dual.coordinates(v_F2_G))
    _, u = complete_primitive_2d(c1)
    alpha, beta = (int(c) for c in solve(ref.from_columns([c1, u]), c2))
    if beta < 0:
        u, beta = (-u[0], -u[1]), -beta
    m, h = divmod(alpha, beta)
    u = (u[0] + m * c1[0], u[1] + m * c1[1])

    xbar = ref.mat_vec(proj, P.vertices[g.face.vertex_ids[0]])
    x1, x2 = solve(ref.from_columns([v_F1_G, v_F2_G]), xbar)
    return TransverseLattice(
        lam=lam,
        dual=dual,
        v_F1_G=v_F1_G,
        v_F2_G=v_F2_G,
        basis_v1=dual.from_coordinates(c1),
        basis_v2=dual.from_coordinates(u),
        k=beta,
        h=h,
        x1=x1,
        x2=x2,
        xbar=xbar,
    )


# ---------------------------------------------------------------------------
# reference: the cone kernel by the subset walk, in integers


def reference_cone_rays(rows, n):
    """The primitive extreme rays of {c : <c, r> <= 0 for every row r},
    each with the indices of the rows orthogonal to it, or None when the
    rows do not span Q^n, by the subset walk: each ray is the cross
    product of n - 1 rows, with the sign that meets every row, and the
    rows span iff a nonzero cross product is not orthogonal to all."""
    rays, seen = [], set()
    for c in polytope._cross_products(rows, n):
        g = math.gcd(*c)
        if not g or (c := tuple(x // g for x in c)) in seen:
            continue
        neg = tuple(-x for x in c)
        seen.update((c, neg))
        side, tight = 0, []
        for i, r in enumerate(rows):
            value = sum(map(operator.mul, c, r))
            if not value:
                tight.append(i)
            elif side * value < 0:
                break
            side = side or value
        else:
            if not side:
                return None
            rays.append((c if side < 0 else neg, tight))
    return rays if seen else None


# ---------------------------------------------------------------------------
# reference: P built with Fraction linear algebra, full dimension from the
# affine rank, each hull plane from the rank and nullspace of a d-subset's
# difference vectors, each vertex from the rank of its tight normals; from
# inequalities, boundedness from the nullspace of every d - 1 normals and
# each vertex from a solve of d rows


def reference_hull_facets(points, dim):
    """All supporting hyperplanes (primitive a, b) of a full-dimensional
    point set, with the convention <a, x> <= b inside."""
    facets = []
    seen = set()
    for subset in itertools.combinations(range(len(points)), dim):
        pts = [points[i] for i in subset]
        diffs = [ref.vec_sub(p, pts[0]) for p in pts[1:]]
        if ref.rank(diffs) != dim - 1:
            continue
        normals = ref.nullspace(diffs) if diffs else [
            tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)
        ]
        if len(normals) != 1:
            continue
        a = ref.primitive_integer_vector(normals[0])
        b = linalg.dot(a, pts[0])
        if (a, b) in seen:
            continue
        neg = (tuple(-c for c in a), -b)
        seen.update(((a, b), neg))
        side = {(-1 if linalg.dot(a, p) < b else (1 if linalg.dot(a, p) > b else 0))
                for p in points}
        if 1 in side and -1 in side:
            continue
        facets.append(neg if 1 in side else (a, b))
    return facets


def _reference_affine_rank(points) -> int:
    if len(points) < 2:
        return 0
    return ref.rank([ref.vec_sub(p, points[0]) for p in points[1:]])


class ReferencePolytope(Polytope):
    """A Polytope whose vertices, inequalities and facet vertex sets come
    from the reference construction; everything derived from them is
    Polytope's own."""

    def __init__(self, dim, vertices):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension {dim} outside [1, {MAX_DIM}]")
        pts = sorted({linalg.vec(v) for v in vertices})
        if any(len(p) != dim for p in pts):
            raise ValueError("vertex dimension mismatch")
        if _reference_affine_rank(pts) != dim:
            raise ValueError("polytope is not full-dimensional")
        planes = reference_hull_facets(pts, dim)
        # a point is a vertex iff its tight normals span the ambient space
        verts = []
        for p in pts:
            tight = [a for a, b in planes if linalg.dot(a, p) == b]
            if len(tight) >= dim and ref.rank(tight) == dim:
                verts.append(p)
        self.dim = dim
        self.vertices = tuple(sorted(verts))
        self.inequalities = tuple(sorted(planes))
        self._facet_vertex_sets = tuple(
            frozenset(j for j, v in enumerate(self.vertices) if linalg.dot(a, v) == b)
            for a, b in self.inequalities
        )
        self._ridges = None
        self._codim2_data = None
        self._lattice_volumes = {}
        self._minor_gcds = {}
        self._angle_table = None


def reference_check_bounded(rows, dim):
    """Reject recession rays: a nonzero u with <a_i, u> <= 0 for all i."""
    normals = [r[0] for r in rows]
    for subset in itertools.combinations(range(len(normals)), dim - 1):
        sel = [normals[i] for i in subset]
        if dim > 1 and ref.rank(sel) != dim - 1:
            continue
        kernel = ref.nullspace(sel) if sel else [
            tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)
        ]
        for u in kernel:
            for cand in (u, tuple(-c for c in u)):
                if all(linalg.dot(a, cand) <= 0 for a in normals):
                    raise ValueError("unbounded polyhedron (recession ray)")


def reference_enumerate_vertices(rows, dim):
    """The points where d rows of independent normals are tight and every
    row holds, each from a Fraction solve."""
    verts = set()
    for subset in itertools.combinations(range(len(rows)), dim):
        a_rows = [rows[i][0] for i in subset]
        if ref.rank(a_rows) != dim:
            continue
        x = solve(a_rows, [rows[i][1] for i in subset])
        if x is not None and all(linalg.dot(a, x) <= b for a, b in rows):
            verts.add(x)
    return sorted(verts)


def reference_from_inequalities(dim, rows) -> Polytope:
    """P = {x : <a, x> <= b} by Fraction linear algebra: the span from the
    rank of the normals, boundedness from the nullspace of every d - 1
    normals and the vertices from a solve of every d rows, hulled by
    ReferencePolytope."""
    rows = [(linalg.vec(a), Fraction(b)) for a, b in rows]
    if ref.rank([a for a, _ in rows]) != dim:
        raise ValueError("unbounded polyhedron (normals do not span)")
    reference_check_bounded(rows, dim)
    verts = reference_enumerate_vertices(rows, dim)
    if not verts:
        raise ValueError("empty polytope")
    return ReferencePolytope(dim, verts)

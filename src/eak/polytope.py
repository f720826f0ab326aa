"""Rational polytopes: representations, faces to codimension two, volumes.

Polytopes are bounded, full-dimensional, with rational vertex data, in
ambient dimension at most four.  Construction from either vertices or
inequalities funnels through the same canonicalization: brute-force
supporting-hyperplane discovery at desk scale, primitive integer
normals, lexicographically sorted vertices.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from eak import linalg
from eak.exactval import format_rational, parse_rational, primitive_integer_vector
from eak.linalg import Vec

MAX_DIM = 4


@dataclass(frozen=True)
class Face:
    """A face of a polytope, identified by its active inequalities."""

    tight_set: frozenset[int]
    vertex_ids: tuple[int, ...]
    dim: int
    codim: int


def _affine_rank(points: Sequence[Vec]) -> int:
    if len(points) < 2:
        return 0
    base = points[0]
    return linalg.rank([linalg.vec_sub(p, base) for p in points[1:]])


def hull_facets(points: Sequence[Vec], dim: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """All supporting hyperplanes (primitive a, b) of a full-dimensional
    point set, with the convention <a, x> <= b inside."""
    facets: list[tuple[tuple[int, ...], Fraction]] = []
    # each plane spanned by a d-subset, in both orientations: the side test
    # runs once per plane, not once per subset spanning it
    seen: set[tuple] = set()
    for subset in itertools.combinations(range(len(points)), dim):
        pts = [points[i] for i in subset]
        diffs = [linalg.vec_sub(p, pts[0]) for p in pts[1:]]
        if linalg.rank(diffs) != dim - 1:
            continue
        normals = linalg.nullspace(diffs) if diffs else [
            tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)
        ]
        if len(normals) != 1:
            continue
        a = primitive_integer_vector(normals[0])
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


class Polytope:
    """Bounded, full-dimensional rational polytope in dimension <= 4."""

    def __init__(self, dim: int, vertices: Sequence[Sequence]):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension {dim} outside [1, {MAX_DIM}]")
        pts = sorted({linalg.vec(v) for v in vertices})
        if any(len(p) != dim for p in pts):
            raise ValueError("vertex dimension mismatch")
        if _affine_rank(pts) != dim:
            raise ValueError("polytope is not full-dimensional")
        planes = hull_facets(pts, dim)
        # keep extreme points only: a point is a vertex iff its tight
        # normals span the ambient space
        verts = []
        for p in pts:
            tight = [a for a, b in planes if linalg.dot(a, p) == b]
            if len(tight) >= dim and linalg.rank(tight) == dim:
                verts.append(p)
        self.dim = dim
        self.vertices: tuple[Vec, ...] = tuple(sorted(verts))
        self.inequalities: tuple[tuple[tuple[int, ...], Fraction], ...] = tuple(
            sorted(planes)
        )
        # Data derived from P alone, each built on first use and kept: the
        # faces, their local data (filled by eak.local_data), the volume and
        # the solid angle on each face met by a lattice point of a dilate
        # (filled by eak.oracle), by the tuple of its tight inequality indices.
        self._facets: list[Face] | None = None
        self._codim2: list[Face] | None = None
        self._facet_data: tuple | None = None
        self._codim2_data: tuple | None = None
        self._volume: Fraction | None = None
        self._face_angles: dict = {}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_vertices(dim: int, vertices: Sequence[Sequence]) -> "Polytope":
        return Polytope(dim, vertices)

    @staticmethod
    def from_inequalities(dim: int, rows: Sequence[tuple[Sequence[int], object]]) -> "Polytope":
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension {dim} outside [1, {MAX_DIM}]")
        norm_rows = []
        for a, b in rows:
            a_prim = primitive_integer_vector(a)
            scale = Fraction(next(x for x in a if x != 0), next(x for x in a_prim if x != 0))
            norm_rows.append((a_prim, Fraction(b) / scale))
        if linalg.rank([r[0] for r in norm_rows]) != dim:
            raise ValueError("unbounded polyhedron (normals do not span)")
        _check_bounded(norm_rows, dim)
        verts = _enumerate_vertices(norm_rows, dim)
        if not verts:
            raise ValueError("empty polytope")
        return Polytope(dim, verts)

    @staticmethod
    def from_json(data: dict) -> "Polytope":
        if "dim" not in data:
            raise ValueError("missing 'dim'")
        dim = int(data["dim"])
        has_v = "vertices" in data
        has_h = "inequalities" in data
        if has_v == has_h:
            raise ValueError("exactly one of 'vertices' or 'inequalities' required")
        if has_v:
            verts = [[_parse_rat(c) for c in v] for v in data["vertices"]]
            return Polytope.from_vertices(dim, verts)
        rows = []
        for row in data["inequalities"]:
            rows.append(([int(c) for c in row["a"]], _parse_rat(row["b"])))
        return Polytope.from_inequalities(dim, rows)

    @staticmethod
    def load(path: str) -> "Polytope":
        with open(path) as f:
            return Polytope.from_json(json.load(f))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [[format_rational(c) for c in v] for v in self.vertices],
        }

    # -- faces ------------------------------------------------------------

    def facets(self) -> list[Face]:
        if self._facets is None:
            faces = []
            for i, (a, b) in enumerate(self.inequalities):
                ids = tuple(
                    j for j, v in enumerate(self.vertices) if linalg.dot(a, v) == b
                )
                faces.append(Face(frozenset([i]), ids, self.dim - 1, 1))
            self._facets = faces
        return self._facets

    def codim2_faces(self) -> list[Face]:
        if self._codim2 is None:
            found: dict[frozenset[int], Face] = {}
            facets = self.facets()
            for i, j in itertools.combinations(range(len(facets)), 2):
                common = tuple(sorted(set(facets[i].vertex_ids) & set(facets[j].vertex_ids)))
                if not common:
                    continue
                pts = [self.vertices[k] for k in common]
                if _affine_rank(pts) != self.dim - 2:
                    continue
                key = frozenset(common)
                if key not in found:
                    tight = frozenset(
                        idx
                        for idx, (a, b) in enumerate(self.inequalities)
                        if all(linalg.dot(a, p) == b for p in pts)
                    )
                    found[key] = Face(tight, common, self.dim - 2, 2)
            self._codim2 = sorted(found.values(), key=lambda f: f.vertex_ids)
        return self._codim2

    def faces_of_codim(self, c: int) -> list[Face]:
        if c == 1:
            return self.facets()
        if c == 2:
            return self.codim2_faces()
        raise ValueError("only codimensions 1 and 2 are enumerated")

    def face_vertices(self, face: Face) -> list[Vec]:
        return [self.vertices[i] for i in face.vertex_ids]

    def incident_facets(self, face: Face) -> tuple[int, int]:
        """The exactly-two facets containing a codim-2 face."""
        if face.codim != 2:
            raise ValueError("codim-2 face required")
        pair = tuple(sorted(face.tight_set))
        if len(pair) != 2:
            raise ValueError(f"codim-2 face lies in {len(pair)} facets, expected 2")
        return pair  # type: ignore[return-value]

    # -- metric data ------------------------------------------------------

    def contains(self, x: Sequence, t=1) -> bool:
        """Exact membership of x in the dilate t*P."""
        t = Fraction(t)
        return all(linalg.dot(a, x) <= b * t for a, b in self.inequalities)

    def volume(self) -> Fraction:
        if self._volume is None:
            self._volume = convex_volume(list(self.vertices), self.dim, self.inequalities)
        return self._volume

    def denominator(self) -> int:
        return math.lcm(*(c.denominator for v in self.vertices for c in v))

    def relative_volume(self, face: Face) -> Fraction:
        """Face volume normalized to the induced integer lattice; 1 for a
        vertex, by convention.

        Dropping the coordinates of the first nonzero maximal minor m of
        the face's tight normals maps the face injectively; the integer
        lattice of its span goes to a sublattice of index |m| / g, g the
        gcd of the maximal minors (1 for a facet, k for a codim-2 face)."""
        if face.dim == 0:
            return Fraction(1)
        normals = [self.inequalities[i][0] for i in sorted(face.tight_set)]
        minors = linalg.maximal_minors(normals)
        drop, m = next((cols, m) for cols, m in minors.items() if m)
        keep = [j for j in range(self.dim) if j not in drop]
        pts = [tuple(p[j] for j in keep) for p in self.face_vertices(face)]
        return convex_volume(pts, face.dim) * math.gcd(*minors.values()) / abs(m)

    def __repr__(self) -> str:
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)})"


# ---------------------------------------------------------------------------
# construction helpers

def _check_bounded(rows: list[tuple[tuple[int, ...], Fraction]], dim: int) -> None:
    """Reject recession rays: a nonzero u with <a_i, u> <= 0 for all i."""
    normals = [r[0] for r in rows]
    for subset in itertools.combinations(range(len(normals)), dim - 1):
        sel = [normals[i] for i in subset]
        if dim > 1 and linalg.rank(sel) != dim - 1:
            continue
        kernel = linalg.nullspace(sel) if sel else [
            tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)
        ]
        for u in kernel:
            for cand in (u, tuple(-c for c in u)):
                if all(linalg.dot(a, cand) <= 0 for a in normals):
                    raise ValueError("unbounded polyhedron (recession ray)")


def _enumerate_vertices(rows, dim: int) -> list[Vec]:
    verts = set()
    for subset in itertools.combinations(range(len(rows)), dim):
        a_rows = [rows[i][0] for i in subset]
        if linalg.rank(a_rows) != dim:
            continue
        b = [rows[i][1] for i in subset]
        x = linalg.solve(a_rows, b)
        if x is None:
            continue
        if all(linalg.dot(a, x) <= bb for a, bb in rows):
            verts.add(x)
    return sorted(verts)


def _parse_rat(value) -> Fraction:
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, int):
        return Fraction(value)
    raise ValueError(f"rationals must be strings 'p/q' or integers, got {value!r}")


# ---------------------------------------------------------------------------
# exact volume via recursive boundary triangulation

def triangulate_convex(
    points: Sequence[Vec], dim: int, facets: Sequence | None = None
) -> list[tuple[int, ...]]:
    """Triangulation of the hull of full-dimensional points: index tuples
    of (dim+1)-simplices, fanned from the first point over the
    triangulated facets that miss it.  Each facet recurses on its points
    in the given order, with one coordinate dropped where its normal is
    nonzero (an injective affine map of its span).  So, for points in
    convex position, every face is triangulated alike from each facet
    that contains it.  The hull's facet inequalities are computed unless
    given."""
    points = [linalg.vec(p) for p in points]
    if dim == 0:
        return [(0,)]
    if dim == 1:
        lo = min(range(len(points)), key=lambda i: points[i])
        hi = max(range(len(points)), key=lambda i: points[i])
        return [(lo, hi)]
    simplices = []
    for a, b in facets if facets is not None else hull_facets(points, dim):
        if linalg.dot(a, points[0]) == b:
            continue
        face_ids = [i for i, p in enumerate(points) if linalg.dot(a, p) == b]
        j = next(j for j, c in enumerate(a) if c)
        local = [points[i][:j] + points[i][j + 1:] for i in face_ids]
        for sub in triangulate_convex(local, dim - 1):
            simplices.append(tuple(sorted((0, *(face_ids[i] for i in sub)))))
    return simplices


def convex_volume(points: Sequence[Vec], dim: int, facets: Sequence | None = None) -> Fraction:
    """Exact Euclidean dim-volume of the convex hull of the points,
    measured in their own coordinates; facets as in triangulate_convex."""
    points = [linalg.vec(p) for p in points]
    total = Fraction(0)
    fact = math.factorial(dim)
    for simplex in triangulate_convex(points, dim, facets):
        base = points[simplex[0]]
        edges = [linalg.vec_sub(points[i], base) for i in simplex[1:]]
        total += abs(linalg.det(edges)) / fact
    return total

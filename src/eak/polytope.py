"""Rational polytopes: representations, the face lattice, volumes.

Polytopes are bounded, full-dimensional, with rational vertex data, in
ambient dimension at most four.  Both descriptions are built in integers
by one cone kernel: points give the facets, inequalities the vertices,
each an extreme ray of a cone, with the bitmask of the rows it is tight
on.  The kernel is the double description method: a simplicial cone on
n independent rows, its rays their linalg.cross products, cut by each
other row in turn, so its work follows the rays found and not the
subsets of rows.  Normals are primitive; vertices, sorted, are the points
alone on every facet through them, read from the facets' point bitmasks.
That hull is the only one taken, and an incidence stays a bitmask from
the kernel on: the face lattice is cut from the facets' vertex bitmasks
in one pass that builds each face once and keeps its facets, and every
volume, of P or of a face in the lattice of its span, is a sum of
pyramids over those facets, taken in integers over the integer dilate
L P, L the lcm of the vertex denominators.  A face is named by one
integer, the bitmask of the inequalities tight on it: the key of its
volume, its minor gcd, its ridge record and its solid-angle row, and the
key the lattice-point scan gives each boundary point.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from eak import linalg
from eak.exactval import format_rational, parse_integer, parse_rational
from eak.linalg import Vec

MAX_DIM = 4


@dataclass(frozen=True)
class Face:
    """A face of a polytope, named by its tight rows: bit i of tight is set
    iff inequality i is tight on the face, the key the scan gives each
    boundary point."""

    tight: int
    vertex_ids: tuple[int, ...]
    dim: int
    codim: int


def _cone_rays(rows: Sequence[tuple[int, ...]], n: int) -> list[tuple[tuple, int]] | None:
    """The primitive extreme rays of the cone {c : <c, r> <= 0 for every
    integer row r in Z^n}, each with the bitmask of the rows it is
    orthogonal to (bit i for row i), or None when the rows do not span Q^n.

    By the double description method.  The first n independent rows,
    found by Laplace row steps, cut a simplicial cone: its rays are the
    linalg.cross products of each n - 1 of them, each signed to meet the
    row it leaves out.  Each other row in turn keeps the rays that meet it,
    and joins each ray p that fails it to each ray q that meets it strictly
    by the ray on its hyperplane, v_p c_q - v_q c_p for the values
    v = <c, row>, when p and q are adjacent: when the rows tight on both,
    n - 2 at least, are tight on no third ray.  So the work follows the
    rays found, not the subsets of rows."""
    basis, minors = [], [1]
    for i, r in enumerate(rows):
        step = linalg.laplace_step(minors, r, len(basis) + 1)
        if any(step):
            basis.append(i)
            minors = step
            if len(basis) == n:
                break
    else:
        return None
    full = sum(1 << i for i in basis)
    rays, masks = [], []
    for i in basis:
        c = linalg.cross([rows[j] for j in basis if j != i], n)
        g = math.gcd(*c)
        if sum(map(operator.mul, c, rows[i])) > 0:
            g = -g
        rays.append(tuple(x // g for x in c))
        masks.append(full ^ 1 << i)
    for i, r in enumerate(rows):
        if full >> i & 1:
            continue
        bit = 1 << i
        values = [sum(map(operator.mul, c, r)) for c in rays]
        fail = [k for k, v in enumerate(values) if v > 0]
        joined, joined_masks = [], []
        for q, vq in enumerate(values):
            if vq >= 0:
                continue
            for p in fail:
                m = masks[p] & masks[q]
                if m.bit_count() < n - 2 or [m & o for o in masks].count(m) > 2:
                    continue
                vp = values[p]
                c = tuple(vp * a - vq * b for a, b in zip(rays[q], rays[p]))
                g = math.gcd(*c)
                joined.append(tuple(x // g for x in c))
                joined_masks.append(m | bit)
        keep = [k for k, v in enumerate(values) if v <= 0]
        rays = [rays[k] for k in keep] + joined
        masks = [masks[k] if values[k] else masks[k] | bit for k in keep] + joined_masks
    return list(zip(rays, masks))


def hull_facets(points: Sequence[Vec], dim: int) -> list[tuple[tuple[int, ...], Fraction, int]]:
    """All supporting hyperplanes (primitive a, b) of a full-dimensional
    point set, <a, x> <= b inside, each with the bitmask of the points on
    it; a set that is not full-dimensional is refused.  Each is a cone ray
    (a, B) of the integer rows (L p, -1), L the lcm of the denominators,
    read as <a, x> <= B / L."""
    scale = math.lcm(*(c.denominator for p in points for c in p))
    rays = _cone_rays([(*(c.numerator * (scale // c.denominator) for c in p), -1) for p in points],
                      dim + 1)
    if rays is None:
        raise ValueError("polytope is not full-dimensional")
    facets = []
    for (*a, b), on in rays:
        g = math.gcd(*a)
        facets.append((tuple(c // g for c in a), Fraction(b, g * scale), on))
    return facets


def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of mask, ascending."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


class Polytope:
    """Bounded, full-dimensional rational polytope in dimension <= 4."""

    def __init__(self, dim: int, vertices: Sequence[Sequence]):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension {dim} outside [1, {MAX_DIM}]")
        pts = sorted({linalg.vec(v) for v in vertices})
        if any(len(p) != dim for p in pts):
            raise ValueError("vertex dimension mismatch")
        planes = sorted(hull_facets(pts, dim))
        # keep extreme points only: point j is a vertex iff it is the only
        # point on every facet through it, iff the AND of the point masks of
        # those facets is bit j
        through = [(1 << len(pts)) - 1] * len(pts)
        for *_, on in planes:
            for j in _bits(on):
                through[j] &= on
        kept = [j for j, m in enumerate(through) if m == 1 << j]
        self.dim = dim
        self.vertices: tuple[Vec, ...] = tuple(pts[j] for j in kept)
        self.inequalities: tuple[tuple[tuple[int, ...], Fraction], ...] = tuple(
            (a, b) for a, b, _ in planes
        )
        # each facet's vertex set, bit v for vertex v: every face is cut
        # from these masks
        self._facet_masks: tuple[int, ...] = tuple(
            sum(1 << v for v, j in enumerate(kept) if on >> j & 1) for *_, on in planes
        )
        # Data derived from P alone, each built on first use and kept, as is
        # the face lattice: each ridge's facets and dihedral angle and the
        # codim-2 data (both filled by eak.local_data), the integer volume
        # of each face over L P and the minor gcd of each set of two or more
        # normals, both by tight-row bitmask, and the solid-angle table (an
        # eak.oracle.AngleTable).
        self._ridges: dict | None = None
        self._codim2_data: tuple | None = None
        self._lattice_volumes: dict[int, int] = {}
        self._minor_gcds: dict[int, int] = {}
        self._angle_table = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_inequalities(dim: int, rows: Sequence[tuple[Sequence[int], object]]) -> "Polytope":
        """P = {x : <a, x> <= b}: each cone ray (y, s) of the rows (a, -b) and
        (0, ..., 0, -1), in integers, is a vertex y / s or, at s = 0, a
        recession ray."""
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension {dim} outside [1, {MAX_DIM}]")
        cone = [(0,) * dim + (-1,)]
        for a, b in rows:
            if len(a) != dim:
                raise ValueError(f"inequality normal has {len(a)} entries, expected dim = {dim}")
            row = [Fraction(c) for c in a] + [-Fraction(b)]
            scale = math.lcm(*(c.denominator for c in row))
            cone.append(tuple(int(c * scale) for c in row))
        rays = _cone_rays(cone, dim + 1)
        if rays is None:
            raise ValueError("unbounded polyhedron (normals do not span)")
        if any(not s for (*_, s), _ in rays):
            raise ValueError("unbounded polyhedron (recession ray)")
        if not rays:
            raise ValueError("empty polytope")
        return Polytope(dim, [[Fraction(c, s) for c in y] for (*y, s), _ in rays])

    @staticmethod
    def from_json(data: dict) -> "Polytope":
        parse_json(dict, data, "a polytope")
        if "dim" not in data:
            raise ValueError("missing 'dim'")
        dim = parse_int(data["dim"], "'dim'")
        has_v = "vertices" in data
        has_h = "inequalities" in data
        if has_v == has_h:
            raise ValueError("exactly one of 'vertices' or 'inequalities' required")
        if has_v:
            verts = [[parse_rat(c, "a vertex") for c in parse_json(list, v, "a vertex")]
                     for v in parse_json(list, data["vertices"], "'vertices'")]
            return Polytope(dim, verts)
        try:
            rows = [([parse_int(c, "an entry of 'a'") for c in parse_json(list, row["a"], "'a'")],
                     parse_rat(row["b"], "'b'"))
                    for r in parse_json(list, data["inequalities"], "'inequalities'")
                    for row in [parse_json(dict, r, "an inequality")]]
        except KeyError as exc:
            raise ValueError(f"missing {exc} in an inequality") from None
        return Polytope.from_inequalities(dim, rows)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [[format_rational(c) for c in v] for v in self.vertices],
        }

    # -- faces ------------------------------------------------------------

    @functools.cached_property
    def _lattice(self) -> list[dict[Face, list[Face]]]:
        """The face lattice, cut once: level c maps each face of codimension
        c, in the order of faces_of_codim, to its facets, the inclusion-
        maximal nonempty cuts of its vertex set by the vertex sets of the
        facets of P not containing it, each tight on the facets of P whose
        vertex sets contain it.  Vertex sets are cut as bitmasks, and each
        face is built the first time its cut appears."""
        masks = self._facet_masks
        faces = [(m, Face(1 << i, _bits(m), self.dim - 1, 1)) for i, m in enumerate(masks)]
        levels = [{Face(0, tuple(range(len(self.vertices))), self.dim, 0):
                   [F for _, F in faces]}]
        while faces:
            level, made = {}, {}
            for own, F in faces:
                cuts = {own & m for i, m in enumerate(masks) if not F.tight >> i & 1}
                cuts.discard(0)
                kept = []
                for cut in cuts:
                    if any(cut != other and cut & other == cut for other in cuts):
                        continue
                    G = made.get(cut)
                    if G is None:
                        G = made[cut] = Face(
                            sum(1 << i for i, m in enumerate(masks) if cut & m == cut),
                            _bits(cut), F.dim - 1, F.codim + 1)
                    kept.append(G)
                level[F] = kept
            levels.append(level)
            faces = sorted(made.items(), key=lambda item: item[1].vertex_ids)
        return levels

    def faces_of_codim(self, c: int) -> list[Face]:
        """The faces of codimension c: P itself for c = 0, the facets in
        inequality order for c = 1, and for c >= 2 the facets of the faces
        of codimension c - 1, sorted by their vertex ids; none for c > dim."""
        if c < 0:
            raise ValueError(f"negative codimension {c}")
        return list(self._lattice[c]) if c <= self.dim else []

    def facets(self) -> list[Face]:
        return self.faces_of_codim(1)

    def codim2_faces(self) -> list[Face]:
        return self.faces_of_codim(2)

    # -- metric data ------------------------------------------------------

    def volume(self) -> Fraction:
        """Euclidean volume: the relative volume of P as its own face."""
        return self.relative_volume(self.faces_of_codim(0)[0])

    @functools.cached_property
    def _dilate(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """L, the lcm of the vertex denominators, and the integer vertices
        of L P, in vertex order."""
        L = math.lcm(*(c.denominator for v in self.vertices for c in v))
        return L, tuple(tuple(c.numerator * (L // c.denominator) for c in v) for v in self.vertices)

    def denominator(self) -> int:
        return self._dilate[0]

    def minor_gcd(self, tight: int) -> int:
        """g(R), the gcd of the maximal minors of the normals R whose bits
        are set in tight: 1 for no normal or one, which is primitive, and
        else kept by tight; at a ridge it is the k of its codim-2 data."""
        if tight.bit_count() < 2:
            return 1
        g = self._minor_gcds.get(tight)
        if g is None:
            normals = [self.inequalities[i][0] for i in _bits(tight)]
            g = self._minor_gcds[tight] = math.gcd(*linalg.maximal_minors(normals).values())
        return g

    def relative_volume(self, face: Face) -> Fraction:
        """Face volume normalized to the integer lattice of its span; 1 for
        a vertex, by convention, and the lattice length for an edge: the
        integer lattice_volume(face), kept per face, over dim! L^dim."""
        return Fraction(self.lattice_volume(face),
                        math.factorial(face.dim) * self.denominator() ** face.dim)

    def lattice_volume(self, face: Face) -> int:
        """N(F) = dim(F)! vol*(L F), an integer since L F has integer
        vertices; each face's pyramid sum runs once."""
        N = self._lattice_volumes.get(face.tight)
        if N is None:
            N = self._lattice_volumes[face.tight] = self._pyramid_volume(face)
        return N

    def _pyramid_volume(self, face: Face) -> int:
        """N(F): 1 at a vertex, the gcd of the edge vector at an edge, and
        for dim F >= 2 the sum over the facets G of F of N(G) h_G.

        F is the union of the pyramids from its first vertex p over its
        facets G, and h_G is the lattice height of p over G in the lattice
        of F: (<v, w> - <v, p>) g(R) / g(R + v), for w a vertex of G, R the
        tight normals of F and v a normal tight on G but not on F.  The
        values of <v, .> on the lattice of F are the multiples of
        g(R + v) / g(R), so the division is exact.  This needs R
        independent.  In dimension <= 4 it is: a face of dimension >= 2 is
        P (R empty), a facet, or a ridge, and a ridge lies in exactly two
        facets."""
        if face.dim == 0:
            return 1
        points = self._dilate[1]
        p = points[face.vertex_ids[0]]
        if face.dim == 1:
            return math.gcd(*map(operator.sub, points[face.vertex_ids[1]], p))
        g = self.minor_gcd(face.tight)
        total = 0
        for G in self._lattice[face.codim][face]:
            new = G.tight & ~face.tight
            v = new & -new  # the lowest new row
            rise = sum(map(operator.mul, self.inequalities[v.bit_length() - 1][0],
                           map(operator.sub, points[G.vertex_ids[0]], p)))
            total += self.lattice_volume(G) * (rise * g // self.minor_gcd(face.tight | v))
        return total

    def __repr__(self) -> str:
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)})"


# ---------------------------------------------------------------------------
# JSON fields, read by Polytope.from_json and LatticeSumProblem.from_json;
# each refusal names its field

def parse_int(value, field: str) -> int:
    """An integer or an integer string, read by parse_integer; a float or
    a boolean is refused, and so is a string of more digits than
    parse_integer reads, by its count and not its digits."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return parse_integer(value)
        except ValueError as exc:
            # parse_integer's one refusal that is not of the grammar
            if not str(exc).startswith("not an integer"):
                raise ValueError(f"{field} must be an integer, got {exc}") from None
    raise ValueError(f"{field} must be an integer, got {value!r}")


def parse_json(kind: type, value, field: str):
    """value, if it is a JSON array (kind list) or object (kind dict)."""
    if type(value) is not kind:
        raise ValueError(f"{field} must be a JSON {'array' if kind is list else 'object'}, "
                         f"got {value!r}")
    return value


def parse_rat(value, field: str) -> Fraction:
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise ValueError(f"{field}: {exc}") from None
    if type(value) is int:
        return Fraction(value)
    raise ValueError(f"{field}: rationals must be strings 'p/q' or integers, got {value!r}")

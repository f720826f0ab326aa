"""Brute-force ground truth: exact lattice-point counts, solid angles
and interpolation of quasi-coefficients from samples.

The solid angle of tP is constant on the relative interior of each face,
and the set of inequalities tight at a point of tP is the tight set of
the face of P whose dilate holds the point in its relative interior.
face_counts scans the dilations of one t (eak verify's t0 + j m, t0 in
(0, m] the representative of the class of its t) in one boundary pass of
the line scan, over the lines of each dilation's own box, and returns
per dilation the interior count and the boundary counts by tight set,
each set read from the slacks of the point's line and packed into the
bits of one integer, the Face.tight of the face that holds the point;
count_points sums the line lengths and builds no boundary points.
The face lattice of P gives that face's codimension, and one rule the
angle: 1 inside, 1/2 on a facet, the dihedral angle omega_G of the local
data on a codim-2 face, and on a codim-3 face (a vertex of a 3-polytope,
an edge of a 4-polytope) Girard's theorem on the transverse cone: half
the sum of its dihedral angles less (n - 2)/4 for n facets.
The vertices of a 4-polytope have no exact rule: a sum that meets one
refuses.  Each polytope keeps one AngleTable: one arccos basis, the
canonical terms of its dihedral angles, and per face one sparse integer
row, D = 48 times the face's angle over that basis with Girard's rule
folded in.  So A_P(t), times D, is the integer vector
interior * D * e_0 + sum of n_F * row_F, and it becomes one ExactValue
only when it is read.  Interpolation applies one integer Lagrange matrix
to rational or integer-vector samples: eak verify interpolates those
vectors and reads each coefficient back as one ExactValue."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

from eak import linalg, local_data
from eak.exactval import AngleValue, ExactValue, exact_sum
from eak.polytope import Polytope, _bits

ENUMERATION_BUDGET = 10**7
INT64_LIMIT = 2**63
VERTEX_REFUSAL = "no exact solid angle at a vertex of a 4-polytope"
# A dihedral angle's canonical term has its rational part in (1/24)Z and
# its basis coefficient +-1 (AngleValue.canonical_term), and Girard's rule
# halves these: every solid angle of a polytope of dimension <= 4 is in
# (1/48)(Z + Z theta_1 + ... + Z theta_n) over its arccos basis theta_i.
ANGLE_DENOMINATOR = 48


class BudgetExceeded(ValueError):
    """A refusal: an enumeration past ENUMERATION_BUDGET, or a scan whose
    integers would leave int64."""


# ---------------------------------------------------------------------------
# point enumeration

def _scaled_system(P: Polytope, t: Fraction):
    """Integer system A x <= C equivalent to x in t*P, as int64 arrays,
    plus the integer bounding box lo, hi of t*P, as lists of ints: the
    checked input of every scan.  Refuses t <= 0 (ValueError), a row whose
    slack c - <a, x> over the box could leave int64, where the scan would
    wrap silently, and a box of more than ENUMERATION_BUDGET points
    (BudgetExceeded)."""
    import numpy as np

    if t <= 0:
        raise ValueError("positive dilation required")
    # t = p / q > 0 and the vertices of L P are integer: the coordinate j
    # of t*P spans [p min_j / (L q), p max_j / (L q)]
    L, points = P._dilate
    p, q = t.numerator, L * t.denominator
    columns = list(zip(*points))
    lo = [p * min(c) // q for c in columns]
    hi = [-(-p * max(c) // q) for c in columns]
    reach = [max(abs(lo_j), abs(hi_j)) for lo_j, hi_j in zip(lo, hi)]
    rows_a = []
    rows_c = []
    for a, b in P.inequalities:
        # b = B / L with B an integer, so b t = B p / q; in lowest terms it is
        # C / n, and the facet's integer row is <n a, x> <= C
        Bp = b.numerator * (L // b.denominator) * p
        g = math.gcd(Bp, q)
        C, n = Bp // g, q // g
        row = [n * x for x in a]
        bound = sum(abs(x) * r for x, r in zip(row, reach)) + abs(C)
        if bound >= INT64_LIMIT:
            raise BudgetExceeded(
                f"the scaled system at t={t} needs integers up to {bound}, "
                f"beyond the int64 limit 2**63"
            )
        rows_a.append(row)
        rows_c.append(C)
    size = math.prod(h - l + 1 for l, h in zip(lo, hi))
    if size > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"bounding box has {size} candidate points "
                             f"(budget {ENUMERATION_BUDGET})")
    return np.array(rows_a, dtype=np.int64), np.array(rows_c, dtype=np.int64), lo, hi


def count_points(P: Polytope, t) -> int:
    """|tP cap Z^d|: the sum of the line lengths of the scan of t*P, with
    no boundary point built."""
    from eak import _kernels

    return _kernels.count_box(*_scaled_system(P, Fraction(t)))


def face_counts(P: Polytope, ts) -> list[tuple[int, dict[int, int]]]:
    """The scans of s*P by face, for each s in ts: the interior count and,
    for each tight set met on the boundary, the number of its points.  A
    tight set is keyed by the integer whose bit i is set iff inequality i
    is tight, exact for any number of facets.  One boundary pass of the
    line scan runs over the lines of every dilation's own box, not over a
    box holding them all, and reads each point's tight set from the
    slacks of its line; a dilation that _scaled_system refuses refuses
    the whole call."""
    import numpy as np

    from eak import _kernels

    scans = _kernels.scan_faces([_scaled_system(P, Fraction(s)) for s in ts])
    result = []
    for interior, tight in scans:
        # each point's tight rows, packed little-endian into bytes: one key a point
        packed = np.packbits(tight, axis=1, bitorder="little")
        width, data = packed.shape[1], packed.tobytes()
        counts = Counter(data[i:i + width] for i in range(0, len(data), width))
        result.append((interior, {int.from_bytes(key, "little"): n for key, n in counts.items()}))
    return result


# ---------------------------------------------------------------------------
# solid angles

def _transverse_angle(P: Polytope, tight: int) -> ExactValue | None:
    """Solid angle of P on the relative interior of the face whose
    Face.tight is `tight`, the key face_counts gives its points, by that
    face's codimension c in the face lattice of P: the per-face reference
    for AngleTable's rows.  At c = 2 it is the face's dihedral angle omega;
    at c = 3 the dihedral angles of the transverse cone sit at the codim-2
    faces of P whose tight rows are among these; at c = 4, a vertex of a
    4-polytope, there is no exact rule and the angle is None."""
    c = next(
        (F.codim for k in range(P.dim + 1) for F in P.faces_of_codim(k) if F.tight == tight),
        None,
    )
    if c is None:
        raise RuntimeError(f"no face of P has the tight set {list(_bits(tight))}")
    if c == 0:
        return ExactValue.of(1)
    if c == 1:
        return ExactValue.of(Fraction(1, 2))
    codim2 = local_data.all_codim2_data(P)
    if c == 2:
        return next(g.omega for g in codim2 if g.face.tight == tight)
    if c == 3:
        turns = [g.omega for g in codim2 if g.face.tight & tight == g.face.tight]
        return exact_sum(turns) / 2 - Fraction(tight.bit_count() - 2, 4)
    return None


class AngleTable:
    """The solid angles of P as integer rows over one arccos basis.

    The basis, `angles`, holds the distinct canonical arccos terms of P's
    dihedral angles, sorted by cos^2.  The row of a face, keyed by its
    Face.tight, is D = ANGLE_DENOMINATOR times its solid angle, as
    the sparse pairs (i, n): n/D at i = 0 is the rational part, and n/D at
    i >= 1 the coefficient of arccos(angles[i - 1])/(2pi); a vertex of a
    4-polytope has the row None.  Every face's row is built with the
    table, since a scan's tight set is always that of a face of P."""

    def __init__(self, P: Polytope):
        # the dihedral angles of the ridge records: no angle sum reads the
        # rest of the local data (h, k, volumes)
        terms = [(tight, c_G.canonical_term)
                 for tight, (_, _, c_G) in local_data.ridges(P).items()]
        basis = sorted({cs for _, (_, s, cs) in terms if s})
        self.angles = tuple(AngleValue(1, cs) for cs in basis)
        index = {cs: i for i, cs in enumerate(basis, 1)}
        # each ridge's dihedral angle: (D/2 times its rational part, basis
        # index, coefficient +-1 or 0), so Girard's halves stay integers
        self._ridges = {}
        for tight, (rat, s, cs) in terms:
            half = rat * ANGLE_DENOMINATOR / 2
            if half.denominator != 1:
                raise RuntimeError(f"a dihedral angle of P has a rational part {rat} "
                                   f"outside (2/{ANGLE_DENOMINATOR}) Z")
            self._ridges[tight] = (half.numerator, index.get(cs, 0), s)
        self.rows: dict[int, tuple[tuple[int, int], ...] | None] = {
            F.tight: self._row(F.tight, c) for c in range(1, P.dim + 1) for F in P.faces_of_codim(c)
        }

    def _row(self, key: int, c: int) -> tuple[tuple[int, int], ...] | None:
        """D times the solid angle on the face of codimension c with
        tight rows key."""
        D = ANGLE_DENOMINATOR
        if c == 1:
            return ((0, D // 2),)
        if c == 2:
            half, i, s = self._ridges[key]
            return ((0, 2 * half), (i, s * D)) if s else ((0, 2 * half),)
        if c == 3:
            # Girard: half the sum of the dihedral angles, less (n - 2)/4
            row = {0: -(D // 4) * (key.bit_count() - 2)}
            for bits, (half, i, s) in self._ridges.items():
                if bits & key == bits:
                    row[0] += half
                    if s:
                        row[i] = row.get(i, 0) + s * D // 2
            return tuple(sorted((i, x) for i, x in row.items() if x))
        return None

    def vector(self, interior: int, counts: dict[int, int]) -> tuple[list[int], int]:
        """D times A_P(t) from the scan (interior, counts) of t*P, one
        entry of face_counts(P, ts), as the integer vector over (1, basis),
        less the points at a vertex of a 4-polytope, and the number of
        those points."""
        rows = self.rows
        total = [interior * ANGLE_DENOMINATOR] + [0] * len(self.angles)
        left_out = 0
        for key, n in counts.items():
            row = rows[key]
            if row is None:
                left_out += n
                continue
            for i, x in row:
                total[i] += n * x
        return total, left_out

    def value(self, vector: Sequence) -> ExactValue:
        """The ExactValue of vector / D over (1, basis)."""
        return ExactValue.on_basis([Fraction(x) / ANGLE_DENOMINATOR for x in vector], self.angles)


def angle_table(P: Polytope) -> AngleTable:
    """P's AngleTable, built on first use and kept on P."""
    if P._angle_table is None:
        P._angle_table = AngleTable(P)
    return P._angle_table


def solid_angle_at(P: Polytope, x: Sequence, t=1) -> ExactValue:
    """Exact solid angle of t*P at the point x (0 when x is outside);
    refused at a vertex of a 4-polytope."""
    t = Fraction(t)
    x = linalg.vec(x)
    slacks = [b * t - linalg.dot(a, x) for a, b in P.inequalities]
    if min(slacks) < 0:
        return ExactValue.of(0)
    tight = sum(1 << i for i, slack in enumerate(slacks) if slack == 0)
    angle = _transverse_angle(P, tight)
    if angle is None:
        raise ValueError(VERTEX_REFUSAL)
    return angle


def solid_angle_sum(P: Polytope, t) -> ExactValue:
    """A_P(t): the sum of solid angles of t*P over the integer points;
    refused when a point is a vertex of a 4-polytope.  One integer vector
    from the scan by face and P's AngleTable, read as one ExactValue."""
    table = angle_table(P)
    vector, left_out = table.vector(*face_counts(P, [t])[0])
    if left_out:
        raise ValueError(VERTEX_REFUSAL)
    return table.value(vector)


# ---------------------------------------------------------------------------
# coefficient extraction and consistency checks

def _lagrange_matrix(ts: Sequence[Fraction]) -> tuple[list[list[int]], int]:
    """(M, W) in integers with coefficient r (highest degree first) of the
    polynomial through (t_j, v_j) equal to sum_j M[r][j] v_j / W.  On the
    integer nodes u_j = T t_j, T the lcm of the denominators, Lagrange's
    basis is N_j(s) / w_j with N_j = prod_{i != j} (s - u_i) and
    w_j = N_j(u_j); p(t) = q(T t) scales the s^k coefficient by T^k."""
    T = math.lcm(*(t.denominator for t in ts))
    us = [t.numerator * (T // t.denominator) for t in ts]
    degree = len(us) - 1
    nums, ws = [], []
    for j, u in enumerate(us):
        poly, w = [1], 1
        for i, v in enumerate(us):
            if i != j:
                poly = [a - v * b for a, b in zip(poly + [0], [0] + poly)]
                w *= u - v
        nums.append(poly)
        ws.append(w)
    W = math.lcm(*ws)
    matrix = [[N[r] * (W // w) * T ** (degree - r) for N, w in zip(nums, ws)]
              for r in range(degree + 1)]
    return matrix, W


def interpolate_coefficients(samples: Sequence[tuple], degree: int):
    """Polynomial coefficients (highest degree first) from degree+1 exact
    samples (t_j, value_j), by one integer Lagrange matrix applied over
    one common denominator.  Values are rationals or integer vectors
    (tuples or lists of one length); the coefficients are tuples of
    Fractions for vectors, and else Fractions.  A solid-angle sum is
    interpolated as its AngleTable vector and read back with
    AngleTable.value."""
    if len(samples) != degree + 1:
        raise ValueError(f"need {degree + 1} samples for degree {degree}")
    ts = [Fraction(t) for t, _ in samples]
    if len(set(ts)) != len(ts):
        raise ValueError("duplicate sample points make the system singular")
    values = [v for _, v in samples]
    vector = isinstance(values[0], (tuple, list))
    rows = [list(v) for v in values] if vector else [[Fraction(v)] for v in values]
    # one denominator Q for all samples (ints and Fractions), then integer sums only
    Q = math.lcm(*(x.denominator for row in rows for x in row))
    ints = [[x.numerator * (Q // x.denominator) for x in row] for row in rows]
    matrix, den = _lagrange_matrix(ts)
    coeffs = [[Fraction(sum(m * row[i] for m, row in zip(weights, ints)), den * Q)
               for i in range(len(ints[0]))]
              for weights in matrix]
    if vector:
        return [tuple(c) for c in coeffs]
    return [c[0] for c in coeffs]


def appendixA_cross_check(P: Polytope, t) -> ExactValue:
    """A_P(t) by the per-point reference: the interior count plus
    solid_angle_at at every boundary point, added one by one, with no
    grouping by face; solid_angle_sum is checked against it."""
    from eak import _kernels

    t = Fraction(t)
    interior, boundary = _kernels.scan_box(*_scaled_system(P, t))
    total = ExactValue.of(interior)
    for row in boundary:
        total = total + solid_angle_at(P, tuple(int(c) for c in row), t)
    return total

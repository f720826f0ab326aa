"""Brute-force ground truth: exact lattice-point counts, solid angles
and Newton interpolation of quasi-coefficients from samples.

The solid angle of tP is constant on the relative interior of each face,
and the set of inequalities tight at a point of tP is the tight set of
the face of P whose dilate holds the point in its relative interior.
The face lattice of P gives that face's codimension, and one rule the
angle: 1 inside, 1/2 on a facet, the dihedral angle c_G of the local
data on a codim-2 face, and on a codim-3 face (a vertex of a 3-polytope,
an edge of a 4-polytope) Girard's theorem on the transverse cone: half
the sum of its dihedral angles less (n - 2)/4 for n facets.
The vertices of a 4-polytope have no exact rule: a sum that meets one
refuses.  So A_P(t) is the interior count plus, for each tight set met
on the boundary, its point count times one angle, and that angle, kept
on the polytope, serves every t > 0."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from eak import linalg, local_data
from eak.exactval import ExactValue, exact_sum
from eak.polytope import Polytope

if TYPE_CHECKING:
    import numpy as np

ENUMERATION_BUDGET = 10**7
INT64_LIMIT = 2**63
VERTEX_REFUSAL = "no exact solid angle at a vertex of a 4-polytope"


class BudgetExceeded(ValueError):
    """A refusal: an enumeration past ENUMERATION_BUDGET, or a scan whose
    integers would leave int64."""


# ---------------------------------------------------------------------------
# point enumeration

def _scaled_system(P: Polytope, t: Fraction):
    """Integer system A x <= C equivalent to x in t*P, as int64 arrays,
    plus the integer bounding box lo, hi of t*P, as lists of ints.  Refuses
    when a row's slack c - <a, x> over the box could leave int64, where
    the scan would wrap silently."""
    import numpy as np

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
        bound = sum(abs(x) * r for x, r in zip(row, reach)) + abs(c.numerator)
        if bound >= INT64_LIMIT:
            raise BudgetExceeded(
                f"the scaled system at t={t} needs integers up to {bound}, "
                f"beyond the int64 limit 2**63"
            )
        rows_a.append(row)
        rows_c.append(c.numerator)
    return np.array(rows_a, dtype=np.int64), np.array(rows_c, dtype=np.int64), lo, hi


def _enumerate(P: Polytope, t: Fraction):
    """(interior count, boundary points, A, C) of the scan of t*P, where
    A x <= C is the integer system of t*P; refused (BudgetExceeded) when
    the box holds more than ENUMERATION_BUDGET points."""
    from eak import _kernels

    if t <= 0:
        raise ValueError("positive dilation required")
    A, C, lo, hi = _scaled_system(P, t)
    size = math.prod(h - l + 1 for l, h in zip(lo, hi))
    if size > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"bounding box has {size} candidate points "
                             f"(budget {ENUMERATION_BUDGET})")
    return (*_kernels.scan_box(A, C, lo, hi), A, C)


def count_points(P: Polytope, t) -> int:
    """|tP cap Z^d| by the exact line scan."""
    interior, boundary, _, _ = _enumerate(P, Fraction(t))
    return interior + len(boundary)


# ---------------------------------------------------------------------------
# solid angles

def _transverse_angle(P: Polytope, tight: tuple[int, ...]) -> ExactValue | None:
    """Solid angle of P on the relative interior of the face with tight
    inequality set `tight`, by that face's codimension c in the face
    lattice of P.  At c = 2 it is the face's dihedral angle omega; at c = 3
    the dihedral angles of the transverse cone sit at the codim-2 faces of
    P inside the tight set; at c = 4, a vertex of a 4-polytope, there is
    no exact rule and the angle is None."""
    inside = frozenset(tight)
    c = next(
        (F.codim for k in range(P.dim + 1) for F in P.faces_of_codim(k) if F.tight_set == inside),
        None,
    )
    if c is None:
        raise RuntimeError(f"no face of P has the tight set {sorted(inside)}")
    if c == 0:
        return ExactValue.of(1)
    if c == 1:
        return ExactValue.of(Fraction(1, 2))
    codim2 = local_data.all_codim2_data(P)
    if c == 2:
        return next(g.omega for g in codim2 if g.face.tight_set == inside)
    if c == 3:
        turns = [g.omega for g in codim2 if g.face.tight_set <= inside]
        return exact_sum(turns) / 2 - Fraction(len(tight) - 2, 4)
    return None


def solid_angle_at(P: Polytope, x: Sequence, t=1) -> ExactValue:
    """Exact solid angle of t*P at the point x (0 when x is outside);
    refused at a vertex of a 4-polytope."""
    t = Fraction(t)
    x = linalg.vec(x)
    if not P.contains(x, t):
        return ExactValue.of(0)
    tight = tuple(i for i, (a, b) in enumerate(P.inequalities) if linalg.dot(a, x) == b * t)
    angle = _transverse_angle(P, tight)
    if angle is None:
        raise ValueError(VERTEX_REFUSAL)
    return angle


def solid_angle_sum(P: Polytope, t) -> ExactValue:
    """A_P(t): the sum of solid angles of t*P over the integer points;
    refused when a point is a vertex of a 4-polytope.

    Boundary points are grouped by their tight rows (exact in int64, as
    _scaled_system bounds every row), and each group adds its count times
    the angle of its face.  The angle does not depend on t > 0, so it is
    kept in P._face_angles for every later t."""
    total, left_out = _angle_sum(P, *_enumerate(P, Fraction(t)))
    if left_out:
        raise ValueError(VERTEX_REFUSAL)
    return total


def _angle_sum(P: Polytope, interior: int, boundary: np.ndarray, A, C) -> tuple[ExactValue, int]:
    """A_P(t) from the scan (interior, boundary, A, C) of t*P, less the
    points at a vertex of a 4-polytope, and the number of those points."""
    import numpy as np

    patterns, counts = np.unique(boundary @ A.T == C, axis=0, return_counts=True)
    angles = P._face_angles
    terms = [ExactValue.of(interior)]
    left_out = 0
    for pattern, n in zip(patterns, counts):
        key = tuple(np.flatnonzero(pattern).tolist())
        if key not in angles:
            angles[key] = _transverse_angle(P, key)
        if angles[key] is None:
            left_out += int(n)
        else:
            terms.append(angles[key] * int(n))
    return exact_sum(terms), left_out


# ---------------------------------------------------------------------------
# coefficient extraction and consistency checks

def interpolate_coefficients(samples: Sequence[tuple], degree: int):
    """Polynomial coefficients (highest degree first) from degree+1 exact
    samples (t_j, value_j), by Newton's divided differences expanded into
    the monomial basis.  Values may be Fractions or ExactValues; the
    coefficients are all ExactValues if any value is one, else Fractions."""
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


def appendixA_cross_check(P: Polytope, t) -> ExactValue:
    """A_P(t) by the per-point reference: the interior count plus
    solid_angle_at at every boundary point, added one by one, with no
    grouping by face; solid_angle_sum is checked against it."""
    t = Fraction(t)
    interior, boundary, _, _ = _enumerate(P, t)
    total = ExactValue.of(interior)
    for row in boundary:
        total = total + solid_angle_at(P, tuple(int(c) for c in row), t)
    return total

"""Independent reference values for the correctness checks.

The lattice points of t*P are found by a plain slab scan written here,
not by ``eak.oracle``.  Boundary points are grouped by the set of
inequalities they make tight: that set names the face of P whose
relative interior holds the point, and the solid angle is constant
there.  So one call of the public ``eak.oracle.solid_angle_at`` per
face gives the exact solid-angle sum.  Quasi-coefficients at t follow by
exact interpolation over the residue class of t modulo the period of P.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from eak.exactval import ExactValue
from eak.oracle import solid_angle_at

# Largest box the checks scan; a bigger one leaves the value to other checks.
CHECK_BOX = 400_000
_INT64_SAFE = 2**62


def _system(P, t: Fraction):
    """Integer rows A x <= C for x in t*P and the box [lo, hi] around t*P."""
    A, C = [], []
    for a, b in P.inequalities:
        c = Fraction(b) * t
        A.append([c.denominator * int(x) for x in a])
        C.append(c.numerator)
    lo = [math.floor(min(v[j] for v in P.vertices) * t) for j in range(P.dim)]
    hi = [math.ceil(max(v[j] for v in P.vertices) * t) for j in range(P.dim)]
    return A, C, lo, hi


def box_size(P, t) -> int:
    _, _, lo, hi = _system(P, Fraction(t))
    return math.prod(h - l + 1 for l, h in zip(lo, hi))


def _slabs(P, t):
    """Per slab x0 = const of the box around t*P: the points, which lie in
    t*P, and which rows each makes tight."""
    t = Fraction(t)
    A, C, lo, hi = _system(P, t)
    reach = max(abs(v) for v in lo + hi)
    bound = max(sum(abs(x) for x in row) * reach + abs(c) for row, c in zip(A, C))
    if bound >= _INT64_SAFE:
        raise OverflowError("check scan would overflow int64")
    A = np.array(A, dtype=np.int64)
    C = np.array(C, dtype=np.int64)
    rest = [np.arange(lo[j], hi[j] + 1, dtype=np.int64) for j in range(1, P.dim)]
    grid = np.stack([g.ravel() for g in np.meshgrid(*rest, indexing="ij")], axis=1)
    pts = np.empty((grid.shape[0], P.dim), dtype=np.int64)
    pts[:, 1:] = grid
    for x0 in range(lo[0], hi[0] + 1):
        pts[:, 0] = x0
        S = pts @ A.T
        yield pts, np.all(S <= C, axis=1), S == C


def boundary_count(P, t) -> int:
    """Lattice points on the boundary of t*P."""
    return sum(int((inside & tight.any(axis=1)).sum()) for _, inside, tight in _slabs(P, t))


def scan(P, t):
    """(interior count, {tight-row pattern: [count, representative point]})."""
    interior = 0
    faces: dict[int, list] = {}
    weights = None
    for pts, inside, tight in _slabs(P, t):
        if weights is None:
            weights = np.array([1 << i for i in range(tight.shape[1])], dtype=object)
        on_boundary = inside & tight.any(axis=1)
        interior += int(inside.sum()) - int(on_boundary.sum())
        if not on_boundary.any():
            continue
        patterns, first, counts = np.unique(
            tight[on_boundary], axis=0, return_index=True, return_counts=True
        )
        where = pts[on_boundary]
        for pattern, i, n in zip(patterns, first, counts):
            key = int(pattern.astype(object) @ weights)
            if key in faces:
                faces[key][0] += int(n)
            else:
                faces[key] = [int(n), tuple(int(c) for c in where[i])]
    return interior, faces


def interpolate(samples, degree: int):
    """Coefficients (highest degree first) of the polynomial through the
    exact samples (t_j, value_j); values may be Fractions or ExactValues."""
    ts = [Fraction(t) for t, _ in samples]
    n = degree + 1
    # Gauss-Jordan on the Vandermonde system, tracking the inverse
    rows = [[t ** (degree - k) for k in range(n)] + [Fraction(int(i == j)) for j in range(n)]
            for i, t in enumerate(ts)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = rows[col][col]
        rows[col] = [x / scale for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    values = [v for _, v in samples]
    coeffs = []
    for i in range(n):
        inv = rows[i][n:]
        total = ExactValue.of(0)
        for w, v in zip(inv, values):
            if w != 0:
                total = total + v * w
        coeffs.append(total)
    return coeffs


class Reference:
    """Oracle values of one polytope, with the face angles cached."""

    def __init__(self, P):
        self.P = P
        self.period = P.denominator()
        self._angles: dict[int, ExactValue] = {}

    def residue(self, t: Fraction) -> Fraction:
        """The representative of t modulo the period in (0, period]."""
        m = self.period
        return t - m * math.ceil(t / m - 1)

    def fits(self, t: Fraction) -> bool:
        top = self.residue(t) + self.P.dim * self.period
        return box_size(self.P, top) <= CHECK_BOX

    def values(self, s: Fraction, angles: bool):
        """(lattice-point count, solid-angle sum or None) of s*P."""
        interior, faces = scan(self.P, s)
        count = interior + sum(n for n, _ in faces.values())
        if not angles:
            return count, None
        total = ExactValue.of(interior)
        for key, (n, point) in faces.items():
            if key not in self._angles:
                self._angles[key] = solid_angle_at(self.P, point, s)
            total = total + self._angles[key] * n
        return count, total

    def coefficients(self, t):
        """(Ehrhart coefficients, solid-angle coefficients or None) at t,
        highest degree first; solid angles only in dimension three."""
        t0 = self.residue(Fraction(t))
        angles = self.P.dim == 3
        ehrhart, solid = [], []
        for j in range(self.P.dim + 1):
            s = t0 + j * self.period
            count, angle_sum = self.values(s, angles)
            ehrhart.append((s, ExactValue.of(count)))
            solid.append((s, angle_sum))
        e = interpolate(ehrhart, self.P.dim)
        a = interpolate(solid, self.P.dim) if angles else None
        return e, a

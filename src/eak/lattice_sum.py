"""Regularized lattice sums over linear-form products.

The exact finite form enumerates dual-lattice points in a fundamental
parallelepiped with solid-angle weights (rank <= 2), in integers: a
dual-lattice point is named by its integer pairings with the lattice
basis, and coordinates come from an adjugate.  The residue form without
angle weights (every exponent at least two) and the damped-series
convergence oracle are the tests' (tests/reference_lattice.py).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from eak import linalg
from eak.bernoulli import MAX_DEGREE, bernoulli_poly
from eak.exactval import ExactValue, angle_of_cos_ratio, exact_sum
from eak.linalg import Vec
from eak.oracle import ENUMERATION_BUDGET, BudgetExceeded
from eak.polytope import parse_int, parse_json, parse_rat


@dataclass(frozen=True)
class LatticeSumProblem:
    """The sum over the lattice with basis columns b_1..b_k in Q^d of the
    linear forms w_1..w_k (columns in its dual lattice) to the exponents
    e, twisted by x in Q^d."""

    basis: tuple[Vec, ...]  # independent columns
    w_columns: tuple[Vec, ...]  # independent columns in the dual lattice
    exponents: tuple[int, ...]
    x: Vec
    # the integer pairing matrix M_ij = <w_j, b_i>
    pairing: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = tuple(linalg.vec(c) for c in self.basis)
        w = tuple(linalg.vec(c) for c in self.w_columns)
        e = tuple(self.exponents)
        x = linalg.vec(self.x)
        if not basis:
            raise ValueError("empty basis")
        d = len(basis[0])
        if any(len(v) != d for v in (*basis, *w, x)):
            raise ValueError(f"every basis column, linear form and x needs {d} entries")
        if not any(linalg.maximal_minors(basis).values()):
            raise ValueError("dependent basis columns")
        if len(w) != len(basis) or len(e) != len(w):
            raise ValueError("need one linear form and exponent per lattice rank")
        if any(type(v) is not int for v in e):
            raise ValueError(f"exponents must be integers, got {e!r}")
        if any(v < 1 for v in e):
            raise ValueError("exponents must be positive")
        if any(v > MAX_DEGREE for v in e):
            raise ValueError(f"exponents must be at most {MAX_DEGREE}, the top Bernoulli degree")
        # the dual lattice is the part of span(basis) with integer pairings
        pairing = tuple(tuple(linalg.dot(c, b) for c in w) for b in basis)
        off_span = any(any(linalg.maximal_minors((*basis, c)).values()) for c in w)
        if off_span or any(v.denominator != 1 for row in pairing for v in row):
            raise ValueError("linear-form columns must lie in the dual lattice")
        pairing = tuple(tuple(int(v) for v in row) for row in pairing)
        if not any(linalg.maximal_minors(pairing).values()):
            raise ValueError("dependent linear forms")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "w_columns", w)
        object.__setattr__(self, "exponents", e)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "pairing", pairing)

    @staticmethod
    def from_json(data: dict) -> "LatticeSumProblem":
        """The problem {"basis": columns, "w": columns, "e": integers,
        "x": rationals}."""
        parse_json(dict, data, "a lattice-sum problem")
        for key in ("basis", "w", "e", "x"):
            if key not in data:
                raise ValueError(f"missing {key!r}")

        def columns(key: str) -> list[list[Fraction]]:
            field = f"a column of {key!r}"
            return [[parse_rat(c, field) for c in parse_json(list, col, field)]
                    for col in parse_json(list, data[key], repr(key))]

        basis, w = columns("basis"), columns("w")
        e = [parse_int(v, "an entry of 'e'") for v in parse_json(list, data["e"], "'e'")]
        x = [parse_rat(c, "'x'") for c in parse_json(list, data["x"], "'x'")]
        return LatticeSumProblem(basis, w, e, x)


def lattice_sum_finite(p: LatticeSumProblem) -> ExactValue:
    """Exact finite form: Bernoulli-weighted, solid-angle-weighted sum over
    dual-lattice points of the parallelepiped spanned by the linear forms.

    A dual-lattice point n is named by z = (<n, b_i>)_i in Z^k, and with
    c = (<x, b_i>)_i its W-coordinates are y = M^(-1)(z - c); so the points
    of x + W[0,1]^k are the z in the integer box of c + M[0,1]^k with
    y = adj(M)(z - c) / det M in [0,1]^k.  Refused (BudgetExceeded) when
    that box has more than ENUMERATION_BUDGET points."""
    k = len(p.basis)
    if k > 2:
        raise ValueError(f"the finite form needs a lattice of rank at most two, got {k}")
    m = p.pairing
    adj, det_m = linalg.adjugate(m)
    if det_m < 0:
        adj, det_m = [tuple(-a for a in row) for row in adj], -det_m
    c = [linalg.dot(p.x, b) for b in p.basis]
    axes = [range(math.ceil(ci + sum(a for a in row if a < 0)),
                  math.floor(ci + sum(a for a in row if a > 0)) + 1) for ci, row in zip(c, m)]
    size = math.prod(len(r) for r in axes)
    if size > ENUMERATION_BUDGET:
        raise BudgetExceeded(
            f"the parallelepiped's box has {size} candidate points (budget {ENUMERATION_BUDGET})"
        )
    # y = num / den with integer numerators: c = cq / q over a common q
    q = math.lcm(*(ci.denominator for ci in c))
    cq = [int(ci * q) for ci in c]
    den = q * det_m
    terms = []
    for z in itertools.product(*axes):
        u = [q * zi - ci for zi, ci in zip(z, cq)]
        num = [sum(a * ui for a, ui in zip(row, u)) for row in adj]
        if any(v < 0 or v > den for v in num):
            continue
        y = [Fraction(v, den) for v in num]
        b_val = math.prod(bernoulli_poly(e, yj) for e, yj in zip(p.exponents, y))
        terms.append(_parallelepiped_angle(p.w_columns, y) * b_val)
    sign = -1 if k % 2 else 1
    fact = math.prod(math.factorial(e) for e in p.exponents)
    return exact_sum(terms) * Fraction(sign, fact * det_m)


def _parallelepiped_angle(w_columns: Sequence[Vec], y: Sequence[Fraction]) -> ExactValue:
    """Solid angle of the parallelepiped W[0,1]^k at the point with
    W-coordinates y in [0,1]^k."""
    on_boundary = [j for j, c in enumerate(y) if c == 0 or c == 1]
    if not on_boundary:
        return ExactValue.of(1)
    if len(on_boundary) == 1:
        return ExactValue.of(Fraction(1, 2))
    # corner of a rank-2 parallelepiped: angle between the inward edges
    # (-1)^{y_0} w_0 and (-1)^{y_1} w_1
    w0, w1 = w_columns
    sign = 1 if y[0] == y[1] else -1
    angle = angle_of_cos_ratio(sign * linalg.dot(w0, w1), linalg.norm_sq(w0) * linalg.norm_sq(w1))
    return ExactValue.angle_turn(angle)

"""Small exact linear algebra over the integers.

Vectors are tuples of Fractions (or ints), matrices are sequences of row
sequences, sized for ambient dimension at most four.  Polytopes, their
local data and the lattice sums are built from integer maximal minors,
cross products and adjugates; the only rational operations are dot
products.  There is no elimination: Fraction Gaussian elimination lives
in the tests, as the reference these are checked against.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from typing import Sequence

Vec = tuple[Fraction, ...]


def vec(entries: Sequence) -> Vec:
    """The entries as Fractions; a Fraction entry is kept as it is."""
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(map(operator.mul, u, v), Fraction(0))


def norm_sq(v: Sequence) -> Fraction:
    return dot(v, v)


@functools.cache
def _laplace_plan(n: int, k: int) -> tuple[tuple, tuple]:
    """The k-subsets of n columns, in lexicographic order, and the terms
    (sign, column, index of the (k - 1)-subset left) of each one's
    expansion along a k-th row."""
    below = {cols: i for i, cols in enumerate(itertools.combinations(range(n), k - 1))}
    keys = tuple(itertools.combinations(range(n), k))
    return keys, tuple(tuple(((-1) ** (k - 1 - i), c, below[cols[:i] + cols[i + 1:]])
                             for i, c in enumerate(cols)) for cols in keys)


def laplace_step(minors: Sequence[int], row: Sequence[int], k: int) -> list[int]:
    """The maximal minors, in lexicographic column order, of k rows: the
    first k - 1 with maximal minors `minors`, in that order, then `row`.
    One step of Laplace expansion along the new row."""
    expanded = []
    for terms in _laplace_plan(len(row), k)[1]:
        total = 0
        for sign, c, i in terms:
            if row[c]:
                total += sign * row[c] * minors[i]
        expanded.append(total)
    return expanded


def maximal_minors(rows: Sequence[Sequence[int]]) -> dict[tuple[int, ...], int]:
    """The maximal minors of an integer (or rational) matrix with no more
    rows than columns, keyed by their column subsets in lexicographic order; {(): 1}
    for no rows.  Built a row at a time, by Laplace expansion along it."""
    keys, minors = ((),), [1]
    for k, row in enumerate(rows, 1):
        keys = _laplace_plan(len(row), k)[0]
        minors = laplace_step(minors, row, k)
    return dict(zip(keys, minors))


def cross(rows: Sequence[Sequence[int]], dim: int) -> tuple[int, ...]:
    """The cross product of dim - 1 integer rows: entry j is (-1)^j times
    the maximal minor leaving out column j, so <cross, x> = det[x; rows],
    zero exactly when the rows are dependent."""
    minors = maximal_minors(rows)
    return tuple((-1) ** j * minors[(*range(j), *range(j + 1, dim))] for j in range(dim))


def adjugate(m: Sequence[Sequence[int]]) -> tuple[list[tuple[int, ...]], int]:
    """The adjugate and the determinant D of a square integer matrix m, so
    adj(m) m = D I: row j of adj(m) is (-1)^j times the cross product of
    the columns of m other than j, and m y = v has y_j = <row j, v> / D."""
    k = len(m)
    cols = list(zip(*m))
    adj = [tuple((-1) ** j * c for c in cross(cols[:j] + cols[j + 1:], k)) for j in range(k)]
    return adj, maximal_minors(m)[tuple(range(k))]


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t

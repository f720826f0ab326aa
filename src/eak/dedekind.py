"""Exact Dedekind and Dedekind-Rademacher sums.

The two-parameter sum is

    s(h, k; x, y) = sum_{r mod k} B1~(h(r+y)/k + x) * B1~((r+y)/k)

with B1~ the periodized first Bernoulli polynomial.  ``dr_sum_direct``
evaluates the definition; ``dr_sum_fast`` descends through the
reciprocity law (Euclidean-style, like computing a gcd) and falls back
to the direct sum for small modulus.
"""

from __future__ import annotations

import math
from fractions import Fraction

from eak.bernoulli import is_integer, periodized

# A descent step costs about as much as a few terms of the direct sum, so
# descending down to a tiny modulus keeps the cost near log(k); a larger
# cutoff makes it grow with k, and the cost of a coefficient table then
# swings with the cone types of the polytope.
_DIRECT_CUTOFF = 4


def _validate(h: int, k: int) -> tuple[int, int]:
    h, k = int(h), int(k)
    if k < 1:
        raise ValueError("modulus k must be positive")
    if h < 0:
        raise ValueError("h must be non-negative; use normalize_args for general h")
    if math.gcd(h, k) != 1:
        raise ValueError(f"gcd({h},{k}) != 1")
    return h, k


def normalize_args(h: int, k: int, x, y) -> tuple[int, int, Fraction, Fraction]:
    """Reduce h into [0, k) via s(h,k;x,y) = s(h-mk,k; x+my, y)."""
    k = int(k)
    if k < 1:
        raise ValueError("modulus k must be positive")
    x, y = Fraction(x), Fraction(y)
    m, h = divmod(int(h), k)
    return h, k, x + m * y, y


def dr_sum_direct(h: int, k: int, x=0, y=0) -> Fraction:
    """s(h,k;x,y) by summing the k definition terms."""
    h, k = _validate(h, k)
    x, y = Fraction(x), Fraction(y)
    total = Fraction(0)
    for r in range(k):
        inner = (r + y) / k
        total += periodized(1, h * inner + x) * periodized(1, inner)
    return total


def dr_sum_fast(h: int, k: int, x=0, y=0) -> Fraction:
    """s(h,k;x,y) via reciprocity descent; equal to dr_sum_direct."""
    h, k = _validate(h, k)
    x, y = Fraction(x), Fraction(y)
    return _fast(h, k, x, y)


def _fast(h: int, k: int, x: Fraction, y: Fraction) -> Fraction:
    h, k, x, y = normalize_args(h, k, x, y)
    if k <= _DIRECT_CUTOFF:
        return dr_sum_direct(h, k, x, y)
    if h == 1 and is_integer(x) and is_integer(y):
        # integral x and y leave the classical sum s(1,k) = (k-1)(k-2)/(12k)
        return Fraction((k - 1) * (k - 2), 12 * k)
    # reciprocity: s(h,k;x,y) = RHS - s(k,h;y,x), with 1 <= h < k
    rhs = _reciprocity_rhs(h, k, x, y)
    return rhs - _fast(k, h, y, x)


def _reciprocity_rhs(h: int, k: int, x: Fraction, y: Fraction) -> Fraction:
    ind = Fraction(1) if is_integer(x) and is_integer(y) else Fraction(0)
    return (
        -Fraction(1, 4) * ind
        + periodized(1, x) * periodized(1, y)
        + Fraction(1, 2)
        * (
            Fraction(h, k) * periodized(2, y)
            + Fraction(1, h * k) * periodized(2, k * x + h * y)
            + Fraction(k, h) * periodized(2, x)
        )
    )


def dedekind_classic(h: int, k: int) -> Fraction:
    """Classical Dedekind sum s(h,k) = s(h,k;0,0)."""
    return dr_sum_fast(h, k, 0, 0)

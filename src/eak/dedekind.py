"""Exact Dedekind and Dedekind-Rademacher sums.

The two-parameter sum is

    s(h, k; x, y) = sum_{r mod k} B1~(h(r+y)/k + x) * B1~((r+y)/k)

with B1~ the periodized first Bernoulli polynomial.  ``dr_sum_scaled``
descends through the reciprocity law (Euclidean-style, like computing a
gcd) on integers, with x and y over one denominator, and sums the
definition directly for small modulus; ``dr_sum_fast`` takes x and y as
rationals and calls it.  The definition and the reciprocity law on
Fractions are the tests' references (tests/reference_dedekind.py).
"""

from __future__ import annotations

import math
from fractions import Fraction

from eak.bernoulli import b1_scaled, b2_scaled

# A descent step costs about as much as a few terms of the direct sum, so
# descending down to a tiny modulus keeps the cost near log(k); a larger
# cutoff makes it grow with k, and the cost of a coefficient table then
# swings with the cone types of the polytope.
_DIRECT_CUTOFF = 4


def _validate(h: int, k: int) -> tuple[int, int]:
    h, k = int(h), int(k)
    if k < 1:
        raise ValueError("modulus k must be positive")
    if math.gcd(h, k) != 1:
        raise ValueError(f"gcd({h},{k}) != 1")
    return h, k


def dr_sum_fast(h: int, k: int, x=0, y=0) -> Fraction:
    """s(h,k;x,y) via reciprocity descent."""
    h, k = _validate(h, k)
    x, y = Fraction(x), Fraction(y)
    q = math.lcm(x.denominator, y.denominator)
    return dr_sum_scaled(h, k, x.numerator * (q // x.denominator),
                         y.numerator * (q // y.denominator), q)


def dr_sum_scaled(h: int, k: int, X: int, Y: int, q: int) -> Fraction:
    """s(h,k;X/q,Y/q) for integers h and k >= 1 coprime and q >= 1.

    The descent carries x = X/q and y = Y/q over the one denominator q:
    the reduction (h mod k, x + m y) and the reciprocity swap (k, h, y, x)
    both keep it, so each step is integer arithmetic ending in one
    Fraction, its reciprocity term."""
    rhs = []  # s = rhs[0] - rhs[1] + rhs[2] - ... +- the sum at the base
    while True:
        m, h = divmod(h, k)
        X += m * Y
        if k <= _DIRECT_CUTOFF:
            value = _direct_scaled(h, k, X, Y, q)
            break
        if h == 1 and X % q == 0 and Y % q == 0:
            # integral x and y leave the classical sum s(1,k) = (k-1)(k-2)/(12k)
            value = Fraction((k - 1) * (k - 2), 12 * k)
            break
        # reciprocity: s(h,k;x,y) = RHS - s(k,h;y,x), with 1 <= h < k
        rhs.append(_reciprocity_rhs_scaled(h, k, X, Y, q))
        h, k, X, Y = k, h, Y, X
    for r in reversed(rhs):
        value = r - value
    return value


def _direct_scaled(h: int, k: int, X: int, Y: int, q: int) -> Fraction:
    # the term r is B1~(a/n) B1~(b/n) = (2a - n)(2b - n)/(4n^2), n = kq, with
    # b = (rq + Y) mod n and a = (h(rq + Y) + kX) mod n; it is 0 where a or b is
    n, total = k * q, 0
    for r in range(k):
        b = (r * q + Y) % n
        a = (h * (r * q + Y) + k * X) % n
        if a and b:
            total += (2 * a - n) * (2 * b - n)
    return Fraction(total, 4 * n * n)


def _reciprocity_rhs_scaled(h: int, k: int, X: int, Y: int, q: int) -> Fraction:
    # s(h,k;x,y) + s(k,h;y,x) at x = X/q and y = Y/q by the reciprocity law,
    #   B1~(x) B1~(y) - [x and y integral]/4
    #     + ((h/k) B2~(y) + B2~(kx + hy)/(hk) + (k/h) B2~(x))/2,
    # over 12hkq^2, by B1~(S/q) = b1_scaled(S, q)/(2q) and
    # B2~(S/q) = b2_scaled(S, q)/(6q^2)
    qq = q * q
    ind = qq if X % q == 0 and Y % q == 0 else 0
    num = (
        3 * h * k * (b1_scaled(X, q) * b1_scaled(Y, q) - ind)
        + h * h * b2_scaled(Y, q)
        + b2_scaled(k * X + h * Y, q)
        + k * k * b2_scaled(X, q)
    )
    return Fraction(num, 12 * h * k * qq)

"""Exact Dedekind and Dedekind-Rademacher sums.

The two-parameter sum is

    s(h, k; x, y) = sum_{r mod k} B1~(h(r+y)/k + x) * B1~((r+y)/k)

with B1~ the periodized first Bernoulli polynomial.  ``dr_sum_scaled``
descends through the reciprocity law (Euclidean-style, like computing a
gcd) on integers, with x and y over one denominator, and sums the
definition directly for small modulus.  It and its two steps,
``_direct_scaled`` and ``_reciprocity_rhs_scaled``, return the value as an
unreduced integer pair (numerator, denominator), so a descent builds no
Fraction; ``dr_sum_fast`` takes x and y as rationals, calls it and wraps
the pair once.  The definition and the reciprocity law on Fractions are
the tests' references (tests/reference_dedekind.py).
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
    """h and k, if both are ints (not booleans), k >= 1 and gcd(h, k) = 1."""
    for name, value in (("h", h), ("k", k)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
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
    return Fraction(*dr_sum_scaled(h, k, x.numerator * (q // x.denominator),
                                   y.numerator * (q // y.denominator), q))


def dr_sum_scaled(h: int, k: int, X: int, Y: int, q: int) -> tuple[int, int]:
    """s(h,k;X/q,Y/q) for integers h and k >= 1 coprime and q >= 1, as an
    unreduced pair (numerator, 4n^2) with n = kq.

    The descent carries x = X/q and y = Y/q over the one denominator q:
    the reduction (h mod k, x + m y) and the reciprocity swap (k, h, y, x)
    both keep it, so every step, its reciprocity term included, is integer
    arithmetic.  Each term of the sum at a level of modulus k is
    (2a - n)(2b - n)/(4n^2) with n = kq (see _direct_scaled), so each
    level's sum is an integer over 4n^2, and the descent carries it so:
    its numbers stay as small as a reduced Fraction's however deep it goes."""
    rhs = []  # (h, k, RHS) per level: s = RHS_0 - RHS_1 + RHS_2 - ... +- the sum at the base
    while True:
        m, h = divmod(h, k)
        X += m * Y
        if k <= _DIRECT_CUTOFF:
            num, _ = _direct_scaled(h, k, X, Y, q)
            break
        if h == 1 and X % q == 0 and Y % q == 0:
            # integral x and y leave the classical sum s(1,k) = (k-1)(k-2)/(12k),
            # over 4n^2; k(k-1)(k-2) is a multiple of 3
            num = k * (k - 1) * (k - 2) * q * q // 3
            break
        # reciprocity: s(h,k;x,y) = RHS - s(k,h;y,x), with 1 <= h < k
        rhs.append((h, k, _reciprocity_rhs_scaled(h, k, X, Y, q)))
        h, k, X, Y = k, h, Y, X
    for h, k, (r_num, _) in reversed(rhs):
        # RHS over 12hkq^2 less the next level's sum over 4h^2q^2, over 4k^2q^2:
        # the division is exact, as this level's sum is an integer over it
        num = (h * r_num - 3 * k * num) * k // (3 * h * h)
    return num, 4 * k * k * q * q


def _direct_scaled(h: int, k: int, X: int, Y: int, q: int) -> tuple[int, int]:
    # the term r is B1~(a/n) B1~(b/n) = (2a - n)(2b - n)/(4n^2), n = kq, with
    # b = (rq + Y) mod n and a = (h(rq + Y) + kX) mod n; it is 0 where a or b is
    n, total = k * q, 0
    for r in range(k):
        b = (r * q + Y) % n
        a = (h * (r * q + Y) + k * X) % n
        if a and b:
            total += (2 * a - n) * (2 * b - n)
    return total, 4 * n * n


def _reciprocity_rhs_scaled(h: int, k: int, X: int, Y: int, q: int) -> tuple[int, int]:
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
    return num, 12 * h * k * qq

"""Bernoulli polynomials, periodizations, and one-sided limits on rationals."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

MAX_DEGREE = 16


@lru_cache(maxsize=None)
def _bernoulli_number(r: int) -> Fraction:
    """B_r with B_1 = -1/2, from the defining recurrence."""
    if r == 0:
        return Fraction(1)
    # sum_{j=0}^{r} C(r+1, j) B_j = 0
    total = Fraction(0)
    for j in range(r):
        total += math.comb(r + 1, j) * _bernoulli_number(j)
    return -total / (r + 1)


@lru_cache(maxsize=None)
def _poly_coefficients(r: int) -> tuple[Fraction, ...]:
    """Coefficients of B_r(x) = sum_j C(r,j) B_j x^(r-j), ascending in x."""
    coeffs = [Fraction(0)] * (r + 1)
    for j in range(r + 1):
        coeffs[r - j] = math.comb(r, j) * _bernoulli_number(j)
    return tuple(coeffs)


def bernoulli_poly(r: int, x) -> Fraction:
    """Exact value of the Bernoulli polynomial B_r at a rational point."""
    if not 0 <= r <= MAX_DEGREE:
        raise ValueError(f"degree {r} outside [0, {MAX_DEGREE}]")
    x = Fraction(x)
    value = Fraction(0)
    for c in reversed(_poly_coefficients(r)):
        value = value * x + c
    return value


def is_integer(x) -> bool:
    return Fraction(x).denominator == 1


def periodized(r: int, x) -> Fraction:
    """B_r(frac(x)), with the degree-1 case set to 0 at integers."""
    if r < 1:
        raise ValueError("periodization needs degree >= 1")
    x = Fraction(x)
    q = x.denominator
    # degree 1 skips the Horner loop over Fractions and is 0 at integers
    if r == 1:
        return Fraction(b1_scaled(x.numerator, q), 2 * q)
    return bernoulli_poly(r, Fraction(x.numerator % q, q))


def b1_scaled(S: int, q: int) -> int:
    """2q B1~(S/q), an integer: 2p - q with p = S mod q, and 0 at p = 0."""
    p = S % q
    return 2 * p - q if p else 0


def b2_scaled(S: int, q: int) -> int:
    """6q^2 B2~(S/q) = 6p^2 - 6pq + q^2 with p = S mod q, an integer."""
    p = S % q
    return 6 * p * (p - q) + q * q


def one_sided_B1(x, side: str) -> Fraction:
    """Right ('plus') or left ('minus') limit of the periodized B_1.

    Off integers both sides agree with periodized(1, x); at integers the
    right limit is -1/2 and the left limit is +1/2.
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    x = Fraction(x)
    if is_integer(x):
        return Fraction(-1, 2) if side == "plus" else Fraction(1, 2)
    return periodized(1, x)

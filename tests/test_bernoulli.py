from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eak.bernoulli import (
    MAX_DEGREE,
    bernoulli_poly,
    is_integer,
    one_sided_B1,
    periodized,
)

from reference_lattice import frac_part

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=24)


def test_polynomial_values():
    assert bernoulli_poly(1, Fraction(0)) == Fraction(-1, 2)
    assert bernoulli_poly(1, Fraction(1, 2)) == 0
    assert bernoulli_poly(2, Fraction(0)) == Fraction(1, 6)
    assert bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)
    assert bernoulli_poly(3, Fraction(1, 3)) == Fraction(1, 27) - Fraction(3, 2) * Fraction(1, 9) + Fraction(1, 2) * Fraction(1, 3)
    with pytest.raises(ValueError):
        bernoulli_poly(MAX_DEGREE + 1, Fraction(0))


def test_frac_part_and_is_integer():
    assert frac_part(Fraction(-7, 3)) == Fraction(2, 3)
    assert frac_part(Fraction(5)) == 0
    assert is_integer(Fraction(4, 2)) and not is_integer(Fraction(1, 2))


def test_periodized_convention_at_integers():
    # degree one vanishes at integers; higher degrees take the polynomial value
    assert periodized(1, Fraction(3)) == 0
    assert periodized(1, Fraction(1, 4)) == Fraction(-1, 4)
    assert periodized(2, Fraction(-2)) == Fraction(1, 6)


def test_one_sided_limits():
    assert one_sided_B1(Fraction(0), "plus") == Fraction(-1, 2)
    assert one_sided_B1(Fraction(0), "minus") == Fraction(1, 2)
    assert one_sided_B1(Fraction(1, 3), "plus") == Fraction(-1, 6)
    assert one_sided_B1(Fraction(1, 3), "minus") == Fraction(-1, 6)


@given(rationals, st.integers(min_value=1, max_value=4), st.integers(min_value=-3, max_value=3))
def test_periodicity(x, r, n):
    assert periodized(r, x + n) == periodized(r, x)
    assert one_sided_B1(x + n, "plus") == one_sided_B1(x, "plus")


@given(rationals, st.integers(min_value=1, max_value=4))
def test_periodized_is_the_polynomial_on_the_fractional_part(x, r):
    # degrees 1 and 2 use closed forms; the Horner evaluation is the reference
    expected = 0 if r == 1 and is_integer(x) else bernoulli_poly(r, frac_part(x))
    assert periodized(r, x) == expected


@given(rationals)
def test_degree_two_symmetry(x):
    assert periodized(2, -x) == periodized(2, x)


@given(rationals)
def test_one_sided_brackets_periodized(x):
    plus = one_sided_B1(x, "plus")
    minus = one_sided_B1(x, "minus")
    mid = periodized(1, x)
    if is_integer(x):
        assert (plus, mid, minus) == (Fraction(-1, 2), 0, Fraction(1, 2))
    else:
        assert plus == mid == minus

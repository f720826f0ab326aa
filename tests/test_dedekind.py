import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eak.dedekind import dr_sum_fast, dr_sum_scaled, _reciprocity_rhs_scaled

from reference_dedekind import (
    _reciprocity_rhs,
    dedekind_classic,
    dr_sum_direct,
    normalize_args,
)

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def test_classic_values():
    # s(1, k) = (k-1)(k-2)/(12k)
    for k in (1, 2, 3, 5, 12):
        assert dedekind_classic(1, k) == Fraction((k - 1) * (k - 2), 12 * k)
    assert dedekind_classic(2, 5) == dr_sum_direct(2, 5)
    # s(k-1, k) = -s(1, k)
    assert dedekind_classic(6, 7) == -dedekind_classic(1, 7)


def test_validation():
    with pytest.raises(ValueError):
        dr_sum_direct(2, 4)
    with pytest.raises(ValueError):
        dr_sum_direct(1, 0)
    with pytest.raises(ValueError):
        dr_sum_fast(1, -3)


@pytest.mark.parametrize("h, k", [(2.7, 5), (2, 5.0), ("2", 5), (2, "5"), (True, 5),
                                  (2, True), (Fraction(2), 5)],
                         ids=("float-h", "float-k", "str-h", "str-k", "bool-h", "bool-k",
                              "Fraction-h"))
def test_validation_refuses_what_is_not_an_int(h, k):
    # int() would read h = 2.7 as 2 and return s(2, 5) = 0
    bad = h if type(h) is not int else k
    with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {bad!r}")):
        dr_sum_fast(h, k)


def test_normalize_args_preserves_value():
    x, y = Fraction(1, 3), Fraction(2, 5)
    h, k, x2, y2 = normalize_args(17, 7, x, y)
    assert 0 <= h < 7
    assert dr_sum_direct(h, 7, x2, y2) == dr_sum_direct(3, 7, x + 2 * y, y)


def test_fast_crosses_direct_cutoff():
    # moduli beyond the direct-evaluation cutoff exercise the descent
    for h, k in [(1, 97), (35, 97), (64, 127), (99, 256)]:
        assert dr_sum_fast(h, k) == dr_sum_direct(h, k)
    x, y = Fraction(5, 12), Fraction(7, 12)
    assert dr_sum_fast(35, 97, x, y) == dr_sum_direct(35, 97, x, y)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    small_rationals,
    small_rationals,
)
def test_reciprocity(h, k, x, y):
    if math.gcd(h, k) != 1:
        return
    lhs = dr_sum_direct(h, k, x, y) + dr_sum_direct(k, h, y, x)
    assert lhs == _reciprocity_rhs(h, k, x, y)
    q = math.lcm(x.denominator, y.denominator)
    assert Fraction(*_reciprocity_rhs_scaled(h, k, int(x * q), int(y * q), q)) == lhs


@settings(max_examples=60)
@given(
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=60),
    small_rationals,
    small_rationals,
)
def test_fast_matches_direct(h, k, x, y):
    """Any integer h: the descent reduces it mod k first, and the
    definition sums over it as it is."""
    if math.gcd(h, k) != 1:
        return
    expected = dr_sum_direct(*normalize_args(h, k, x, y))
    assert dr_sum_fast(h, k, x, y) == dr_sum_direct(h, k, x, y) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=1, max_value=2000),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.integers(min_value=1, max_value=5),
)
def test_fast_matches_direct_on_large_moduli(h, k, x, y, c):
    """The integer descent equals the definition, over the lcm of the
    denominators and over any multiple c of it."""
    assume(math.gcd(h, k) == 1 and x.denominator != y.denominator)
    expected = dr_sum_direct(*normalize_args(h, k, x, y))
    assert dr_sum_fast(h, k, x, y) == expected
    q = c * math.lcm(x.denominator, y.denominator)
    assert Fraction(*dr_sum_scaled(h, k, int(x * q), int(y * q), q)) == expected


def test_deep_descent_is_exact():
    """Consecutive Fibonacci numbers of 100 digits descend through about 480
    levels: the two descents still satisfy the reciprocity law, and the
    pair stays over 4(kq)^2."""
    h, k = 1, 1
    while k < 10**100:
        h, k = k, h + k
    x, y = Fraction(1, 3), Fraction(2, 7)
    assert dr_sum_fast(h, k, x, y) + dr_sum_fast(k, h, y, x) == _reciprocity_rhs(h, k, x, y)
    assert dr_sum_scaled(h, k, 7, 6, 21)[1] == 4 * (k * 21) ** 2

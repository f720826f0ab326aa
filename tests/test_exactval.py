import functools
import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eak.exactval import (
    AngleValue,
    ExactValue,
    angle_of_cos_ratio,
    exact_sum,
    format_rational,
    parse_integer,
    parse_rational,
)
from reference_linalg import primitive_integer_vector

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=20)


def test_parse_format_round_trip():
    for text in ["3", "-7", "1/3", "-22/7", "0"]:
        assert format_rational(parse_rational(text)) == text
    assert parse_rational(" 4/6 ") == Fraction(2, 3)


def test_parse_rational_reads_only_p_over_q_or_p():
    assert parse_rational("+3") == 3
    assert parse_rational("\t-22/7\n") == Fraction(-22, 7)
    for text in ("0.5", "1e3", "1e2000", "1_000", "-.5e-2", "1 / 2", "3/-4", "/2", "2/", "", "x"):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_rational(text)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def test_parse_integer_reads_only_a_sign_and_ascii_digits():
    assert parse_integer("+3") == 3
    assert parse_integer("\t-22\n") == -22
    # int() reads the first three as 10
    for text in ("1_0", "\uff11\uff10", "\u0661\u0660", "3/1", "1e3", "10.0", "- 3", "", "x"):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_integer(text)


def test_format_rational_reads_ints_and_fractions():
    assert [format_rational(x) for x in (0, 7, -12)] == ["0", "7", "-12"]
    assert format_rational(Fraction(-22, 7)) == "-22/7"
    assert format_rational(Fraction(6, -4)) == "-3/2"
    assert format_rational(Fraction(10, 5)) == "2"


def test_primitive_integer_vector():
    assert primitive_integer_vector((2, 4, 6)) == (1, 2, 3)
    assert primitive_integer_vector((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert primitive_integer_vector((0, -5)) == (0, -1)
    with pytest.raises(ValueError):
        primitive_integer_vector((0, 0))


def test_angle_of_cos_ratio_signs():
    assert angle_of_cos_ratio(0, 5) == AngleValue(0, Fraction(0))
    assert angle_of_cos_ratio(1, 2) == AngleValue(1, Fraction(1, 2))
    assert angle_of_cos_ratio(-1, 2) == AngleValue(-1, Fraction(1, 2))
    with pytest.raises(ValueError):
        angle_of_cos_ratio(2, 1)


def test_rational_turns():
    # right angle, pi/3, pi/4, pi/6, 0, and their supplements
    assert AngleValue(0, 0).rational_turn() == Fraction(1, 4)
    assert AngleValue(1, Fraction(1, 4)).rational_turn() == Fraction(1, 6)
    assert AngleValue(1, Fraction(1, 2)).rational_turn() == Fraction(1, 8)
    assert AngleValue(1, Fraction(3, 4)).rational_turn() == Fraction(1, 12)
    assert AngleValue(-1, Fraction(1, 4)).rational_turn() == Fraction(1, 3)
    assert AngleValue(1, Fraction(1, 3)).rational_turn() is None


def test_canonicalization_folds_and_merges():
    a = AngleValue(1, Fraction(1, 3))
    # rational turns fold into the rational part
    v = ExactValue(Fraction(1, 2), ((Fraction(2), AngleValue(1, Fraction(1, 2))),))
    assert v == ExactValue.of(Fraction(3, 4))
    # negative-cosine angles rewrite through the supplement
    w = ExactValue.angle_turn(AngleValue(-1, Fraction(1, 3)))
    assert w.rational_part == Fraction(1, 2)
    assert w.angle_terms == ((Fraction(-1), a),)
    # identical angles merge, zero coefficients drop
    z = ExactValue.angle_turn(a) - ExactValue.angle_turn(a)
    assert z == ExactValue.of(0)


def test_arithmetic_and_str():
    a = AngleValue(1, Fraction(1, 3))
    v = ExactValue(Fraction(-5, 12), ((Fraction(3), a),))
    assert str(v) == "-5/12 + 3*arccos(sqrt(1/3))/(2pi)"
    assert v * 2 - v == v
    assert (v / 3).angle_terms == ((Fraction(1), a),)
    assert -(-v) == v


def test_eval_numeric():
    a = AngleValue(1, Fraction(1, 2))  # pi/4
    assert (ExactValue.angle_turn(a) * 8).eval_numeric() == pytest.approx(1.0)
    v = ExactValue(Fraction(1, 3), ((Fraction(2), AngleValue(1, Fraction(1, 3))),))
    expected = 1 / 3 + 2 * math.acos(math.sqrt(1 / 3)) / (2 * math.pi)
    assert v.eval_numeric() == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError):
        v.eval_numeric(precision=10)


@given(rationals, rationals, rationals)
def test_rational_field_operations(a, b, c):
    va, vb = ExactValue.of(a), ExactValue.of(b)
    assert va + vb == ExactValue.of(a + b)
    assert va - vb == ExactValue.of(a - b)
    assert va * c == ExactValue.of(a * c)
    if c != 0:
        assert va / c == ExactValue.of(a / c)


@given(st.lists(rationals, max_size=6))
def test_exact_sum_matches_sum(xs):
    assert exact_sum(xs) == ExactValue.of(sum(xs, Fraction(0)))


# cos^2 values of rational-turn angles (0, 1/4, 1/2, 3/4, 1) and of others
cos_squares = st.sampled_from(
    [Fraction(c) for c in ("0", "1/4", "1/2", "3/4", "1", "1/3", "2/5", "1/6", "2/3", "3/5")]
)
# negative signs make supplementary angles
angles = st.builds(
    lambda cs, neg: AngleValue(0 if cs == 0 else (-1 if neg else 1), cs),
    cos_squares,
    st.booleans(),
)
exact_values = st.builds(
    ExactValue, rationals, st.lists(st.tuples(rationals, angles), max_size=3).map(tuple)
)


@given(st.lists(st.one_of(exact_values, rationals), max_size=8))
def test_exact_sum_is_the_left_fold(xs):
    assert exact_sum(xs) == functools.reduce(operator.add, xs, ExactValue.of(0))


@given(angles, rationals)
def test_angle_turn_is_the_constructors_canonical_form(angle, coeff):
    assert ExactValue.angle_turn(angle) * coeff == ExactValue(Fraction(0), ((coeff, angle),))


@given(cos_squares)
def test_complementary_angles_fold(cs):
    # arccos(sqrt(c)) + arccos(sqrt(1 - c)) = pi/2
    def turn(c):
        return ExactValue.angle_turn(AngleValue(0 if c == 0 else 1, c))

    assert turn(cs) + turn(1 - cs) == ExactValue.of(Fraction(1, 4))


# raw terms, not yet canonical: signs -1, rational turns, cos^2 > 1/2 and
# repeated angles all occur
raw_terms = st.lists(st.tuples(rationals, angles), max_size=4)
raw_values = st.tuples(rationals, raw_terms)


def _negated(terms):
    return [(-c, a) for c, a in terms]


def _same(value, reference):
    assert value == reference
    assert hash(value) == hash(reference)


@given(raw_values, raw_values, st.booleans())
def test_trusted_sums_match_recanonicalized(x, y, cancel):
    """+ and - on canonical values equal the canonicalization of the
    concatenated raw terms; with `cancel` the second value carries the
    negation of the first one's terms, so coefficients cancel to zero."""
    (ra, ta), (rb, tb) = x, y
    if cancel:
        tb = tb + _negated(ta)
    a, b = ExactValue(ra, tuple(ta)), ExactValue(rb, tuple(tb))
    _same(a + b, ExactValue(ra + rb, tuple(ta + tb)))
    _same(a - b, ExactValue(ra - rb, tuple(ta + _negated(tb))))
    _same(-a, ExactValue(-ra, tuple(_negated(ta))))
    _same(a + rb, ExactValue(ra + rb, tuple(ta)))
    _same(rb + a, ExactValue(ra + rb, tuple(ta)))
    _same(rb - a, ExactValue(rb - ra, tuple(_negated(ta))))


@given(raw_values, st.one_of(st.just(Fraction(0)), rationals))
def test_trusted_scaling_matches_recanonicalized(x, s):
    r, terms = x
    a = ExactValue(r, tuple(terms))
    _same(a * s, ExactValue(r * s, tuple((c * s, t) for c, t in terms)))
    _same(s * a, a * s)
    if s:
        _same(a / s, ExactValue(r / s, tuple((c / s, t) for c, t in terms)))


@given(st.lists(st.one_of(raw_values, rationals), max_size=6))
def test_trusted_exact_sum_matches_recanonicalized(xs):
    values, rat, terms = [], Fraction(0), []
    for x in xs:
        if isinstance(x, Fraction):
            values.append(x)
            rat += x
        else:
            values.append(ExactValue(x[0], tuple(x[1])))
            rat += x[0]
            terms += x[1]
    _same(exact_sum(values), ExactValue(rat, tuple(terms)))


def test_arithmetic_does_not_canonicalize_again(monkeypatch):
    """Only the leaves canonicalize: +, -, *, / and exact_sum on canonical
    operands never run ExactValue.__post_init__."""
    a = ExactValue(Fraction(1, 3), ((Fraction(2), AngleValue(-1, Fraction(2, 3))),
                                    (Fraction(-1), AngleValue(1, Fraction(2, 5)))))
    b = ExactValue.angle_turn(AngleValue(1, Fraction(1, 3))) * Fraction(-3, 2)
    calls = []
    canonicalize = ExactValue.__post_init__

    def counted(self):
        calls.append(self)
        canonicalize(self)

    monkeypatch.setattr(ExactValue, "__post_init__", counted)
    results = [a + b, b + a, a + 1, 1 + a, a - b, 2 - a, -a, a * 3, 3 * a, a * 0, a / 5,
               exact_sum([a, b, Fraction(1, 7), -a, 4]), ExactValue.of(2), a - a]
    assert calls == []
    assert results[-1] == ExactValue(Fraction(0))
    assert len(calls) == 1  # the constructor above is a leaf

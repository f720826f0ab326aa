"""Exact scalar substrate: rationals, exact angle values and formal angle sums.

Rationals are plain :class:`fractions.Fraction`.  An :class:`AngleValue`
represents an angle in [0, pi] through the sign and the square of its
cosine, which keeps the geometry exact even when the cosine itself is a
quadratic irrational.  An :class:`ExactValue` is a rational number plus a
formal Q-linear combination of ``arccos(angle)/(2*pi)`` terms.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence, Union

if TYPE_CHECKING:
    import mpmath

RationalLike = Union[Fraction, int]

#: Angles theta with rational cos(theta)^2 and theta/pi rational; by Niven's
#: theorem (applied to cos(2*theta) = 2 cos^2 - 1) these are the only ones.
#: Maps cos_squared -> arccos(sqrt(cos_squared)) / (2*pi).
_RATIONAL_TURNS = {
    Fraction(0): Fraction(1, 4),
    Fraction(1, 4): Fraction(1, 6),
    Fraction(1, 2): Fraction(1, 8),
    Fraction(3, 4): Fraction(1, 12),
    Fraction(1): Fraction(0),
}


_RATIONAL_TEXT = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p', with an optional sign and surrounding
    whitespace, into an exact Fraction; ValueError on any other text
    (decimals, exponents, underscores) or a zero denominator."""
    match = _RATIONAL_TEXT.fullmatch(text)
    if match is None:
        raise ValueError(f"not of the form p/q or p: {text!r}")
    num, den = _int(match[1]), _int(match[2] or "1")
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def parse_integer(text: str) -> int:
    """Parse 'p', with an optional sign and surrounding whitespace, into
    an int: parse_rational's grammar with no denominator, so ValueError
    on any other text (underscores, non-ASCII digits, 'p/q')."""
    match = _RATIONAL_TEXT.fullmatch(text)
    if match is None or match[2] is not None:
        raise ValueError(f"not an integer: {text!r}")
    return _int(match[1])


def _int(digits: str) -> int:
    """int of a sign and ASCII digits, refused past the number of digits
    Python converts (sys.get_int_max_str_digits()) with a message that
    says so, not with Python's own advice."""
    try:
        return int(digits)
    except ValueError:
        count = len(digits.lstrip("+-"))
        raise ValueError(f"an integer of {count} digits; at most "
                         f"{sys.get_int_max_str_digits()} digits are read") from None


def format_rational(x: Fraction | int) -> str:
    """Serialize an int or a Fraction as 'p/q', or 'p' when the denominator
    is 1, read from its own numerator and denominator."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class AngleValue:
    """The angle theta = arccos(sign * sqrt(cos_squared)) in [0, pi]."""

    sign: int
    cos_squared: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"invalid sign {self.sign}")
        cs = Fraction(self.cos_squared)
        if not 0 <= cs <= 1:
            raise ValueError(f"cos_squared {cs} outside [0,1]")
        if (self.sign == 0) != (cs == 0):
            raise ValueError("sign is 0 exactly when cos_squared is 0")
        object.__setattr__(self, "cos_squared", cs)

    @cached_property
    def _hash(self) -> int:
        return hash((self.sign, self.cos_squared))

    def __hash__(self) -> int:
        # hashed once, on first use: Fraction.__hash__ takes a modular
        # inverse on every call
        return self._hash

    @cached_property
    def canonical_term(self) -> tuple[Fraction, int, Fraction]:
        """arccos/(2*pi) in canonical form, rat + s * arccos(sqrt(cs))/(2*pi),
        as (rat, s, cs): s = 0 when the angle is a rational number of turns,
        else s = +-1 and cs in (0, 1/2) with no rational number of turns.
        Computed once, on first use: the solid-angle table and omega_G both
        read the term of each ridge's angle."""
        turn = self.rational_turn()
        if turn is not None:
            return turn, 0, Fraction(0)
        # arccos(-c) = pi - arccos(c)
        rat, s = (Fraction(0), 1) if self.sign > 0 else (Fraction(1, 2), -1)
        cs = self.cos_squared
        if cs > Fraction(1, 2):
            # arccos(sqrt(c)) + arccos(sqrt(1 - c)) = pi/2
            return rat + Fraction(s, 4), -s, 1 - cs
        return rat, s, cs

    def rational_turn(self) -> Fraction | None:
        """arccos/(2*pi) as an exact rational, when the angle admits one."""
        if self.sign == 0:
            return Fraction(1, 4)
        turn = _RATIONAL_TURNS.get(self.cos_squared)
        if turn is None:
            return None
        return turn if self.sign > 0 else Fraction(1, 2) - turn

    def eval_numeric(self, precision: int = 53) -> mpmath.mpf:
        """arccos value at the given binary precision."""
        import mpmath  # only numeric checks load it

        with mpmath.workprec(precision + 8):
            c = self.sign * mpmath.sqrt(mpmath.mpf(self.cos_squared.numerator)
                                        / self.cos_squared.denominator)
            return mpmath.acos(c)


def angle_of_cos_ratio(num: RationalLike, den_sq: RationalLike) -> AngleValue:
    """AngleValue of the angle whose cosine is num / sqrt(den_sq).

    Callers pass the rational dot product and the rational product of
    squared norms, so the cosine never needs an explicit square root.
    """
    num = Fraction(num)
    den_sq = Fraction(den_sq)
    if den_sq <= 0:
        raise ValueError("den_sq must be positive")
    cs = num * num / den_sq
    if cs > 1:
        raise ValueError(f"not a cosine: ({num})^2 / ({den_sq}) > 1")
    return AngleValue(0 if num == 0 else (1 if num > 0 else -1), cs)


@dataclass(frozen=True)
class ExactValue:
    """rational_part + sum of coeff * arccos(angle)/(2*pi), canonicalized.

    Canonical form: angles with sign -1 are rewritten through their
    supplement, angles with a rational number of turns are folded into the
    rational part, angles with cos^2 > 1/2 are rewritten through their
    complement, identical angles are merged and zero coefficients dropped;
    the terms are sorted by cos^2.  So two values with equal canonical
    forms are equal.  The converse fails for values tied by other
    relations among arccos terms: such a difference has a nonzero form and
    is numerically zero.

    Only one leaf canonicalizes: :meth:`angle_turn`, which reads
    :attr:`AngleValue.canonical_term`.  The constructor is the
    :func:`exact_sum` of its rational part and the angle_turn of each term,
    scaled.  Arithmetic (``+``, ``-``, ``*``, ``/``, :func:`exact_sum`)
    assumes its ExactValue operands are canonical, as every ExactValue is,
    and only merges their terms by angle and drops zero coefficients;
    :meth:`on_basis` takes coefficients over angles already canonical.
    """

    rational_part: Fraction
    angle_terms: tuple[tuple[Fraction, AngleValue], ...] = ()

    def __post_init__(self):
        value = exact_sum([Fraction(self.rational_part),
                           *(ExactValue.angle_turn(a) * c for c, a in self.angle_terms)])
        object.__setattr__(self, "rational_part", value.rational_part)
        object.__setattr__(self, "angle_terms", value.angle_terms)

    @staticmethod
    def of(x: RationalLike) -> "ExactValue":
        return _canonical(Fraction(x), ())

    @staticmethod
    def angle_turn(angle: AngleValue) -> "ExactValue":
        """arccos(angle)/(2*pi) as an ExactValue, built from the angle's one
        canonical term with no second canonicalizing pass."""
        turn, s, cs = angle.canonical_term
        return _canonical(turn, ((Fraction(s), AngleValue(1, cs)),) if s else ())

    @staticmethod
    def on_basis(components: Sequence[RationalLike], angles: Sequence[AngleValue]) -> "ExactValue":
        """components[0] + the sum of components[i] * arccos(angles[i - 1])/(2*pi),
        for angles of canonical terms (sign 1, no rational turn, cos^2 < 1/2)
        sorted by cos^2: zero coefficients are dropped, and nothing is
        canonicalized again."""
        rat, *coeffs = components
        return _canonical(Fraction(rat),
                          tuple((Fraction(c), a) for c, a in zip(coeffs, angles) if c))

    def __add__(self, other: Union["ExactValue", RationalLike]) -> "ExactValue":
        other = _coerce(other)
        return _merged(self.rational_part + other.rational_part,
                       (self.angle_terms, other.angle_terms))

    __radd__ = __add__

    def __neg__(self) -> "ExactValue":
        return _canonical(-self.rational_part, tuple((-c, a) for c, a in self.angle_terms))

    def __sub__(self, other: Union["ExactValue", RationalLike]) -> "ExactValue":
        return self + (-_coerce(other))

    def __rsub__(self, other: RationalLike) -> "ExactValue":
        return _coerce(other) - self

    def __mul__(self, scalar: RationalLike) -> "ExactValue":
        s = Fraction(scalar)
        if not s:
            return _canonical(Fraction(0), ())
        return _canonical(self.rational_part * s, tuple((c * s, a) for c, a in self.angle_terms))

    __rmul__ = __mul__

    def __truediv__(self, scalar: RationalLike) -> "ExactValue":
        return self * (Fraction(1) / Fraction(scalar))

    def eval_numeric(self, precision: int = 53) -> float:
        """Numeric value, accurate to 2^(-precision+8); deterministic."""
        if precision < 53:
            raise ValueError("precision must be at least 53 bits")
        import mpmath  # only numeric checks load it

        with mpmath.workprec(precision + 8):
            total = mpmath.mpf(self.rational_part.numerator) / self.rational_part.denominator
            two_pi = 2 * mpmath.pi
            for coeff, angle in self.angle_terms:
                c = mpmath.mpf(coeff.numerator) / coeff.denominator
                total += c * angle.eval_numeric(precision) / two_pi
            return float(total)

    __float__ = eval_numeric

    def __str__(self) -> str:
        parts = [format_rational(self.rational_part)]
        for coeff, angle in self.angle_terms:
            parts.append(
                f"{format_rational(coeff)}*arccos(sqrt({format_rational(angle.cos_squared)}))/(2pi)"
            )
        return " + ".join(parts)


def _canonical(rat: Fraction, terms: tuple) -> ExactValue:
    """The ExactValue with this rational part and these terms, which are
    already canonical: built without canonicalizing again."""
    value = object.__new__(ExactValue)
    object.__setattr__(value, "rational_part", rat)
    object.__setattr__(value, "angle_terms", terms)
    return value


def _merged(rat: Fraction, term_lists: Iterable[tuple]) -> ExactValue:
    """rat plus the terms of canonical values, merged by angle, with zero
    coefficients dropped and the terms sorted by cos^2."""
    acc: dict[AngleValue, Fraction] = {}
    for terms in term_lists:
        for coeff, angle in terms:
            prev = acc.get(angle)
            acc[angle] = coeff if prev is None else prev + coeff
    merged = sorted(((c, a) for a, c in acc.items() if c), key=lambda term: term[1].cos_squared)
    return _canonical(rat, tuple(merged))


def _coerce(x: Union[ExactValue, RationalLike]) -> ExactValue:
    if isinstance(x, ExactValue):
        return x
    return _canonical(Fraction(x), ())


def exact_sum(values: Iterable[Union[ExactValue, RationalLike]]) -> ExactValue:
    """Sum of the values in one merge: ExactValue addends are taken as
    canonical, and other addends as rationals."""
    rat = Fraction(0)
    term_lists = []
    for v in values:
        if isinstance(v, ExactValue):
            rat += v.rational_part
            term_lists.append(v.angle_terms)
        else:
            rat += Fraction(v)
    return _merged(rat, term_lists)

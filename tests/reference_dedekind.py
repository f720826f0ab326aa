"""Reference Dedekind-Rademacher sums on Fractions.

``dr_sum_direct`` sums the k terms of the definition

    s(h, k; x, y) = sum_{r mod k} B1~(h(r+y)/k + x) * B1~((r+y)/k),

and ``_reciprocity_rhs`` is the right-hand side of the reciprocity law
s(h,k;x,y) + s(k,h;y,x).  The integer descent ``eak.dedekind.dr_sum_scaled``
and its reciprocity term ``_reciprocity_rhs_scaled`` are checked against
them exactly.
"""

from __future__ import annotations

from fractions import Fraction

from eak.bernoulli import is_integer, periodized
from eak.dedekind import _validate, dr_sum_fast


def normalize_args(h: int, k: int, x, y) -> tuple[int, int, Fraction, Fraction]:
    """Reduce h into [0, k) via s(h,k;x,y) = s(h-mk,k; x+my, y)."""
    h, k = _validate(h, k)
    x, y = Fraction(x), Fraction(y)
    m, h = divmod(h, k)
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

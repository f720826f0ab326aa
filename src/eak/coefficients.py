"""Closed-form quasi-coefficients of solid-angle and Ehrhart functions.

The codimension-one coefficients are facet sums of periodized first
Bernoulli polynomials; the codimension-two coefficients add the
transverse-cone data: second Bernoulli terms, a Dedekind-Rademacher
sum, and (for the solid-angle flavor) the exact dihedral angle term.
One walk per codimension gives both flavors at once, since they differ
only in the dihedral-angle term and the B1 boundary corrections.
All evaluations are exact; only the dihedral angles can be irrational,
and they are carried symbolically in :class:`ExactValue`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from eak.bernoulli import b1_scaled, b2_scaled, is_integer
from eak.dedekind import dr_sum_scaled
from eak.exactval import ExactValue, _merged
from eak.local_data import all_codim2_data
from eak.polytope import Polytope


# the closed-form coefficients of each flavor, codimension one first
FLAVORS = {"solid-angle": ("a_d1", "a_d2"), "ehrhart": ("e_d1", "e_d2")}


def _facet_walk(P: Polytope, t: Fraction) -> dict[str, ExactValue]:
    """a_{d-1}(t) and e_{d-1}(t) from one pass over the facets.

    a_{d-1} sums -vol*(F) B1~(<v_F,x_F> t); e_{d-1} takes the right limit
    of B1~ instead, which differs only where <v_F,x_F> t is an integer,
    by 1/2 there.

    Both are integers over one denominator: with L = P.denominator(), each
    offset is B_F/L with B_F an integer, so <v_F,x_F> t is S_F/q over
    q = L t.denominator, and vol*(F) is N(F) / ((d-1)! L^(d-1)) with N(F)
    an integer, so a t builds one Fraction per flavor."""
    L = P.denominator()
    q = L * t.denominator
    a = boundary = 0
    for (_, b), F in zip(P.inequalities, P.facets()):
        N, S = P.lattice_volume(F), b.numerator * (L // b.denominator) * t.numerator
        a -= N * b1_scaled(S, q)
        if S % q == 0:
            boundary += N
    den = 2 * q * math.factorial(P.dim - 1) * L ** (P.dim - 1)
    return {"a_d1": ExactValue.of(Fraction(a, den)),
            "e_d1": ExactValue.of(Fraction(a + q * boundary, den))}


def _codim2_walk(P: Polytope, t: Fraction, angles: bool = True) -> dict[str, ExactValue]:
    """a_{d-2}(t) and e_{d-2}(t) from one pass over the codim-2 faces;
    e_{d-2}(t) alone when angles is False, which reads no omega_G.

    Both flavors share each face's second-Bernoulli part less its
    Dedekind-Rademacher sum s(h,k;x,y).  The solid-angle flavor adds
    omega_G - 1/4 where t xbar_G lies in Lambda_G^*; the Ehrhart flavor
    subtracts one B1 boundary correction for each integral offset.

    Each face's values are integers over one denominator: s_i = b_i t is
    S_i/q, and x, y and the offsets of the B1 corrections are integers
    over n = kq, and dr_sum_scaled returns s(h,k;x,y) as an integer pair.
    So a face and a t build no Fraction: the shared part, the corrections
    and the rational part of the omega_G - 1/4 terms are summed as integer
    pairs (numerator, denominator), and each coefficient builds one
    Fraction at the end.  Only the arccos terms of omega_G, scaled by
    vol*(G), stay Fractions, merged once by angle."""
    shared = correction = omega_rat = (0, 1)
    terms = []
    tn, td = t.numerator, t.denominator
    for g in all_codim2_data(P):
        k, h = g.k, g.h
        q = g.den * td
        S1, S2 = g.b1_num * tn, g.b2_num * tn
        n, X = k * q, S2 + h * S1  # x = X/n, y = -s1 = -kS1/n
        # (c_G/2k) ((|v2|/|v1|) B2~(s1) + (|v1|/|v2|) B2~(s2)), by the rational
        # regrouping c_G |v2|/|v1| = -<v1,v2>/|v1|^2, over 12kq^2 |v1|^2 |v2|^2
        b2_den = 12 * n * q * g.norm1_sq * g.norm2_sq
        b2_num = -g.dot12 * (g.norm2_sq * b2_scaled(S1, q) + g.norm1_sq * b2_scaled(S2, q))
        s_num, s_den = dr_sum_scaled(h, k, X, -k * S1, n)
        vn, vd = g.vol_star.numerator, g.vol_star.denominator
        shared = _plus(shared, (b2_num * s_den - s_num * b2_den) * vn, b2_den * s_den * vd)
        # 2n B1~ of each correction: ((h_inv s2 + s1)/k) where s2 is integral,
        # and the right limit at x where y is, which is -1/2 at an integer x
        c = b1_scaled(g.h_inv * S2 + S1, n) if S2 % q == 0 else 0
        if S1 % q == 0:
            r = X % n
            c += 2 * r - n
            if r == 0 and angles:  # t xbar_G in Lambda_G^*: s1 and x integral
                turn, angle_terms = g.omega.rational_part, g.omega.angle_terms
                omega_rat = _plus(omega_rat, vn * (4 * turn.numerator - turn.denominator),
                               4 * vd * turn.denominator)
                terms.append(tuple((coeff * g.vol_star, a) for coeff, a in angle_terms))
        if c:
            correction = _plus(correction, c * vn, 4 * n * vd)
    values = {"e_d2": ExactValue.of(Fraction(*_plus(shared, -correction[0], correction[1])))}
    if angles:
        values["a_d2"] = _merged(Fraction(*_plus(shared, *omega_rat)), terms)
    return values


def _plus(pair: tuple[int, int], num: int, den: int) -> tuple[int, int]:
    """pair[0]/pair[1] + num/den in lowest terms, for positive denominators:
    reduced at every step, a sum over many faces stays as small as a
    Fraction sum."""
    num, den = pair[0] * den + num * pair[1], pair[1] * den
    g = math.gcd(num, den)
    return num // g, den // g


def evaluate(P: Polytope, t) -> dict[str, ExactValue]:
    """All four closed-form coefficients at t, keyed by kind: one walk
    over the facets and one over the codim-2 faces."""
    t = Fraction(t)
    return {**_facet_walk(P, t), **_codim2_walk(P, t)}


@dataclass(frozen=True)
class QuasiCoefficient:
    """One closed-form quasi-coefficient of P; its period is the denominator
    m of P: eval(t + m) == eval(t)."""

    kind: str  # one of "a_d1", "a_d2", "e_d1", "e_d2"
    polytope: Polytope

    def eval(self, t) -> ExactValue:
        t = Fraction(t)
        if self.kind in ("a_d1", "e_d1"):
            return _facet_walk(self.polytope, t)[self.kind]
        return _codim2_walk(self.polytope, t, angles=self.kind == "a_d2")[self.kind]


def coeff_a_d1(P: Polytope) -> QuasiCoefficient:
    return QuasiCoefficient("a_d1", P)


def coeff_e_d1(P: Polytope) -> QuasiCoefficient:
    return QuasiCoefficient("e_d1", P)


def coeff_a_d2(P: Polytope) -> QuasiCoefficient:
    return QuasiCoefficient("a_d2", P)


def coeff_e_d2(P: Polytope) -> QuasiCoefficient:
    return QuasiCoefficient("e_d2", P)


def recovered_a_d1(P: Polytope, t) -> ExactValue:
    """a_{d-1}(t) reconstructed from Ehrhart data:
    -e_{d-1}(P; -t) + (1/2) sum over facets of vol*(F) 1_Z(<v_F,x_F> t)."""
    t = Fraction(t)
    tight = [F for (_, b), F in zip(P.inequalities, P.facets()) if is_integer(b * t)]
    boundary = sum(map(P.relative_volume, tight), Fraction(0))
    return boundary / 2 - coeff_e_d1(P).eval(-t)


@dataclass(frozen=True)
class QuasiPolynomial:
    """Full quasi-polynomial of one flavor, for d <= 3: the closed-form
    top coefficients plus one exact oracle evaluation per value."""

    polytope: Polytope
    flavor: str  # a key of FLAVORS

    def value(self, t) -> ExactValue:
        """base(t0) + vol (t^d - t0^d) + the sum over k = 1, 2 of c_{d-k}(t)
        (t^{d-k} - t0^{d-k}), base the oracle (A_P or L_P) and t0 in (0, m]
        with t - t0 a multiple of the period m, so that c_{d-k}(t0) =
        c_{d-k}(t); the term with d = k vanishes, and d < k has none."""
        from eak import oracle

        t, P = Fraction(t), self.polytope
        if t <= 0:
            raise ValueError("positive t required")
        m, d = P.denominator(), P.dim
        t0 = t - m * math.ceil(t / m - 1)
        base = oracle.solid_angle_sum if self.flavor == "solid-angle" else oracle.count_points
        total = ExactValue.of(P.volume() * (t**d - t0**d)) + base(P, t0)
        for k, kind in enumerate(FLAVORS[self.flavor][: d - 1], 1):
            total = total + QuasiCoefficient(kind, P).eval(t) * (t ** (d - k) - t0 ** (d - k))
        return total


def complete_quasipolynomial(P: Polytope, flavor: str) -> QuasiPolynomial:
    if P.dim > 3:
        raise ValueError("the t^1 coefficient of a 4-polytope has no closed form; "
                         "dimension at most three required")
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    return QuasiPolynomial(P, flavor)

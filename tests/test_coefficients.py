import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eak import coefficients as co
from eak import oracle
from eak.bernoulli import is_integer, one_sided_B1, periodized
from eak.exactval import AngleValue, ExactValue
from eak.local_data import all_codim2_data
from eak.polytope import Polytope

import reference_coefficients as ref
from conftest import random_tetrahedron, rational_polytopes, reeve_tetrahedron


def test_delta_facet_coefficients(delta):
    e1 = co.coeff_e_d1(delta)
    a1 = co.coeff_a_d1(delta)
    # closed form: three facets through the origin plus the diagonal facet
    for t in [Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(7, 5)]:
        t = Fraction(t)
        expected_e = -Fraction(1, 2) * (3 * one_sided_B1(0, "plus") + one_sided_B1(t, "plus"))
        expected_a = -Fraction(1, 2) * periodized(1, t)
        assert e1.eval(t) == ExactValue.of(expected_e)
        assert a1.eval(t) == ExactValue.of(expected_a)
    assert e1.eval(1) == ExactValue.of(1)
    assert e1.eval(Fraction(1, 2)) == ExactValue.of(Fraction(3, 4))


def test_delta_codim2_coefficients(delta):
    e2 = co.coeff_e_d2(delta)
    a2 = co.coeff_a_d2(delta)
    assert e2.eval(1) == ExactValue.of(Fraction(11, 6))
    assert e2.eval(Fraction(1, 2)) == ExactValue.of(Fraction(23, 24))
    # at integer t every dihedral angle enters; the rational parts cancel to -5/12
    assert a2.eval(1) == ExactValue(
        Fraction(-5, 12), ((Fraction(3), AngleValue(1, Fraction(1, 3))),)
    )
    assert a2.eval(Fraction(1, 2)) == ExactValue.of(Fraction(5, 24))
    assert a2.eval(Fraction(5, 2)) == a2.eval(Fraction(1, 2))  # period 1 in t mod 1


def test_order_codim2_closed_form(order):
    a2 = co.coeff_a_d2(order)
    for t in [Fraction(1, 4), Fraction(1, 2), 1, 2]:
        t = Fraction(t)
        expected = (
            Fraction(1, 2) * periodized(2, t)
            - (Fraction(1, 8) if is_integer(t) else 0)
            + Fraction(1, 24)
        )
        assert a2.eval(t) == ExactValue.of(expected)


def test_periods(delta, half_order):
    # a coefficient's period is the denominator of P
    assert delta.denominator() == 1
    assert half_order.denominator() == 2


@settings(max_examples=25, deadline=None)
@given(rational_polytopes((2, 4), 2), st.fractions(0, 4, max_denominator=6))
def test_every_kind_has_the_period_of_the_denominator(P, t):
    """c(t + m) = c(t) with m = P.denominator(), for each coefficient."""
    m = P.denominator()
    for make in (co.coeff_a_d1, co.coeff_e_d1, co.coeff_a_d2, co.coeff_e_d2):
        c = make(P)
        assert c.eval(t + m) == c.eval(t)


def test_evaluate_gives_every_kind(delta, half_order):
    for P in (delta, half_order):
        for t in (Fraction(1, 2), Fraction(1), Fraction(5, 3)):
            values = co.evaluate(P, t)
            assert set(values) == {"a_d1", "e_d1", "a_d2", "e_d2"}
            for kind, value in values.items():
                assert co.QuasiCoefficient(kind, P).eval(t) == value


def test_recovered_facet_coefficient(delta, half_order):
    for P in (delta, half_order):
        direct = co.coeff_a_d1(P)
        for t in [Fraction(1, 3), Fraction(1, 2), 1, Fraction(5, 4), 3]:
            assert co.recovered_a_d1(P, t) == direct.eval(t)


@settings(max_examples=25, deadline=None)
@given(rational_polytopes((1, 4), 2), st.fractions(0, 4, max_denominator=6))
def test_recovered_facet_coefficient_in_every_dimension(P, t):
    assert co.recovered_a_d1(P, t) == co.coeff_a_d1(P).eval(t)


def _image(P, U, v):
    """The polytope U P + v."""
    return Polytope(P.dim, [[sum(u * c for u, c in zip(row, x)) + w for row, w in zip(U, v)]
                            for x in P.vertices])


@st.composite
def shears(draw, d):
    """A unimodular d x d matrix, a product of shears x_i += c x_j."""
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-2, 2))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return U


@st.composite
def signed_permutations(draw, d):
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d))
    return [[s * int(j == p) for j in range(d)] for p, s in zip(perm, signs)]


@settings(max_examples=20, deadline=None)
@given(data=st.data(), P=rational_polytopes((2, 4), 2),
       t=st.fractions(Fraction(1, 6), 4, max_denominator=6))
def test_coefficients_are_invariant_under_lattice_maps(data, P, t):
    """e_d1, e_d2 and a_d1 are lattice invariants: a unimodular map plus an
    integer translation v with t v integral keeps them.  a_d2 holds
    Euclidean dihedral angles, so only a signed permutation, which is also
    orthogonal, keeps all four."""
    d = P.dim
    w = data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    v = [t.denominator * c for c in w]
    values = co.evaluate(P, t)
    sheared = co.evaluate(_image(P, data.draw(shears(d)), v), t)
    assert all(sheared[kind] == values[kind] for kind in ("e_d1", "e_d2", "a_d1"))
    assert co.evaluate(_image(P, data.draw(signed_permutations(d)), v), t) == values


@settings(max_examples=30, deadline=None)
@given(st.one_of(rational_polytopes((1, 4), 2), st.integers(1, 1021).map(reeve_tetrahedron)),
       st.fractions(-4, 4, max_denominator=12))
@example(Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]), Fraction(0))
@example(Polytope(1, [(Fraction(1, 2),), (Fraction(7, 3),)]), Fraction(-5, 12))
@example(Polytope(2, [(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 3))]), Fraction(6))
def test_facet_walk_matches_the_fraction_reference(P, t):
    """Both flavors of the integer facet walk equal the Fraction walk."""
    assert co._facet_walk(P, t) == ref.facet_walk(P, t)


def _walk_matches_the_reference(P, t):
    values = co._codim2_walk(P, t)
    assert values == ref.codim2_walk(P, t)
    assert co._codim2_walk(P, t, angles=False) == {"e_d2": values["e_d2"]}


@settings(max_examples=25, deadline=None)
@given(rational_polytopes((2, 4), 2), st.fractions(-4, 4, max_denominator=12))
@example(Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]), Fraction(0))
@example(Polytope(2, [(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 3))]), Fraction(-7, 12))
def test_codim2_walk_matches_the_fraction_reference(P, t):
    """Both flavors of the integer walk equal the Fraction walk exactly."""
    _walk_matches_the_reference(P, t)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 1021), st.fractions(-4, 4, max_denominator=12))
@example(1021, Fraction(1, 3))
@example(1021, Fraction(-5, 12))
def test_codim2_walk_matches_the_reference_on_reeve_tetrahedra(r, t):
    _walk_matches_the_reference(reeve_tetrahedron(r), t)


RATIONAL4 = Polytope(4, [(0, 0, 0, 0), (Fraction(1, 2), 0, 0, 0), (0, Fraction(2, 3), 0, 0),
                         (0, 0, 1, 0), (0, 0, 0, Fraction(3, 2)), (Fraction(1, 3),) * 4,
                         (1, 1, 0, 1)])
LARGE_T = (Fraction(10**30 + 1, 7), Fraction(-10**40, 10**12 + 39), Fraction(3, 10**20 + 1))


@pytest.mark.parametrize("t", LARGE_T, ids=("huge", "negative", "tiny"))
@pytest.mark.parametrize("P", [
    Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    reeve_tetrahedron(1021),
    RATIONAL4,
], ids=("delta3", "reeve1021", "rational4"))
def test_codim2_walk_is_exact_at_any_size_of_t(P, t):
    """The integer pairs stay exact when t has numerators and denominators
    far beyond the drawn ones."""
    _walk_matches_the_reference(P, t)


def test_ehrhart_half_reads_no_dihedral_angle(delta, monkeypatch):
    # omega_G is built on first use, and only the solid-angle flavor uses it
    calls = []
    angle_turn = ExactValue.angle_turn

    def counted(*args):
        calls.append(args)
        return angle_turn(*args)

    monkeypatch.setattr(ExactValue, "angle_turn", staticmethod(counted))
    all_codim2_data(delta)
    samples = [(s, Fraction(oracle.count_points(delta, s))) for s in range(1, 5)]
    interpolated = oracle.interpolate_coefficients(samples, 3)
    formula = [co.coeff_e_d1(delta).eval(1), co.coeff_e_d2(delta).eval(1)]
    assert formula == [ExactValue.of(c) for c in interpolated[1:3]]
    assert calls == []
    co.coeff_a_d2(delta).eval(1)
    assert len(calls) == 6  # every edge at t = 1, each once


def test_tetrahedron_identity(delta, order):
    assert ref.tetrahedron_identity(delta) == 0
    assert ref.tetrahedron_identity(order) == 0
    rng = random.Random(3)
    for _ in range(5):
        assert ref.tetrahedron_identity(random_tetrahedron(rng)) == 0


def test_tetrahedron_identity_rejects(cube, half_order):
    with pytest.raises(ValueError):
        ref.tetrahedron_identity(cube)
    with pytest.raises(ValueError):
        ref.tetrahedron_identity(half_order)


def test_complete_quasipolynomial(delta, order):
    q = co.complete_quasipolynomial(delta, "ehrhart")
    for t in range(1, 5):
        expected = Fraction((t + 1) * (t + 2) * (t + 3), 6)
        assert q.value(t) == ExactValue.of(expected)
        assert q.value(t) == ExactValue.of(oracle.count_points(delta, t))
    s = co.complete_quasipolynomial(order, "solid-angle")
    for t in range(1, 5):
        assert s.value(t) == ExactValue.of(Fraction(t**3, 6))
    with pytest.raises(ValueError):
        co.complete_quasipolynomial(delta, "euler")


def test_complete_quasipolynomial_below_dimension_three():
    # beyond the period, so that the closed-form coefficients enter
    segment = Polytope(1, [(Fraction(1, 2),), (Fraction(7, 3),)])
    triangle = Polytope(2, [(0, 0), (Fraction(3, 2), 0), (Fraction(1, 3), 2)])
    for P in (segment, triangle):
        ehrhart = co.complete_quasipolynomial(P, "ehrhart")
        angles = co.complete_quasipolynomial(P, "solid-angle")
        for t in (Fraction(13, 3), 9, Fraction(31, 6)):
            assert ehrhart.value(t) == ExactValue.of(oracle.count_points(P, t))
            assert angles.value(t) == oracle.solid_angle_sum(P, t)


def test_complete_quasipolynomial_refuses_dimension_four():
    delta4 = Polytope(4, [(0,) * 4, *(tuple(int(i == j) for j in range(4)) for i in range(4))])
    with pytest.raises(ValueError, match="no closed form"):
        co.complete_quasipolynomial(delta4, "ehrhart")

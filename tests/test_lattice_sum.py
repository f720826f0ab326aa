import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eak.bernoulli import periodized
from eak.coefficients import evaluate
from eak.dedekind import dr_sum_fast
from eak.exactval import ExactValue, exact_sum
from eak.lattice_sum import LatticeSumProblem, lattice_sum_finite
from eak.local_data import all_codim2_data
from eak.polytope import Polytope

import reference_linalg as ref
from conftest import FOUR_POLYTOPE, small_rational_polytopes, transverse_lattice
from reference_coefficients import b2_part, membership_scale
from reference_lattice import (
    EmbeddedLattice,
    gunnels_sczech,
    lattice_sum_series,
    reference_gunnels_sczech,
    reference_lattice_sum_finite,
    series_extrapolated,
)

Z1 = ((1,),)
Z2 = ((1, 0), (0, 1))


def test_problem_validation():
    with pytest.raises(ValueError):
        LatticeSumProblem(Z2, ((1, 0),), (2,), (0, 0))  # one form for rank 2
    with pytest.raises(ValueError):
        LatticeSumProblem(Z1, ((1,),), (0,), (0,))  # non-positive exponent
    with pytest.raises(ValueError):
        LatticeSumProblem(Z2, ((1, 0), (2, 0)), (2, 2), (0, 0))  # dependent forms
    with pytest.raises(ValueError):
        LatticeSumProblem(Z2, ((Fraction(1, 2), 0), (0, 1)), (2, 2), (0, 0))  # off dual


def test_problem_refusals_in_integers():
    # a form off the span of the lattice pairs integrally with it, but is
    # not in its dual lattice
    with pytest.raises(ValueError, match="dual lattice"):
        LatticeSumProblem(((1, 0, 0),), ((1, 1, 0),), (2,), (0, 0, 0))
    with pytest.raises(ValueError, match="dependent basis"):
        LatticeSumProblem(((1, 2), (2, 4)), Z2, (2, 2), (0, 0))
    for w, x in ((Z2, (0,)), (Z2, (0, 0, 5)), (((1, 0, 0), (0, 1)), (0, 0))):
        with pytest.raises(ValueError, match="2 entries"):
            LatticeSumProblem(Z2, w, (2, 2), x)
    for e in ((Fraction(3, 2), 1), (True, 1)):
        with pytest.raises(ValueError, match="integers"):
            LatticeSumProblem(Z2, Z2, e, (0, 0))
    # (10^6 + 1)^2 candidates: refused before any is enumerated
    big = LatticeSumProblem(Z2, ((10**6, 0), (0, 10**6)), (1, 1), (0, 0))
    with pytest.raises(ValueError, match="1000002000001 candidate points"):
        lattice_sum_finite(big)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def lattice_sum_problems(draw):
    """A lattice of rank k <= 2 in Q^d, d <= 3, with a rational basis B;
    linear forms W = D N for its dual basis D and an integer N of nonzero
    determinant, so the pairing matrix is N; exponents 1-3; x in Q^d, or
    a dual-lattice point, where the corners of the parallelepiped count."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, min(2, d)))
    basis = draw(st.lists(st.lists(rationals, min_size=d, max_size=d), min_size=k, max_size=k))
    assume(ref.det(ref.gram(basis)) != 0)
    n = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), min_size=k, max_size=k))
    assume(ref.det(n) != 0)
    dual = ref.from_columns(EmbeddedLattice(d, basis).dual().basis)
    w = ref.columns(ref.mat_mul(dual, n))
    e = tuple(draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)))
    coords = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    dual_points = coords.map(lambda m: ref.mat_vec(dual, m))
    x = draw(st.one_of(st.lists(rationals, min_size=d, max_size=d), dual_points))
    return EmbeddedLattice(d, basis), n, w, e, x


@settings(max_examples=100, deadline=None)
@given(lattice_sum_problems())
def test_finite_form_matches_the_fraction_reference(problem):
    lattice, n, w, e, x = problem
    p = LatticeSumProblem(lattice.basis, w, e, x)
    assert p.pairing == tuple(map(tuple, n))
    assert lattice_sum_finite(p) == reference_lattice_sum_finite(lattice, w, e, x)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_residue_form_matches_the_fraction_reference(data):
    d = data.draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    W = data.draw(st.lists(row, min_size=d, max_size=d))
    assume(ref.det(W) != 0)
    e = data.draw(st.lists(st.integers(2, 3), min_size=d, max_size=d))
    x = data.draw(st.lists(rationals, min_size=d, max_size=d))
    assert gunnels_sczech(W, e, x) == reference_gunnels_sczech(W, e, x)


def test_one_dimensional_closed_form():
    # rank one: the sum collapses to -B~_e(-x) / e!
    for e, x in [(2, Fraction(1, 3)), (2, Fraction(0)), (3, Fraction(2, 7))]:
        p = LatticeSumProblem(Z1, ((1,),), (e,), (x,))
        expected = -periodized(e, -x) / Fraction(math.factorial(e))
        assert lattice_sum_finite(p) == ExactValue.of(expected)


def test_identity_rank_two():
    p = LatticeSumProblem(Z2, ((1, 0), (0, 1)), (2, 2), (0, 0))
    # product of two one-dimensional zeta values: (2 zeta(2)/(2 pi i)^2)^2
    assert lattice_sum_finite(p) == ExactValue.of(Fraction(1, 144))
    assert gunnels_sczech([[1, 0], [0, 1]], (2, 2), (0, 0)) == Fraction(1, 144)


def test_finite_matches_residue_form():
    rng = random.Random(13)
    for _ in range(8):
        d = rng.choice((1, 2))
        while True:
            W = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            if ref.det(W) != 0:
                break
        e = tuple(rng.choice((2, 3)) for _ in range(d))
        x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d))
        p = LatticeSumProblem(ref.identity(d), tuple(ref.columns(W)), e, x)
        assert lattice_sum_finite(p) == ExactValue.of(gunnels_sczech(W, e, x))


@pytest.mark.parametrize("n", [30, 60, 200])
def test_residue_form_of_a_diagonal_factors(n):
    # Z^2 / diag(n, n) Z^2 is the product of two copies of Z / n Z; the n^2
    # residues come from the group the columns of adj(W) generate
    e, x = (2, 3), (Fraction(1, 3), Fraction(-2, 5))
    start = time.perf_counter()
    value = gunnels_sczech([[n, 0], [0, n]], e, x)
    elapsed = time.perf_counter() - start
    assert value == gunnels_sczech([[n]], e[:1], x[:1]) * gunnels_sczech([[n]], e[1:], x[1:])
    assert elapsed < 0.5, f"took {elapsed:.2f}s"


def test_residue_form_refuses_beyond_the_budget():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget"):
        gunnels_sczech([[10**4, 0], [0, 10**4]], (2, 2), (0, 0))
    assert time.perf_counter() - start < 0.1


def test_residue_form_requires_convergence():
    with pytest.raises(ValueError):
        gunnels_sczech([[1]], (1,), (0,))
    with pytest.raises(ValueError):
        gunnels_sczech([[0]], (2,), (0,))


# Delta_3, where every k is 1, the Reeve tetrahedron with r = 13 and a
# rational tetrahedron, each with the k of its codim-2 faces
DECOMPOSED = (
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], {1}),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 13)], {13}),
    ([(0, 0, 0), (Fraction(3, 2), 0, 0), (0, 2, 0),
      (Fraction(1, 2), Fraction(1, 3), Fraction(5, 2))], {5, 15, 20}),
)


def test_conditionally_convergent_decomposition():
    """Rank-two (1,1) sums match the dihedral-angle / Dedekind splitting,
    times the face's k: k LS_G(t) = -s(h, k; x, y) + [t xbar_G in
    Lambda_G^*] (omega_G - 1/4), LS_G the lattice sum over the transverse
    lattice of the codim-2 face G."""
    for vertices, ks in DECOMPOSED:
        P = Polytope(3, vertices)
        data = all_codim2_data(P)
        assert {g.k for g in data} == ks
        for g in data:
            r = transverse_lattice(P, g)
            for t in (Fraction(1, 2), Fraction(1), Fraction(2, 3), Fraction(7, 5)):
                xbar = tuple(t * (g.x1 * a + g.x2 * b) for a, b in zip(r.v_F1_G, r.v_F2_G))
                p = LatticeSumProblem(r.lam.basis, (r.v_F1_G, r.v_F2_G), (1, 1), xbar)
                expected = ExactValue.of(
                    -dr_sum_fast(g.h, g.k, (g.x1 + g.h * g.x2) * t, -g.k * g.x2 * t)
                )
                if membership_scale(g, t):
                    expected = expected + ExactValue.angle_turn(g.c_G) - Fraction(1, 4)
                assert g.k * lattice_sum_finite(p) == expected


# each at a t past the enumeration budget: the box of t P has more than
# 10^7 candidate points, but the lattice sums do not scan it
@example(P=Polytope(4, FOUR_POLYTOPE), t=Fraction(1000001, 3))
@example(P=Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]), t=Fraction(250))
@settings(max_examples=40, deadline=None)
@given(P=st.integers(2, 4).flatmap(small_rational_polytopes),
       t=st.builds(Fraction, st.integers(1, 30), st.integers(1, 8)))
def test_a_d2_is_a_sum_of_lattice_sums_over_the_codim2_faces(P, t):
    """PAPER.md's Fourier side of a_d2, with no scan: a_d2(t) is the sum over
    the codim-2 faces G of vol*(G) (B2_G(t) + k_G LS_G(t)), by form, where
    LS_G is the rank-two (1, 1) lattice sum over the transverse lattice of G
    at the twist t xbar_G and B2_G the second-Bernoulli part of the Fraction
    walk.  A lattice sum costs a point of its parallelepiped's box, k_G or
    more of them, so P is drawn small, as small_rational_polytopes draws it;
    k_G is not otherwise bounded."""
    terms = []
    for g in all_codim2_data(P):
        r = transverse_lattice(P, g)
        xbar = tuple(t * c for c in r.xbar)
        p = LatticeSumProblem(r.lam.basis, (r.v_F1_G, r.v_F2_G), (1, 1), xbar)
        terms.append((g.k * lattice_sum_finite(p) + b2_part(P, g, t)) * g.vol_star)
    assert exact_sum(terms) == evaluate(P, t)["a_d2"]


def test_series_converges_to_finite_value():
    p = LatticeSumProblem(Z1, ((1,),), (2,), (Fraction(1, 3),))
    exact = float(-periodized(2, Fraction(1, 3)) / 2)
    assert lattice_sum_series(p, 1e-3, 200) == pytest.approx(exact, abs=1e-3)
    assert series_extrapolated(p, [4e-3, 2e-3], 200) == pytest.approx(exact, abs=1e-3)
    with pytest.raises(ValueError):
        lattice_sum_series(p, 0.0, 10)


def test_rank_three_rejected():
    Z3 = ref.identity(3)
    p = LatticeSumProblem(Z3, tuple(ref.columns(Z3)), (2, 2, 2), (0, 0, 0))
    with pytest.raises(ValueError):
        lattice_sum_finite(p)
    # but the residue form still handles it
    assert gunnels_sczech(ref.identity(3), (2, 2, 2), (0, 0, 0)) == Fraction(-1, 1728)

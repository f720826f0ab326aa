import math
import random
from fractions import Fraction

import pytest

from eak import linalg
from eak.bernoulli import periodized
from eak.dedekind import dr_sum_fast
from eak.exactval import ExactValue
from eak.lattice import EmbeddedLattice
from eak.lattice_sum import (
    LatticeSumProblem,
    gunnels_sczech,
    lattice_sum_finite,
    lattice_sum_series,
    series_extrapolated,
)
from eak.local_data import all_codim2_data
from eak.polytope import Polytope

from conftest import transverse_lattice

Z1 = EmbeddedLattice(1, ((1,),))
Z2 = EmbeddedLattice(2, ((1, 0), (0, 1)))


def test_problem_validation():
    with pytest.raises(ValueError):
        LatticeSumProblem(Z2, ((1, 0),), (2,), (0, 0))  # one form for rank 2
    with pytest.raises(ValueError):
        LatticeSumProblem(Z1, ((1,),), (0,), (0,))  # non-positive exponent
    with pytest.raises(ValueError):
        LatticeSumProblem(Z2, ((1, 0), (2, 0)), (2, 2), (0, 0))  # dependent forms
    with pytest.raises(ValueError):
        LatticeSumProblem(Z2, ((Fraction(1, 2), 0), (0, 1)), (2, 2), (0, 0))  # off dual


def test_one_dimensional_closed_form():
    # rank one: the sum collapses to -B~_e(-x) / e!
    for e, x in [(2, Fraction(1, 3)), (2, Fraction(0)), (3, Fraction(2, 7))]:
        p = LatticeSumProblem(Z1, ((1,),), (e,), (x,))
        expected = -periodized(e, -x) / Fraction(math.factorial(e))
        assert lattice_sum_finite(p).as_rational() == expected


def test_identity_rank_two():
    p = LatticeSumProblem(Z2, ((1, 0), (0, 1)), (2, 2), (0, 0))
    # product of two one-dimensional zeta values: (2 zeta(2)/(2 pi i)^2)^2
    assert lattice_sum_finite(p).as_rational() == Fraction(1, 144)
    assert gunnels_sczech([[1, 0], [0, 1]], (2, 2), (0, 0)) == Fraction(1, 144)


def test_finite_matches_residue_form():
    rng = random.Random(13)
    for _ in range(8):
        d = rng.choice((1, 2))
        while True:
            W = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            if linalg.det(W) != 0:
                break
        e = tuple(rng.choice((2, 3)) for _ in range(d))
        x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d))
        lat = EmbeddedLattice(d, tuple(tuple(r) for r in linalg.identity(d)))
        p = LatticeSumProblem(lat, tuple(linalg.columns(W)), e, x)
        assert lattice_sum_finite(p).as_rational() == gunnels_sczech(W, e, x)


def test_residue_form_requires_convergence():
    with pytest.raises(ValueError):
        gunnels_sczech([[1]], (1,), (0,))
    with pytest.raises(ValueError):
        gunnels_sczech([[0]], (2,), (0,))


def test_conditionally_convergent_decomposition(delta):
    """Rank-two (1,1) sums match the dihedral-angle / Dedekind splitting."""
    for g in all_codim2_data(delta):
        r = transverse_lattice(delta, g)
        for t in (Fraction(1, 2), Fraction(1), Fraction(2, 3)):
            xbar = tuple(t * (g.x1 * a + g.x2 * b) for a, b in zip(r.v_F1_G, r.v_F2_G))
            p = LatticeSumProblem(r.lam, (r.v_F1_G, r.v_F2_G), (1, 1), xbar)
            expected = ExactValue.of(
                -dr_sum_fast(g.h, g.k, (g.x1 + g.h * g.x2) * t, -g.k * g.x2 * t)
            )
            if g.membership_scale(t):
                expected = expected + ExactValue.angle_turn(g.c_G) - Fraction(1, 4)
            assert lattice_sum_finite(p) == expected


def test_series_converges_to_finite_value():
    p = LatticeSumProblem(Z1, ((1,),), (2,), (Fraction(1, 3),))
    exact = float(-periodized(2, Fraction(1, 3)) / 2)
    assert lattice_sum_series(p, 1e-3, 200) == pytest.approx(exact, abs=1e-3)
    assert series_extrapolated(p, [4e-3, 2e-3], 200) == pytest.approx(exact, abs=1e-3)
    with pytest.raises(ValueError):
        lattice_sum_series(p, 0.0, 10)


def test_rank_three_rejected():
    Z3 = EmbeddedLattice(3, tuple(tuple(r) for r in linalg.identity(3)))
    p = LatticeSumProblem(Z3, tuple(linalg.columns(linalg.identity(3))), (2, 2, 2), (0, 0, 0))
    with pytest.raises(ValueError):
        lattice_sum_finite(p)
    # but the residue form still handles it
    assert gunnels_sczech(linalg.identity(3), (2, 2, 2), (0, 0, 0)) == Fraction(-1, 1728)

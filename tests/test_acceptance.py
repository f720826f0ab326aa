"""Acceptance suite: end-to-end checks of the whole package, one test
(and one pass/fail line under ``pytest -v``) per criterion.

Each criterion prints a ``criterion NN ... : pass`` line; a failing
assertion shows the criterion label in the pytest failure line.
"""

import math
import random
import time
from fractions import Fraction

from eak import coefficients as co
from eak import linalg, oracle
from eak.bernoulli import periodized
from eak.concrete import is_concrete, symmetrized_multitiling_level
from eak.bernoulli import one_sided_B1
from eak.dedekind import dr_sum_fast
from eak.exactval import AngleValue, ExactValue
from eak.lattice_sum import LatticeSumProblem, lattice_sum_finite
from eak.local_data import all_codim2_data
from eak.polytope import Polytope

import reference_linalg as ref
from conftest import (
    centrally_symmetric_facets,
    interpolated_angle_sum,
    random_integer_polytope,
    random_rational_polytope,
    random_tetrahedron,
    transverse_lattice,
)
from reference_coefficients import membership_scale, tetrahedron_identity
from reference_dedekind import _reciprocity_rhs, dr_sum_direct
from reference_lattice import gunnels_sczech, series_extrapolated

DELTA = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
ORDER = Polytope(3, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)])
HALF_ORDER = Polytope(3, [tuple(Fraction(c, 2) for c in v) for v in ORDER.vertices])
CUBE = Polytope(3, [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
HEX_PRISM = Polytope(
    3,
    [
        (x, y, z)
        for x, y in [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
        for z in (0, 1)
    ],
)

DELTA_ANGLE = ExactValue(
    Fraction(-5, 12), ((Fraction(3), AngleValue(1, Fraction(1, 3))),)
)


def _report(label: str) -> None:
    print(f"{label}: pass")


def _random_t(rng: random.Random) -> Fraction:
    while True:
        t = Fraction(rng.randint(1, 48), rng.randint(1, 12))
        if 0 < t <= 4:
            return t


GOLDEN_T = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 5)]


def test_criterion_01_ehrhart_golden_standard_simplex():
    start = time.perf_counter()
    e1, e2 = co.coeff_e_d1(DELTA), co.coeff_e_d2(DELTA)
    for t in GOLDEN_T:
        b1p = one_sided_B1(t, "plus")
        assert e1.eval(t) == ExactValue.of(-Fraction(1, 2) * b1p + Fraction(3, 4))
        expected = Fraction(1, 2) * periodized(2, t) - Fraction(3, 2) * b1p + 1
        assert e2.eval(t) == ExactValue.of(expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _report("criterion 01 (Ehrhart coefficients of the standard simplex)")


def test_criterion_02_solid_angle_golden_standard_simplex():
    a1, a2 = co.coeff_a_d1(DELTA), co.coeff_a_d2(DELTA)
    for t in GOLDEN_T:
        assert a1.eval(t) == ExactValue.of(-Fraction(1, 2) * periodized(1, t))
    assert a2.eval(1) == DELTA_ANGLE
    assert a2.eval(Fraction(1, 2)) == ExactValue.of(Fraction(5, 24))
    _report("criterion 02 (solid-angle coefficients of the standard simplex)")


def test_criterion_03_order_simplex_golden_and_concrete_values():
    a1, a2 = co.coeff_a_d1(ORDER), co.coeff_a_d2(ORDER)
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
        assert a1.eval(t) == ExactValue.of(-Fraction(1, 2) * periodized(1, t))
        expected = (
            Fraction(1, 2) * periodized(2, t)
            - (Fraction(1, 8) if t.denominator == 1 else 0)
            + Fraction(1, 24)
        )
        assert a2.eval(t) == ExactValue.of(expected)
    q = co.complete_quasipolynomial(ORDER, "solid-angle")
    for t in range(1, 7):
        assert q.value(t) == ExactValue.of(Fraction(t**3, 6))
    _report("criterion 03 (order simplex coefficients and A(t) = t^3/6)")


def test_criterion_04_unimodular_images_count_alike():
    rng = random.Random(404)
    for _ in range(50):
        t = _random_t(rng)
        assert oracle.count_points(DELTA, t) == oracle.count_points(ORDER, t)
    _report("criterion 04 (lattice counts agree on a unimodular image, 50 dilations)")


def test_criterion_05_dedekind_rademacher_consistency():
    start = time.perf_counter()
    rng = random.Random(505)
    done = 0
    while done < 200:
        k = rng.randint(2, 100)
        h = rng.randint(1, k - 1)
        if math.gcd(h, k) != 1:
            continue
        x = Fraction(rng.randint(-24, 24), rng.randint(1, 12))
        y = Fraction(rng.randint(-24, 24), rng.randint(1, 12))
        direct = dr_sum_direct(h, k, x, y)
        assert dr_sum_fast(h, k, x, y) == direct
        assert direct + dr_sum_direct(k, h, y, x) == _reciprocity_rhs(h, k, x, y)
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    _report(f"criterion 05 (200 Dedekind-Rademacher reciprocity descents, {elapsed:.2f}s)")


def test_criterion_06_transverse_cone_invariants():
    rng = random.Random(606)
    for _ in range(100):
        P = random_rational_polytope(rng)
        for g in all_codim2_data(P):
            r = transverse_lattice(P, g)
            (v1, b1), (v2, b2) = P.inequalities[g.f1], P.inequalities[g.f2]
            assert (g.h, g.k, g.x1, g.x2) == (r.h, r.k, r.x1, r.x2)
            assert linalg.dot(r.v_F1_G, v1) == 0
            assert linalg.dot(r.v_F2_G, v2) == 0
            assert linalg.dot(r.v_F1_G, v2) == g.k
            assert linalg.dot(r.v_F2_G, v1) == g.k
            gram2 = ref.det(ref.gram([linalg.vec(v1), linalg.vec(v2)]))
            assert Fraction(g.k) ** 2 == abs(gram2) / r.lam.gram_det
            assert b1 == g.k * g.x2 and b2 == g.k * g.x1
            assert g.norm2_sq == r.lam.gram_det * linalg.norm_sq(r.v_F2_G)
            assert tuple(r.v_F2_G) == tuple(
                g.h * a + g.k * b for a, b in zip(r.basis_v1, r.basis_v2)
            )
    _report("criterion 06 (transverse-cone invariants on 100 random rational polytopes)")


def test_criterion_07_tetrahedron_identity():
    rng = random.Random(707)
    for _ in range(50):
        T = random_tetrahedron(rng, rad=3)
        assert tetrahedron_identity(T) == 0
    _report("criterion 07 (edge-sum identity vanishes on 50 random integer tetrahedra)")


def _count_samples(P, t):
    return [(t + j, Fraction(oracle.count_points(P, t + j))) for j in range(4)]


def _oracle_test_set():
    """Shared polytope/dilation set for the two oracle-equivalence criteria."""
    rng = random.Random(808)
    out = []
    for _ in range(25):
        P = random_integer_polytope(rng)
        out.append((P, [_random_t(rng) for _ in range(5)]))
    return out


def test_criterion_08_ehrhart_formula_matches_oracle():
    for P, ts in _oracle_test_set():
        e1, e2 = co.coeff_e_d1(P), co.coeff_e_d2(P)
        for t in ts:
            cs = oracle.interpolate_coefficients(_count_samples(P, t), 3)
            assert cs[0] == P.volume()
            assert ExactValue.of(cs[1]) == e1.eval(t)
            assert ExactValue.of(cs[2]) == e2.eval(t)
    _report("criterion 08 (Ehrhart coefficients vs. counting oracle, 25 polytopes x 5 t)")


def test_criterion_09_solid_angle_formula_matches_oracle():
    for P, ts in _oracle_test_set():
        a1, a2 = co.coeff_a_d1(P), co.coeff_a_d2(P)
        for t in ts:
            cs = interpolated_angle_sum(P, [t + j for j in range(4)])
            assert cs[0] == ExactValue.of(P.volume())
            assert cs[1] == a1.eval(t)
            assert cs[2] == a2.eval(t)
    _report("criterion 09 (solid-angle coefficients vs. angle-sum oracle, 25 polytopes x 5 t)")


def test_criterion_10_lattice_sum_consistency():
    rng = random.Random(1010)
    for _ in range(50):
        d = rng.choice((1, 2))
        while True:
            W = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            if ref.det(W) != 0:
                break
        e = tuple(rng.choice((2, 3)) for _ in range(d))
        x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d))
        p = LatticeSumProblem(ref.identity(d), tuple(ref.columns(W)), e, x)
        assert lattice_sum_finite(p) == ExactValue.of(gunnels_sczech(W, e, x))
    # conditionally convergent (1,1) sums against the angle/Dedekind splitting
    checked = 0
    for P in (DELTA, ORDER, HALF_ORDER):
        for g in all_codim2_data(P):
            if checked >= 20:
                break
            r = transverse_lattice(P, g)
            t = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            xbar = tuple(t * (g.x1 * a + g.x2 * b) for a, b in zip(r.v_F1_G, r.v_F2_G))
            p = LatticeSumProblem(r.lam.basis, (r.v_F1_G, r.v_F2_G), (1, 1), xbar)
            expected = ExactValue.of(
                -dr_sum_fast(g.h, g.k, (g.x1 + g.h * g.x2) * t, -g.k * g.x2 * t)
            )
            if membership_scale(g, t):
                expected = expected + ExactValue.angle_turn(g.c_G) - Fraction(1, 4)
            assert lattice_sum_finite(p) == expected
            checked += 1
    assert checked >= 18
    # damped-series oracle within 1e-3 of the exact value
    p = LatticeSumProblem(((1,),), ((1,),), (2,), (Fraction(1, 3),))
    exact = float(-periodized(2, Fraction(1, 3)) / 2)
    assert abs(series_extrapolated(p, [4e-3, 2e-3, 1e-3], 200) - exact) < 1e-3
    _report("criterion 10 (lattice-sum evaluators agree: 50 residue, 20 split, series)")


def test_criterion_11_concreteness_suite():
    start = time.perf_counter()
    for P in (CUBE, HEX_PRISM):
        assert centrally_symmetric_facets(P)
        assert is_concrete(P, 4).concrete
    for P in (ORDER, HALF_ORDER):
        assert is_concrete(P, 6).concrete
    bad = is_concrete(DELTA, 1)
    assert not bad.concrete and bad.failed_t == 1
    assert bad.defect == DELTA_ANGLE
    tiling = symmetrized_multitiling_level(ORDER, samples=64, seed=0)
    assert tiling.level == 8
    broken = symmetrized_multitiling_level(DELTA, samples=64, seed=0)
    assert broken.level is None and broken.witness is not None
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    _report(f"criterion 11 (concreteness and multi-tiling suite, {elapsed:.2f}s)")


def test_criterion_12_facet_coefficient_recovery():
    rng = random.Random(1212)
    for _ in range(10):
        P = random_integer_polytope(rng)
        direct = co.coeff_a_d1(P)
        for _ in range(5):
            t = _random_t(rng)
            assert co.recovered_a_d1(P, t) == direct.eval(t)
        # the face-bucketed sum, whose face angles carry over from one t to
        # the next, against the per-point reference
        for t in (1, 2, Fraction(3, 2)):
            assert oracle.solid_angle_sum(P, t) == oracle.appendixA_cross_check(P, t)
    _report("criterion 12 (facet coefficient recovered from the reflected Ehrhart data)")

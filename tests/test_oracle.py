import contextlib
import io
import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eak import cli
from eak import coefficients as co
from eak import _kernels, linalg, local_data, oracle
from eak.exactval import AngleValue, ExactValue, angle_of_cos_ratio, exact_sum
from eak.polytope import Polytope

import reference_linalg as ref
from conftest import (
    FOUR_POLYTOPE,
    hull_or_none,
    interpolated_angle_sum,
    newton_interpolation,
    random_integer_polytope,
    random_rational_polytope,
    reference_scaled_system,
    reference_scan_box,
    small_rational_polytopes,
    vandermonde_interpolation,
)


def test_count_points(delta, cube, square):
    assert [oracle.count_points(delta, t) for t in (1, 2, 3)] == [4, 10, 20]
    assert oracle.count_points(delta, Fraction(1, 2)) == 1
    assert oracle.count_points(cube, 2) == 27
    assert oracle.count_points(square, Fraction(5, 2)) == 9
    with pytest.raises(ValueError):
        oracle.count_points(delta, 0)


def test_budget(delta):
    # the box of 1000*Delta_3 holds 1001^3, about 10^9, candidates
    with pytest.raises(oracle.BudgetExceeded):
        oracle.count_points(delta, 1000)


@pytest.mark.parametrize("q", [4 * 10**16 + 1, 10**19 + 1])
def test_count_refuses_int64_overflow(q):
    # scaled rows of 200*Delta_3 at t = (q+1)/q leave int64 over the box; the
    # true count is C(203, 3) = 1373701, and q = 4*10**16+1 used to wrap
    P = Polytope(3, [(0, 0, 0), (200, 0, 0), (0, 200, 0), (0, 0, 200)])
    with pytest.raises(oracle.BudgetExceeded, match="int64"):
        oracle.count_points(P, Fraction(q + 1, q))


def test_count_refuses_slack_beyond_int64():
    # [-10, 10]^3 at t = (q+1)/q: the row q*x1 <= 10(q+1) stays below 2**63
    # over the box (11q) and so does its bound (10q + 10), but its slack
    # 10(q+1) + 11q on the line x1 = -11 does not
    q = 6 * 10**17 + 1
    P = Polytope(3, [(x, y, z) for x in (-10, 10) for y in (-10, 10) for z in (-10, 10)])
    with pytest.raises(oracle.BudgetExceeded, match="int64"):
        oracle.count_points(P, Fraction(q + 1, q))


def test_count_points_builds_no_boundary_points(delta, monkeypatch):
    # counting sums the line lengths: it never reaches the boundary stage
    def boundary_stage(*args):
        raise AssertionError("count_points built boundary points")

    monkeypatch.setattr(_kernels, "_boundary", boundary_stage)
    assert [oracle.count_points(delta, t) for t in (1, 2, Fraction(7, 2))] == [4, 10, 20]


def test_count_exact_near_int64_limit():
    # rows scaled by 4*10**16+1 over a box of side 21 stay below 2**63
    q = 4 * 10**16 + 1
    P = Polytope(3, [(0, 0, 0), (20, 0, 0), (0, 20, 0), (0, 0, 20)])
    assert oracle.count_points(P, Fraction(q + 1, q)) == 1771  # C(23, 3)


def test_each_ridge_angle_is_computed_once(hex_prism, monkeypatch):
    """The angle table, the codim-2 data and the closed forms of a fresh P
    share one dihedral angle per ridge."""
    calls = []
    dihedral_angle = local_data.dihedral_angle

    def counted(v1, v2):
        calls.append(frozenset((v1, v2)))
        return dihedral_angle(v1, v2)

    monkeypatch.setattr(local_data, "dihedral_angle", counted)
    for P in (hex_prism, Polytope(4, FOUR_POLYTOPE)):
        calls.clear()
        oracle.angle_table(P)
        local_data.all_codim2_data(P)
        co.evaluate(P, Fraction(1, 2))
        assert len(calls) == len(set(calls)) == len(P.codim2_faces())


def test_each_ridge_canonical_term_is_computed_once(hex_prism, monkeypatch):
    """The angle table and omega_G of the closed forms read one canonical
    arccos term per ridge, kept on its dihedral angle."""
    calls = []
    rational_turn = AngleValue.rational_turn

    def counted(angle):
        calls.append(id(angle))
        return rational_turn(angle)

    monkeypatch.setattr(AngleValue, "rational_turn", counted)
    for P in (hex_prism, Polytope(4, FOUR_POLYTOPE)):
        calls.clear()
        oracle.angle_table(P)
        co.evaluate(P, 1)
        assert len(calls) == len(set(calls)) == len(P.codim2_faces())


def test_solid_angle_sum_builds_no_codim2_data(hex_prism, monkeypatch):
    """The solid angles read only the ridges' dihedral angles: no h, k or
    face volume is built for them."""

    def refuse(P, face):
        raise AssertionError("codim-2 data built")

    monkeypatch.setattr(local_data, "codim2_data", refuse)
    total = oracle.solid_angle_sum(hex_prism, 2)
    monkeypatch.undo()
    assert total == oracle.appendixA_cross_check(hex_prism, 2)


def test_one_dimensional_formulas_match_oracles():
    for ends in ((Fraction(1, 2), Fraction(7, 3)), (0, 1), (Fraction(-3, 4), Fraction(5, 2))):
        P = Polytope(1, [(e,) for e in ends])
        m = P.denominator()
        e_d1, a_d1 = co.coeff_e_d1(P), co.QuasiCoefficient("a_d1", P)
        for t in (Fraction(1, 3), Fraction(1, 2), 1, Fraction(5, 4), 2):
            ts = [t + j * m for j in range(2)]
            ec = oracle.interpolate_coefficients(
                [(s, Fraction(oracle.count_points(P, s))) for s in ts], 1
            )
            ac = interpolated_angle_sum(P, ts)
            assert ec[0] == P.volume()
            assert e_d1.eval(t) == ExactValue.of(ec[1])
            assert a_d1.eval(t) == ac[1]


def test_solid_angle_at_loci(cube, delta):
    assert oracle.solid_angle_at(cube, (Fraction(1, 2),) * 3) == ExactValue.of(1)
    assert oracle.solid_angle_at(cube, (0, Fraction(1, 2), Fraction(1, 2))) == ExactValue.of(Fraction(1, 2))
    assert oracle.solid_angle_at(cube, (0, 0, Fraction(1, 2))) == ExactValue.of(Fraction(1, 4))
    assert oracle.solid_angle_at(cube, (0, 0, 0)) == ExactValue.of(Fraction(1, 8))
    assert oracle.solid_angle_at(cube, (2, 0, 0)) == ExactValue.of(0)
    assert oracle.solid_angle_at(cube, (2, 0, 0), t=2) == ExactValue.of(Fraction(1, 8))
    # simplex vertex at the origin is a coordinate corner
    assert oracle.solid_angle_at(delta, (0, 0, 0)) == ExactValue.of(Fraction(1, 8))
    # the three unit vertices are congruent; all four angles sum to A(1)
    apexes = [oracle.solid_angle_at(delta, v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    assert apexes[0] == apexes[1] == apexes[2]
    total = ExactValue.of(Fraction(1, 8)) + apexes[0] * 3
    assert total == oracle.solid_angle_sum(delta, 1)


def test_solid_angle_sum(delta, order, square):
    assert oracle.solid_angle_sum(delta, Fraction(1, 2)) == ExactValue.of(Fraction(1, 8))
    assert oracle.solid_angle_sum(order, 1) == ExactValue.of(Fraction(1, 6))
    assert oracle.solid_angle_sum(order, 3) == ExactValue.of(Fraction(27, 6))
    assert oracle.solid_angle_sum(square, 1) == ExactValue.of(1)
    # delta is not concrete: A(1) has surviving angle terms
    assert oracle.solid_angle_sum(delta, 1) == ExactValue(
        Fraction(-5, 12), ((Fraction(3), AngleValue(1, Fraction(1, 3))),)
    ) + Fraction(1, 6)


def test_vertex_angles_sum_to_half_excess(delta, cube):
    # Gram-style relation in d=3 at t large enough that all loci appear
    total = oracle.solid_angle_sum(cube, 1)
    assert total == ExactValue.of(1)  # 8 corners of 1/8


def test_gram_relation():
    # Gram: the sum over all faces F of P of (-1)^dim F times the angle at F
    # is 0; for d = 3 it ties each vertex angle to the dihedral angles
    rng = random.Random(7)
    for _ in range(30):
        P = random_rational_polytope(rng)
        vertices = exact_sum(oracle.solid_angle_at(P, v) for v in P.vertices)
        edges = exact_sum(
            oracle.solid_angle_at(P, [(a + b) / 2 for a, b in zip(P.vertices[i], P.vertices[k])])
            for i, k in (G.vertex_ids for G in P.codim2_faces())
        )
        gram = vertices - edges + Fraction(len(P.facets()), 2) - 1
        assert gram == ExactValue.of(0)


@settings(deadline=None)
@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=4, max_size=4, unique=True))
def test_gram_relation_on_integer_tetrahedra(points):
    """omega(P) - sum of facet angles + sum of edge angles - sum of vertex
    angles, each from _transverse_angle of the face's tight rows, is 0 in
    form: Girard's vertex angles cancel the dihedral ones by Euler's
    relation, so only the merge of the terms is tested."""
    P = hull_or_none(3, points)
    assume(P is not None)
    gram = exact_sum(
        oracle._transverse_angle(P, F.tight) * (-1) ** c
        for c in range(4)
        for F in P.faces_of_codim(c)
    )
    assert gram == ExactValue.of(0)


def _edge_turn(a1, a2) -> ExactValue:
    """The dihedral angle fraction at a codim-2 locus with facet normals
    a1, a2, from the normals alone."""
    angle = angle_of_cos_ratio(-linalg.dot(a1, a2), linalg.norm_sq(a1) * linalg.norm_sq(a2))
    return ExactValue.angle_turn(angle)


def _check_dihedral_angles(P):
    for g in local_data.all_codim2_data(P):
        expected = _edge_turn(*(a for i, (a, _) in enumerate(P.inequalities)
                                if g.face.tight >> i & 1))
        assert ExactValue.angle_turn(g.c_G) == expected
        assert oracle._transverse_angle(P, g.face.tight) == expected


def test_dihedral_angle_is_c_G(cube, delta):
    for P in (cube, delta):
        _check_dihedral_angles(P)


def test_transverse_angle_refuses_a_tight_set_of_no_face(cube):
    # facets 0 and 5 of the cube are x = 0 and x = 1: they meet nowhere.
    # No scan reaches such a set, so it is an internal error, not a refusal
    # of an input (a ValueError would print as one)
    x_facets = [i for i, (a, _) in enumerate(cube.inequalities) if a[1:] == (0, 0)]
    with pytest.raises(RuntimeError, match=rf"no face .* {re.escape(str(x_facets))}$"):
        oracle._transverse_angle(cube, sum(1 << i for i in x_facets))


def test_oracle_path_takes_no_rank_or_inverse(tmp_path, capsys, delta, cube):
    """Angles come from the face lattice and the local data, and the
    coefficients from one integer Lagrange matrix: the package has no
    rank, rref, inverse or other Fraction elimination to take."""
    P4 = Polytope(4, FOUR_POLYTOPE)
    codim3 = [F.tight for F in P4.faces_of_codim(3)]
    expected = [oracle._transverse_angle(Polytope(4, FOUR_POLYTOPE), tight) for tight in codim3]
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(delta.to_json()))

    for name in ref.FRACTION_ROUTINES:
        assert hasattr(ref, name) and not hasattr(linalg, name)
    assert cli.run(["verify", str(path), "--t", "1", "--t", "1/2"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert oracle.solid_angle_sum(cube, 2) == ExactValue.of(8)
    assert oracle.appendixA_cross_check(delta, 2) == oracle.solid_angle_sum(delta, 2)
    assert [oracle._transverse_angle(P4, tight) for tight in codim3] == expected
    assert len(codim3) >= 10


def test_two_dimensional_angles(square):
    tri = Polytope(2, [(0, 0), (2, 0), (0, 2)])
    assert oracle.solid_angle_at(tri, (0, 0)) == ExactValue.of(Fraction(1, 4))
    assert oracle.solid_angle_at(square, (1, 1)) == ExactValue.of(Fraction(1, 4))


def test_interpolate_coefficients():
    poly = lambda t: Fraction(2) * t**3 - t + Fraction(1, 3)
    samples = [(t, poly(Fraction(t))) for t in (1, 2, 3, 4)]
    assert oracle.interpolate_coefficients(samples, 3) == [2, 0, -1, Fraction(1, 3)]
    with pytest.raises(ValueError):
        oracle.interpolate_coefficients(samples[:3], 3)
    with pytest.raises(ValueError):
        oracle.interpolate_coefficients([(1, 0), (1, 1)], 1)


sample_values = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=20),
    st.builds(
        lambda r, c, cs: ExactValue(r, ((c, AngleValue(1, cs)),)),
        st.fractions(min_value=-5, max_value=5, max_denominator=20),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.sampled_from([Fraction(1, 3), Fraction(2, 5), Fraction(2, 3), Fraction(1, 2)]),
    ),
)


@settings(deadline=None)
@given(data=st.data(), degree=st.integers(0, 4), exact=st.booleans())
def test_newton_matches_vandermonde(data, degree, exact):
    """The two references, Newton's divided differences and the Vandermonde
    inverse, give the same coefficients of the same types: Fractions from
    Fraction samples, ExactValues as soon as one sample is an ExactValue.
    On Fraction samples the Lagrange matrix gives them too."""
    ts = data.draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                            min_size=degree + 1, max_size=degree + 1, unique=True))
    values = data.draw(st.lists(sample_values if exact else st.fractions(max_denominator=50,
                                                                       min_value=-9, max_value=9),
                                min_size=degree + 1, max_size=degree + 1))
    samples = list(zip(ts, values))
    newton = newton_interpolation(samples, degree)
    reference = vandermonde_interpolation(samples, degree)
    assert newton == reference
    assert [type(c) for c in newton] == [type(c) for c in reference]
    if not any(isinstance(v, ExactValue) for v in values):
        lagrange = oracle.interpolate_coefficients(samples, degree)
        assert lagrange == newton
        assert [type(c) for c in lagrange] == [type(c) for c in newton]


@settings(deadline=None)
@given(data=st.data(), degree=st.integers(0, 4), width=st.integers(1, 6))
def test_vector_samples_interpolate_by_component(data, degree, width):
    """Integer-vector samples give tuples of Fractions: on each component,
    Newton's coefficients of that component's samples."""
    ts = data.draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                            min_size=degree + 1, max_size=degree + 1, unique=True))
    vectors = data.draw(st.lists(st.tuples(*[st.integers(-10**6, 10**6)] * width),
                                 min_size=degree + 1, max_size=degree + 1))
    coeffs = oracle.interpolate_coefficients(list(zip(ts, vectors)), degree)
    assert all(type(c) is tuple and len(c) == width for c in coeffs)
    for i in range(width):
        component = newton_interpolation([(t, v[i]) for t, v in zip(ts, vectors)], degree)
        assert [c[i] for c in coeffs] == component


def test_interpolation_recovers_coefficients(delta):
    t = Fraction(1, 2)
    counts = [(t + j, Fraction(oracle.count_points(delta, t + j))) for j in range(4)]
    ec = oracle.interpolate_coefficients(counts, 3)
    assert ec[0] == delta.volume()
    assert ExactValue.of(ec[1]) == co.coeff_e_d1(delta).eval(t)
    assert ExactValue.of(ec[2]) == co.coeff_e_d2(delta).eval(t)
    ac = interpolated_angle_sum(delta, [t + j for j in range(4)])
    assert ac[1] == co.QuasiCoefficient("a_d1", delta).eval(t)
    assert ac[2] == co.QuasiCoefficient("a_d2", delta).eval(t)


def test_cross_check(delta):
    rng = random.Random(5)
    P = random_integer_polytope(rng)
    for t in (1, Fraction(3, 2)):
        assert oracle.appendixA_cross_check(P, t) == oracle.solid_angle_sum(P, t)
    assert oracle.appendixA_cross_check(delta, 2) == oracle.solid_angle_sum(delta, 2)


def rational_polytopes(d):
    """Hulls of d+1 to d+4 points with coordinates in [-2, 2], denominator <= 3."""
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    points = st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 4)
    return points.map(lambda pts: hull_or_none(d, pts)).filter(lambda P: P is not None)


# integer t makes the integer vertices of P lattice points of tP
dilations = st.one_of(
    st.integers(1, 3).map(Fraction),
    st.fractions(min_value=Fraction(1, 5), max_value=3, max_denominator=5),
)


def _per_point_sum(P, t):
    """A_P(t) with no grouping by face: from d = 3 on the per-point
    reference, below it solid_angle_at summed over the bounding box of t*P."""
    if P.dim >= 3:
        return oracle.appendixA_cross_check(P, t)
    box = [
        range(
            math.floor(min(v[j] * t for v in P.vertices)),
            math.ceil(max(v[j] * t for v in P.vertices)) + 1,
        )
        for j in range(P.dim)
    ]
    total = ExactValue.of(0)
    for x in itertools.product(*box):
        total = total + oracle.solid_angle_at(P, x, t)
    return total


def _value_or_refusal(f, *args):
    """f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bucketed_sum_matches_per_point_sum(d, data):
    """Both sums agree, or, when t*P has a lattice point at a vertex of a
    4-polytope, both refuse with the same message."""
    P = data.draw(rational_polytopes(d))
    # the second dilation reads the face angles the first one kept on P
    for t in data.draw(st.lists(dilations, min_size=1, max_size=2, unique=True)):
        assert (_value_or_refusal(oracle.solid_angle_sum, P, t)
                == _value_or_refusal(_per_point_sum, P, t))


@settings(max_examples=50, deadline=None)
@given(rational_polytopes(3), dilations)
def test_scaled_box_is_the_fraction_box(P, t):
    # the box from the integer vertices of L P is the floor and the ceiling
    # of the Fraction coordinates of t*P
    _, _, lo, hi = oracle._scaled_system(P, t)
    assert lo == [math.floor(min(v[j] * t for v in P.vertices)) for j in range(3)]
    assert hi == [math.ceil(max(v[j] * t for v in P.vertices)) for j in range(3)]


def _system_or_refusal(build, P, t):
    """The arrays, lo and hi of build(P, t), or the type and message of
    its refusal."""
    try:
        A, C, lo, hi = build(P, t)
    except ValueError as exc:
        return type(exc), str(exc)
    return A.dtype, A.tolist(), C.dtype, C.tolist(), lo, hi


NEAR_1E16 = st.integers(10**16 - 10**3, 10**16 + 10**3)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(rational_polytopes),
    st.builds(Fraction, st.one_of(st.integers(-2, 40), NEAR_1E16),
              st.one_of(st.integers(1, 12), NEAR_1E16)),
)
@example(P=Polytope(3, [(0, 0, 0), (20, 0, 0), (0, 20, 0), (0, 0, 20)]),
         t=Fraction(4 * 10**16 + 2, 4 * 10**16 + 1))  # within a factor three of 2**63
def test_scaled_system_is_the_fraction_build(P, t):
    """Each row's bound from integers gives the arrays, the box and every
    refusal of the build on the Fraction b * t, t <= 0 included."""
    assert (_system_or_refusal(oracle._scaled_system, P, t)
            == _system_or_refusal(reference_scaled_system, P, t))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_count_is_the_scan_by_face_total(d, data):
    P = data.draw(rational_polytopes(d))
    t = data.draw(dilations)
    (interior, faces), = oracle.face_counts(P, [t])
    assert oracle.count_points(P, t) == interior + sum(faces.values())


@pytest.mark.parametrize("d", [2, 3, 4])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_angle_table_matches_per_face_reference(d, data):
    """Each face's row of P's AngleTable, over D, is _transverse_angle of
    its tight rows, and None exactly at the vertices of a 4-polytope; the
    table's sum is the per-point sum, or both refuse alike."""
    P = data.draw(rational_polytopes(d))
    table = oracle.angle_table(P)
    assert oracle.angle_table(P) is table
    for c in range(1, d + 1):
        for F in P.faces_of_codim(c):
            vector, left_out = table.vector(0, {F.tight: 1})
            angle = oracle._transverse_angle(P, F.tight)
            assert left_out == (c == 4) == (angle is None)
            if angle is not None:
                assert table.value(vector) == angle
    t = data.draw(dilations)
    assert (_value_or_refusal(oracle.solid_angle_sum, P, t)
            == _value_or_refusal(oracle.appendixA_cross_check, P, t))


def _reference_face_counts(P, s):
    """The scan of s*P by face from the reference box scan: its boundary
    points grouped by boundary @ A.T == C."""
    A, C, lo, hi = oracle._scaled_system(P, s)
    interior, boundary = reference_scan_box(A, C, lo, hi)
    keys = Counter(sum(1 << int(i) for i in np.flatnonzero(tight)) for tight in boundary @ A.T == C)
    return interior, dict(keys)


@st.composite
def polytopes_and_dilations(draw):
    """P in d = 1..4 and the dilations t + j m, j = 0..d, that verify scans,
    or unrelated dilations, whose boxes differ in size and position."""
    P = draw(st.integers(1, 4).flatmap(small_rational_polytopes))
    t = draw(dilations)
    if draw(st.booleans()):
        return P, [t + j * P.denominator() for j in range(P.dim + 1)]
    return P, [t, *draw(st.lists(dilations, max_size=P.dim))]


# the longest box side is the first axis
@example((Polytope(3, [(0, 0, 0), (4, 0, 0), (0, 1, 0), (0, 0, 1)]), [1, 2, 3, 4]))
@example((Polytope(2, [(0, 0), (Fraction(5, 2), 0), (0, 1)]),
          [Fraction(1, 2), Fraction(5, 2), Fraction(9, 2)]))
# far from the origin, at unrelated dilations: boxes apart and of other sizes
@example((Polytope(2, [(10, 10), (12, 10), (10, 11)]), [Fraction(7, 3), 1, 2]))
@settings(max_examples=60, deadline=None)
@given(polytopes_and_dilations())
def test_face_counts_match_the_reference_scan(case):
    """One boundary pass over several dilations gives, for each, the
    reference scan's interior count and boundary points by tight set."""
    P, ts = case
    ts = [Fraction(s) for s in ts]
    assert oracle.face_counts(P, ts) == [_reference_face_counts(P, s) for s in ts]


@pytest.mark.parametrize("d", [2, 3, 4])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_verify_prints_the_newton_interpolation_of_the_oracles(d, data, tmp_path_factory):
    """verify's oracle coefficients, read from integer vectors, are Newton's
    interpolation of count_points and solid_angle_sum at t + j m; where a
    4-D vertex makes solid_angle_sum refuse, the counts still are."""
    P = data.draw(small_rational_polytopes(d))
    t = data.draw(dilations)
    path = tmp_path_factory.mktemp("verify") / "p.json"
    path.write_text(json.dumps(P.to_json()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["verify", str(path), "--t", str(t)]) == 0
    printed = {line.split(": ")[0].split()[1]: line.split(" oracle=")[1].rsplit(" [", 1)[0]
               for line in out.getvalue().splitlines()}
    ts = [t + j * P.denominator() for j in range(d + 1)]
    counts = newton_interpolation([(s, oracle.count_points(P, s)) for s in ts], d)
    expected = {name: str(ExactValue.of(counts[k]))
                for name, k in (("vol", 0), ("e_d1", 1), ("e_d2", 2)) if k <= d}
    try:
        angles = newton_interpolation([(s, oracle.solid_angle_sum(P, s)) for s in ts], d)
        expected.update({"a_d1": str(angles[1]), "a_d2": str(angles[2])})
    except ValueError as refusal:
        assert d == 4 and str(refusal) == oracle.VERTEX_REFUSAL
        del printed["a_d1"], printed["a_d2"]
    assert printed == expected


def _verify_rows(P, t, tmp_path_factory):
    """verify's printed rows for P at t, each split into its t, its name
    and formula, and its oracle column with the verdict."""
    path = tmp_path_factory.mktemp("verify") / "p.json"
    path.write_text(json.dumps(P.to_json()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["verify", str(path), "--t", str(t)]) == 0
    return [(line.split(" ", 1)[0], *line.split(" ", 1)[1].split(" oracle="))
            for line in out.getvalue().splitlines()]


DELTA3 = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
HALF_DELTA4 = Polytope(4, [(0,) * 4, *(tuple(Fraction(i == j, 2) for j in range(4))
                                      for i in range(4))])


# each past the enumeration budget at t + j m: Delta_3's box at t = 250
# has 15813251 candidate points
@example(P=DELTA3, t=Fraction(250), j=0)
@example(P=DELTA3, t=Fraction(1000001, 3), j=0)
@example(P=HALF_DELTA4, t=Fraction(10**6 + 1, 2), j=0)
@settings(max_examples=30, deadline=None)
@given(P=st.integers(1, 4).flatmap(small_rational_polytopes), t=dilations,
       j=st.integers(0, 10**6))
def test_verify_scans_the_class_representative_of_t(P, t, j, tmp_path_factory):
    """verify at t + j m prints the oracle column it prints at t0, the
    representative of the class of t in (0, m], and passes every check: the
    quasi-coefficients depend on t mod m only, so the scans of t0 + i m
    answer for every t of the class, however far past the budget."""
    m = P.denominator()
    t += j * m
    t0 = co.class_representative(t, m)
    assert 0 < t0 <= m and (t - t0) % m == 0
    rows, rows0 = _verify_rows(P, t, tmp_path_factory), _verify_rows(P, t0, tmp_path_factory)
    assert rows and all(s == f"t={t}" and column.endswith(" [pass]") for s, _, column in rows)
    assert [column for *_, column in rows] == [column for *_, column in rows0]


def test_tight_set_keys_past_63_facets():
    # the 70 vertices of this polygon lie on a parabola: 70 facets, so the
    # tight-set keys of the scan reach past bit 63
    P = Polytope(2, [(i, i * i) for i in range(70)])
    assert len(P.inequalities) == 70
    (interior, faces), = oracle.face_counts(P, [1])
    assert max(faces).bit_length() > 64
    assert interior + sum(faces.values()) == oracle.count_points(P, 1)
    assert oracle.solid_angle_sum(P, 1) == oracle.appendixA_cross_check(P, 1)


CUBE4 = Polytope(4, list(itertools.product((0, 1), repeat=4)))


def test_four_dimensional_sum_refuses_at_the_vertices():
    # 2*[0,1]^4 has 81 lattice points; its 16 vertices have no exact angle
    with pytest.raises(ValueError) as refusal:
        oracle.solid_angle_sum(CUBE4, 2)
    assert "vertex" in str(refusal.value) and "\n" not in str(refusal.value)
    table = oracle.angle_table(CUBE4)
    total, left_out = table.vector(*oracle.face_counts(CUBE4, [2])[0])
    assert left_out == 16
    # A(2) = vol(2*[0,1]^4) = 16, less the 16 vertex angles of 1/16
    assert table.value(total) == ExactValue.of(15)


def test_four_dimensional_vertex_angle_matches_monte_carlo():
    # the angle the exact sum leaves out at each vertex, sampled here
    tight = tuple(i for i, (a, b) in enumerate(CUBE4.inequalities)
                  if linalg.dot(a, (0, 0, 0, 0)) == b)
    normals = np.array([CUBE4.inequalities[i][0] for i in tight], dtype=float)
    u = np.random.default_rng(20240817).standard_normal((10**6, 4))
    sampled = np.mean(np.all(u @ normals.T <= 0.0, axis=1))
    assert 16 * sampled == pytest.approx(1.0, abs=5e-3)


def test_four_dimensional_sum_exact_off_the_vertices():
    # at t = 1 the lattice points of [0,1]^3 x [1/3,4/3] lie on its edges,
    # each with the angle 1/8 of a 3-dimensional octant
    P = Polytope(4, [(*v, w) for v in itertools.product((0, 1), repeat=3)
                     for w in (Fraction(1, 3), Fraction(4, 3))])
    total = oracle.solid_angle_sum(P, 1)
    assert isinstance(total, ExactValue) and total == ExactValue.of(1)
    # solid_angle_at gives the same angle at one point on an edge
    assert oracle.solid_angle_at(P, (0, 0, 0, 1)) == ExactValue.of(Fraction(1, 8))


def test_solid_angle_at_refuses_a_vertex_of_a_4_polytope():
    delta4 = Polytope(4, [(0,) * 4, *(tuple(int(i == j) for j in range(4)) for i in range(4))])
    with pytest.raises(ValueError, match="vertex of a 4-polytope"):
        oracle.solid_angle_at(delta4, (0, 1, 0, 0))
    # off the vertices the angle is exact: 1/2 inside a facet
    assert oracle.solid_angle_at(delta4, (0, 1, 1, 1), 4) == ExactValue.of(Fraction(1, 2))


def test_four_dimensional_edge_angles_match_monte_carlo():
    # Girard's angle on the edges of a 4-polytope against a sampled estimate
    P = Polytope(4, FOUR_POLYTOPE)
    u = np.random.default_rng(1).standard_normal((200_000, 4))
    checked = 0
    for v, w in itertools.combinations(P.vertices, 2):
        tight = tuple(i for i, (a, b) in enumerate(P.inequalities)
                      if linalg.dot(a, v) == b == linalg.dot(a, w))
        normals = [P.inequalities[i][0] for i in tight]
        if ref.rank(normals) != 3:
            continue
        sampled = np.mean(np.all(u @ np.array(normals, dtype=float).T <= 0, axis=1))
        angle = oracle._transverse_angle(P, sum(1 << i for i in tight))
        assert angle.eval_numeric() == pytest.approx(sampled, abs=4e-3)
        checked += 1
    assert checked >= 10


@settings(max_examples=15, deadline=None)
@given(rational_polytopes(4))
def test_dihedral_angle_is_c_G_in_dimension_four(P):
    _check_dihedral_angles(P)

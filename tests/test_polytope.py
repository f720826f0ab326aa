import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eak import linalg, oracle, polytope
from eak.exactval import AngleValue, ExactValue
from eak.local_data import all_codim2_data
from eak.polytope import Polytope

import reference_linalg as ref
from conftest import (
    FOUR_POLYTOPE,
    SIXTEEN_VERTICES,
    ReferencePolytope,
    rational_polytopes,
    reeve_tetrahedron,
    reference_cone_rays,
    reference_from_inequalities,
)


def test_vertex_hull_drops_interior_points():
    P = Polytope(2, [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
    assert P.vertices == ((0, 0), (0, 2), (2, 0), (2, 2))


def test_not_full_dimensional():
    for points in ([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)]):
        with pytest.raises(ValueError, match="not full-dimensional"):
            Polytope(3, points)


def test_vertex_inequality_round_trip(delta, cube):
    # the cube's opposite facets give dependent normal pairs, which span no
    # recession ray; a zero normal with b >= 0 cuts nothing
    for P in (delta, cube):
        for extra in ([], [((0, 0, 0), 0)], [((0, 0, 0), Fraction(1, 2))]):
            Q = Polytope.from_inequalities(3, list(P.inequalities) + extra)
            assert Q.vertices == P.vertices
            assert Q.inequalities == P.inequalities


def test_from_inequalities_rejects_unbounded():
    """Each refusal with its message, as the reference refuses it."""
    for dim, rows, message in (
        (2, [((1, 0), Fraction(1)), ((0, 1), Fraction(1))], "recession ray"),
        (2, [((1, 0), 0), ((-1, 0), -1), ((0, 1), 1), ((0, -1), 0)], "empty polytope"),
        # a slab: every cross product of the rows is zero
        (3, [((1, 0, 0), 1), ((-1, 0, 0), 0)], "normals do not span"),
        # a strip: the cross products are orthogonal to every row
        (2, [((1, 0), 1), ((-1, 0), 0)], "normals do not span"),
        (1, [((1,), 1)], "recession ray"),
        (1, [((1,), 1), ((-1,), -2)], "empty polytope"),
        (2, [((0, 0), -1), ((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)], "empty polytope"),
    ):
        with pytest.raises(ValueError, match=message) as exc:
            Polytope.from_inequalities(dim, rows)
        assert str(exc.value) == construction(reference_from_inequalities, dim, rows)


@st.composite
def point_sets(draw) -> tuple[int, list]:
    """d = 1..4 and d + 1..d + 3 points with denominators <= 5, some
    midpoints among them, in general position, flattened into a hyperplane
    or onto a line."""
    d = draw(st.integers(1, 4))
    point = st.tuples(*[st.builds(Fraction, st.integers(-3, 3), st.integers(1, 5))] * d)
    pts = draw(st.lists(point, min_size=d + 1, max_size=d + 3))
    pairs = st.tuples(*[st.integers(0, len(pts) - 1)] * 2)
    pts += [ref.vec_scale(Fraction(1, 2), ref.vec_add(pts[i], pts[j]))
            for i, j in draw(st.lists(pairs, max_size=2))]
    flat = draw(st.sampled_from(["none", "none", "hyperplane", "line"]))
    if flat == "hyperplane":
        w = draw(point)  # the last coordinate becomes <w, x> + w_d over the others
        pts = [(*p[:-1], linalg.dot(w[:-1], p[:-1]) + w[-1]) for p in pts]
    elif flat == "line":
        u = draw(point)
        pts = [tuple(c + p[0] * x for c, x in zip(pts[0], u)) for p in pts]
    return d, pts


def construction(build, *args):
    """What build(*args) made of P, or its refusal."""
    try:
        P = build(*args)
    except ValueError as exc:
        return str(exc)
    return P.vertices, P.inequalities, P._facet_masks, P.volume()


@settings(max_examples=100, deadline=None)
@given(case=point_sets(), data=st.data())
@example(case=(2, [(0, 0), (2, 0), (0, 2), (2, 2), (1, 0), (1, 1)]), data=None)
@example(case=(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]), data=None)
@example(case=(4, SIXTEEN_VERTICES), data=None)
# the hexagonal prism and a point on a facet that is no vertex: many
# coplanar 3-subsets, each giving one plane
@example(case=(3, [(x, y, z) for x, y in ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
                   for z in (0, 1)] + [(0, 0, 0)]), data=None)
def test_construction_matches_fraction_reference(case, data):
    """The integer hull and incidence vertex test build the same P as the
    Fraction rank and nullspace reference, or refuse with the same message;
    so does from_inequalities on its shuffled rows with one row dropped,
    against Fraction solves of every d rows."""
    d, pts = case
    built = construction(Polytope, d, pts)
    assert built == construction(ReferencePolytope, d, pts)
    if isinstance(built, str) or data is None:
        return
    rows = data.draw(st.permutations(built[1]))
    drop = data.draw(st.integers(0, len(rows) - 1))
    rows = rows[:drop] + rows[drop + 1:]
    assert construction(Polytope.from_inequalities, d, rows) == construction(
        reference_from_inequalities, d, rows
    )


def kernel_rows(data, max_rows: int) -> tuple[int, list]:
    """n = 2..5 and up to max_rows integer rows in Z^n, with zero, repeated
    and dependent rows inserted among them."""
    n = data.draw(st.integers(2, 5))
    vector = st.tuples(*[st.integers(-3, 3)] * n)
    rows = data.draw(st.lists(vector, max_size=max_rows))
    for kind in data.draw(st.lists(st.sampled_from(["zero", "repeat", "dependent"]), max_size=3)):
        if kind == "zero":
            row = (0,) * n
        elif not rows:
            continue
        elif kind == "repeat":
            row = data.draw(st.sampled_from(rows))
        else:
            u, v = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
            row = tuple(2 * a - b for a, b in zip(u, v))
        rows.insert(data.draw(st.integers(0, len(rows))), row)
    return n, rows


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_double_description_matches_the_subset_walk(data):
    """The double description finds the rays, and the rows tight on each,
    that the subset walk finds, and refuses the rows it refuses, zero,
    repeated and dependent rows included."""
    n, rows = kernel_rows(data, 9)

    def rays(kernel):
        found = kernel(rows, n)
        return None if found is None else sorted(found)

    assert rays(polytope._cone_rays) == rays(reference_cone_rays)


def test_large_point_sets(monkeypatch):
    """The kernel's work follows the rays found, not the subsets of rows:
    the 512 points of the 8 x 8 x 8 grid build the cube on its 8 corners,
    and 150 random rational points a hull that every point satisfies, with
    the planes the subset walk finds on its vertices alone."""
    grid = [(x, y, z) for x in range(8) for y in range(8) for z in range(8)]
    P = Polytope(3, grid)
    corners = Polytope(3, [(x, y, z) for x in (0, 7) for y in (0, 7) for z in (0, 7)])
    assert (P.vertices, P.inequalities) == (corners.vertices, corners.inequalities)
    assert len(P.facets()) == 6 and P.volume() == 343
    rng = random.Random(150)
    points = [tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 7)) for _ in range(3))
              for _ in range(150)]
    P = Polytope(3, points)
    assert all(linalg.dot(a, p) <= b for a, b in P.inequalities for p in points)
    monkeypatch.setattr(polytope, "_cone_rays", reference_cone_rays)
    assert sorted((a, b) for a, b, _ in polytope.hull_facets(P.vertices, 3)) == list(P.inequalities)


def test_construction_takes_no_rank():
    """P is built from vertices or from inequalities, and an unbounded or
    empty system refused, with no rank, solve or nullspace; the package
    has no Fraction solve or elimination at all, only the tests'
    reference does."""
    assert not hasattr(linalg, "solve")
    for name in ref.FRACTION_ROUTINES:
        assert hasattr(ref, name) and not hasattr(linalg, name)
    simplex4 = [(0, 0, 0, 0), (2, 0, 0, 0), (0, 3, 0, 0), (1, 1, 5, 0), (0, 1, 1, 2)]
    for dim, points, vertices in (
        (1, [(0,), (Fraction(3, 2),), (1,)], 2),
        (3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 4),
        (4, simplex4, 5),
        (4, SIXTEEN_VERTICES, 16),
    ):
        assert len(Polytope(dim, points).vertices) == vertices
    rows = [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), 1)]
    assert len(Polytope.from_inequalities(3, rows).vertices) == 4
    P = Polytope(4, simplex4)
    assert Polytope.from_inequalities(4, list(P.inequalities)).vertices == P.vertices
    with pytest.raises(ValueError, match="recession ray"):
        Polytope.from_inequalities(2, [((1, 0), Fraction(1)), ((0, 1), Fraction(1))])
    with pytest.raises(ValueError, match="empty polytope"):
        Polytope.from_inequalities(2, [((1, 0), 0), ((-1, 0), -1), ((0, 1), 1), ((0, -1), 0)])


def test_construction_computes_no_fraction_incidence(monkeypatch):
    """The vertex test and the facet vertex sets come from the cone
    kernel's integer pairings: with no Fraction dot product at hand, P is
    built as the reference builds it."""
    cases = [
        (3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        (3, [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]),
        (4, [(0, 0, 0, 0), (2, 0, 0, 0), (0, 3, 0, 0), (1, 1, 5, 0), (0, 1, 1, 2)]),
        (4, SIXTEEN_VERTICES),
    ]
    expected = []
    for dim, points in cases:
        R = ReferencePolytope(dim, points)
        expected.append((R.vertices, R.inequalities, R._facet_masks))

    def refuse(*args):
        raise AssertionError("Fraction dot product taken")

    monkeypatch.setattr(linalg, "dot", refuse)
    for (dim, points), want in zip(cases, expected):
        P = Polytope(dim, points)
        assert (P.vertices, P.inequalities, P._facet_masks) == want


def test_json_round_trip(delta):
    Q = Polytope.from_json(delta.to_json())
    assert Q.vertices == delta.vertices
    R = Polytope.from_json(
        {
            "dim": "2",
            "inequalities": [
                {"a": ["-1", "0"], "b": "0"},
                {"a": [0, -1], "b": "0"},
                {"a": [1, 1], "b": "1/2"},
            ],
        }
    )
    assert R.volume() == Fraction(1, 8)
    with pytest.raises(ValueError):
        Polytope.from_json({"dim": 2})


def test_volume_and_denominator(delta, cube, half_order):
    assert delta.volume() == Fraction(1, 6)
    assert cube.volume() == 1
    assert half_order.volume() == Fraction(1, 48)
    assert delta.denominator() == 1
    assert half_order.denominator() == 2
    assert Polytope(2, [(0, 0), (1, 0), (0, 1)]).volume() == Fraction(1, 2)


def test_face_lattice_counts(delta, cube):
    assert len(delta.facets()) == 4
    assert len(delta.codim2_faces()) == 6
    assert len(cube.facets()) == 6
    assert len(cube.codim2_faces()) == 12
    for f in delta.codim2_faces():
        assert f.dim == 1 and len(f.vertex_ids) == 2
        assert f.tight.bit_count() == 2
    assert [len(cube.faces_of_codim(c)) for c in range(4)] == [1, 6, 12, 8]
    (whole,) = cube.faces_of_codim(0)
    assert whole.tight == 0 and len(whole.vertex_ids) == 8
    assert all(v.tight.bit_count() == 3 for v in cube.faces_of_codim(3))
    assert cube.faces_of_codim(4) == []
    with pytest.raises(ValueError):
        cube.faces_of_codim(-1)


def reference_faces(P):
    """Every face of P as (tight rows, vertex ids, dim, codim): the vertex
    sets cut out by the tight sets, found by closing the facets' vertex
    sets under intersection, with the codimension read off their affine
    rank, and bit i of the tight rows set iff facet i holds the face."""
    facet_sets = [
        frozenset(j for j, v in enumerate(P.vertices) if linalg.dot(a, v) == b)
        for a, b in P.inequalities
    ]
    cuts = frontier = {frozenset(range(len(P.vertices)))}
    while frontier:
        frontier = {s & f for s in frontier for f in facet_sets} - cuts - {frozenset()}
        cuts = cuts | frontier
    faces = set()
    for cut in cuts:
        pts = [P.vertices[j] for j in sorted(cut)]
        dim = ref.rank([ref.vec_sub(p, pts[0]) for p in pts[1:]]) if len(pts) > 1 else 0
        tight = sum(1 << i for i, f in enumerate(facet_sets) if cut <= f)
        faces.add((tight, tuple(sorted(cut)), dim, P.dim - dim))
    return faces


@settings(max_examples=40, deadline=None)
@given(P=rational_polytopes(dims=(2, 4), extra=3))
def test_faces_match_brute_force_reference(P):
    found = set()
    for c in range(P.dim + 1):
        faces = P.faces_of_codim(c)
        assert all(f.codim == c for f in faces)
        assert len({f.vertex_ids for f in faces}) == len(faces)
        if c == 1:
            assert [f.tight for f in faces] == [1 << i for i in range(len(P.inequalities))]
        else:
            assert [f.vertex_ids for f in faces] == sorted(f.vertex_ids for f in faces)
        found |= {(f.tight, f.vertex_ids, f.dim, f.codim) for f in faces}
    reference = reference_faces(P)
    assert found == reference
    # each face keeps as its facets the faces one dimension lower inside it
    for level in P._lattice:
        for F, kept in level.items():
            below = {r for r in reference if r[2] == F.dim - 1 and set(r[1]) <= set(F.vertex_ids)}
            assert len(kept) == len(below)
            assert {(G.tight, G.vertex_ids, G.dim, G.codim) for G in kept} == below


def test_lattice_builds_each_face_once(hex_prism, monkeypatch):
    """A face is built the first time its cut appears: a ridge, cut from
    each facet through it, is constructed once."""
    built = []
    Face = polytope.Face

    def counted(*args):
        built.append(args[1])
        return Face(*args)

    for P in (hex_prism, Polytope(4, SIXTEEN_VERTICES)):
        built.clear()
        monkeypatch.setattr(polytope, "Face", counted)
        P._lattice
        monkeypatch.undo()
        faces = [F.vertex_ids for c in range(P.dim + 1) for F in P.faces_of_codim(c)]
        assert sorted(built) == sorted(faces)


def test_relative_volume(delta, cube):
    # every facet of the standard simplex has normalized volume 1/2
    assert [delta.relative_volume(f) for f in delta.facets()] == [Fraction(1, 2)] * 4
    assert all(cube.relative_volume(f) == 1 for f in cube.facets())
    assert all(delta.relative_volume(e) == 1 for e in delta.codim2_faces())


def fraction_pyramid_volume(P, face, kept: dict) -> Fraction:
    """vol*(F) by the pyramid sum in Fractions over P itself, as the
    package took it before it summed in integers over L P: the lattice
    length of an edge from its primitive direction, and for dim F >= 2
    (1/dim) sum_G vol*(G) (b_v - <v, p>) g(R) / g(R + v).  kept holds the
    volumes summed so far, by vertex ids."""
    if face.vertex_ids in kept:
        return kept[face.vertex_ids]
    verts = [P.vertices[i] for i in face.vertex_ids]
    if face.dim == 0:
        vol = Fraction(1)
    elif face.dim == 1:
        diff = ref.vec_sub(verts[1], verts[0])
        j = next(j for j, c in enumerate(diff) if c)
        vol = diff[j] / ref.primitive_integer_vector(diff)[j]
    else:
        normals = [a for i, (a, _) in enumerate(P.inequalities) if face.tight >> i & 1]
        g = math.gcd(*linalg.maximal_minors(normals).values())
        total = Fraction(0)
        for G in P._lattice[face.codim][face]:
            new = G.tight & ~face.tight
            a, b = P.inequalities[min(i for i in range(new.bit_length()) if new >> i & 1)]
            m = math.gcd(*linalg.maximal_minors(normals + [a]).values())
            total += fraction_pyramid_volume(P, G, kept) * (b - linalg.dot(a, verts[0])) * g / m
        vol = total / face.dim
    kept[face.vertex_ids] = vol
    return vol


@settings(max_examples=60, deadline=None)
@given(P=st.one_of(rational_polytopes(dims=(1, 4), extra=2),
                   st.integers(1, 1021).map(reeve_tetrahedron)))
@example(P=Polytope(4, SIXTEEN_VERTICES))
@example(P=Polytope(4, FOUR_POLYTOPE))
@example(P=reeve_tetrahedron(1021))
def test_integer_volumes_match_the_fraction_recursion(P):
    """Every face's volume over L P is an integer N, and N / (dim! L^dim)
    is the Fraction pyramid sum's relative volume."""
    kept: dict = {}
    L = P.denominator()
    assert all(c.denominator == 1 for v in P.vertices for c in (x * L for x in v))
    for c in range(P.dim + 1):
        for face in P.faces_of_codim(c):
            N = P.lattice_volume(face)
            assert type(N) is int and N > 0
            expected = fraction_pyramid_volume(P, face, kept)
            assert P.relative_volume(face) == expected
            assert N == expected * math.factorial(face.dim) * L**face.dim
    assert P.volume() == fraction_pyramid_volume(P, P.faces_of_codim(0)[0], kept)


def test_each_ridge_takes_one_minor_gcd(monkeypatch):
    """The volumes and the codim-2 data share one minor gcd per set of
    normals: every set's maximal minors are taken once."""
    calls = []
    maximal_minors = linalg.maximal_minors

    def counted(rows):
        calls.append(tuple(map(tuple, rows)))
        return maximal_minors(rows)

    P = Polytope(4, SIXTEEN_VERTICES)
    monkeypatch.setattr(linalg, "maximal_minors", counted)
    P.volume()
    all_codim2_data(P)
    assert len(calls) == len(set(calls))
    ridges = {frozenset(map(tuple, rows)) for rows in calls if len(rows) == 2}
    assert len(ridges) == len(P.codim2_faces())


def test_contains_and_dilation(delta):
    # membership in t*P: the solid angle there, which is 0 outside
    assert oracle.solid_angle_at(delta, (0, 0, 0)) == ExactValue.of(Fraction(1, 8))
    assert oracle.solid_angle_at(delta, (Fraction(1, 3),) * 3) == ExactValue.of(Fraction(1, 2))
    assert oracle.solid_angle_at(delta, (1, 1, 0)) == ExactValue.of(0)
    edge = ExactValue.angle_turn(AngleValue(1, Fraction(1, 3)))
    assert oracle.solid_angle_at(delta, (1, 1, 0), t=2) == edge
    assert oracle.solid_angle_at(delta, (-1, 0, 0), t=5) == ExactValue.of(0)

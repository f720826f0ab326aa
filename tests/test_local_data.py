import importlib.util
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings

from eak import linalg, polytope
from eak.exactval import AngleValue
from eak.local_data import all_codim2_data
from eak.polytope import Polytope

import reference_linalg as ref
from reference_coefficients import membership_scale
from reference_lattice import intersection_with_integer_lattice
from conftest import (
    SIXTEEN_VERTICES,
    random_rational_polytope,
    rational_polytopes,
    reference_hull_facets,
    transverse_lattice,
)


def test_facet_data_delta(delta):
    facets = delta.facets()
    assert len(facets) == 4
    for i, F in enumerate(facets):
        assert F.tight_set == {i}
        assert delta.relative_volume(F) == Fraction(1, 2)
    # coordinate facets pass through the origin, the diagonal one does not
    offsets = sorted(b for _, b in delta.inequalities)
    assert offsets == [0, 0, 0, 1]
    diag = next(a for a, b in delta.inequalities if b == 1)
    assert diag == (1, 1, 1) and linalg.norm_sq(diag) == 3


def test_codim2_data_delta(delta):
    data = all_codim2_data(delta)
    assert len(data) == 6
    coordinate = [g for g in data if g.f2 != 3]
    diagonal = [g for g in data if g.f2 == 3]
    assert len(coordinate) == 3 and len(diagonal) == 3
    for g in coordinate:
        # right dihedral angle, unimodular transverse cone at the origin
        assert g.c_G == AngleValue(0, Fraction(0))
        assert (g.h, g.k, g.x1, g.x2) == (0, 1, 0, 0)
        assert transverse_lattice(delta, g).lam.gram_det == 1
        assert g.vol_star == 1
    for g in diagonal:
        assert g.c_G == AngleValue(1, Fraction(1, 3))
        assert (g.h, g.k, g.x1, g.x2) == (0, 1, 1, 0)
        assert transverse_lattice(delta, g).lam.gram_det == 2
        assert g.dot12 == -1


def test_f1_is_lex_smaller_normal(delta):
    for g in all_codim2_data(delta):
        v1, v2 = delta.inequalities[g.f1][0], delta.inequalities[g.f2][0]
        assert v1 < v2
        assert (g.norm1_sq, g.norm2_sq) == (linalg.norm_sq(v1), linalg.norm_sq(v2))


def test_membership_scale(delta):
    for g in all_codim2_data(delta):
        # integer polytope: every codim-2 lattice membership holds at integer t
        assert membership_scale(g, 1)
        if g.x1 == 1:  # diagonal edge: fails at t = 1/2
            assert not membership_scale(g, Fraction(1, 2))


def test_transverse_cone_invariants_random():
    rng = random.Random(7)
    for _ in range(3):
        P = random_rational_polytope(rng)
        for g in all_codim2_data(P):
            r = transverse_lattice(P, g)
            (v1, b1), (v2, b2) = P.inequalities[g.f1], P.inequalities[g.f2]
            # pairings of the cone generators with the facet normals
            assert linalg.dot(r.v_F1_G, v1) == 0
            assert linalg.dot(r.v_F2_G, v2) == 0
            assert linalg.dot(r.v_F1_G, v2) == g.k
            assert linalg.dot(r.v_F2_G, v1) == g.k
            # k^2 equals the normal Gram determinant over det(Lambda_G)^2
            gram2 = ref.det(ref.gram([linalg.vec(v1), linalg.vec(v2)]))
            assert Fraction(g.k) ** 2 == abs(gram2) / r.lam.gram_det
            assert b1 == g.k * g.x2 and b2 == g.k * g.x1
            assert g.norm2_sq == r.lam.gram_det * linalg.norm_sq(r.v_F2_G)
            # second generator in the unimodular cone basis
            assert tuple(r.v_F2_G) == tuple(
                g.h * a + g.k * b for a, b in zip(r.basis_v1, r.basis_v2)
            )
            assert 0 <= g.h < max(g.k, 1) or (g.k == 1 and g.h == 0)
            assert (g.h * g.h_inv - 1) % g.k == 0 if g.k > 1 else g.h_inv == 1


# ---------------------------------------------------------------------------
# references: relative volumes in a basis of the face's integer lattice, and
# the triangulation recursing in Gram coordinates of each facet


def reference_triangulation(points, dim):
    points = [linalg.vec(p) for p in points]
    if dim == 1:
        lo = min(range(len(points)), key=lambda i: points[i])
        hi = max(range(len(points)), key=lambda i: points[i])
        return [(lo, hi)]
    apex = min(range(len(points)), key=lambda i: points[i])
    simplices = []
    for a, b in reference_hull_facets(points, dim):
        if linalg.dot(a, points[apex]) == b:
            continue
        face_ids = [i for i, p in enumerate(points) if linalg.dot(a, p) == b]
        base = points[face_ids[0]]
        basis = []
        for i in face_ids[1:]:
            v = ref.vec_sub(points[i], base)
            if ref.rank(basis + [v]) > len(basis):
                basis.append(v)
        g_inv = ref.inverse(ref.gram(basis))
        local = [
            ref.mat_vec(g_inv, [linalg.dot(c, ref.vec_sub(points[i], base)) for c in basis])
            for i in face_ids
        ]
        for sub in reference_triangulation(local, dim - 1):
            simplices.append(tuple(sorted((apex, *(face_ids[i] for i in sub)))))
    return simplices


def simplex_volume(points, simplex):
    base = linalg.vec(points[simplex[0]])
    edges = [ref.vec_sub(points[i], base) for i in simplex[1:]]
    return abs(ref.det(edges)) / math.factorial(len(edges))


def reference_relative_volume(P, face):
    if face.dim == 0:
        return Fraction(1)
    pts = [P.vertices[i] for i in face.vertex_ids]
    dirs = [ref.vec_sub(p, pts[0]) for p in pts[1:]]
    lat = intersection_with_integer_lattice(dirs)
    coords = [(Fraction(0),) * lat.rank] + [lat.coordinates(d) for d in dirs]
    return sum(simplex_volume(coords, s) for s in reference_triangulation(coords, face.dim))


@settings(max_examples=40, deadline=None)
@given(P=rational_polytopes(dims=(2, 4), extra=3))
@example(P=Polytope(3, list(itertools.product((0, 1), repeat=3))))
@example(P=Polytope(4, [(0, 0, 0, 0), (2, 0, 0, 0), (0, 3, 0, 0), (1, 1, 5, 0), (0, 1, 1, 2)]))
@example(P=Polytope(4, SIXTEEN_VERTICES))
def test_local_data_matches_lattice_reference(P):
    for g in all_codim2_data(P):
        r = transverse_lattice(P, g)
        assert (g.k, g.h, g.x1, g.x2) == (r.k, r.h, r.x1, r.x2)
        # G projects to xbar_G on both facets' hyperplanes
        for f in (g.f1, g.f2):
            a, b = P.inequalities[f]
            assert linalg.dot(a, r.xbar) == b
    for c in range(1, P.dim + 1):
        for face in P.faces_of_codim(c):
            assert P.relative_volume(face) == reference_relative_volume(P, face)
    volume = sum(
        simplex_volume(P.vertices, s) for s in reference_triangulation(P.vertices, P.dim)
    )
    assert P.volume() == volume


def test_local_data_builds_no_lattice():
    """The facet volumes and codim-2 data come from the normals alone: the
    package has no lattice module and no Fraction elimination to call, so
    no matrix is inverted."""
    assert importlib.util.find_spec("eak.lattice") is None
    for name in ref.FRACTION_ROUTINES:
        assert hasattr(ref, name) and not hasattr(linalg, name)
    for P in (
        Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        Polytope(4, [(0, 0, 0, 0), (2, 0, 0, 0), (0, 3, 0, 0), (1, 1, 5, 0), (0, 1, 1, 2)]),
    ):
        assert all(P.relative_volume(F) > 0 for F in P.facets())
        assert len(all_codim2_data(P)) == len(P.codim2_faces())


def test_volumes_take_no_hull_below_p(monkeypatch):
    """Once P is built, its volume and every facet volume and codim-2 datum
    come from its face lattice: no hull is taken and no rank is computed."""
    polytopes = [
        Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        Polytope(4, [(0, 0, 0, 0), (2, 0, 0, 0), (0, 3, 0, 0), (1, 1, 5, 0), (0, 1, 1, 2)]),
        Polytope(4, SIXTEEN_VERTICES),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("hull or rank taken below P")

    monkeypatch.setattr(polytope, "hull_facets", refuse)
    assert not hasattr(linalg, "rank")
    for P, volume in zip(polytopes, (Fraction(1, 6), Fraction(5, 2), Fraction(5))):
        assert P.volume() == volume
        assert all(P.relative_volume(F) > 0 for F in P.facets())
        assert len(all_codim2_data(P)) == len(P.codim2_faces())


def test_each_face_volume_is_summed_once(monkeypatch):
    """volume(), the facet volumes and the codim-2 data share one relative
    volume per face: its pyramid sum runs once."""
    sums: Counter = Counter()
    pyramid_volume = Polytope._pyramid_volume

    def counted(P, face):
        sums[face.vertex_ids] += 1
        return pyramid_volume(P, face)

    monkeypatch.setattr(Polytope, "_pyramid_volume", counted)
    P = Polytope(4, SIXTEEN_VERTICES)
    assert P.volume() == 5
    assert all(P.relative_volume(F) > 0 for F in P.facets())
    assert len(all_codim2_data(P)) == len(P.codim2_faces())
    assert set(sums.values()) == {1}
    assert {F.vertex_ids for c in range(4) for F in P.faces_of_codim(c)} <= set(sums)

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eak import linalg, oracle, polytope
from eak.concrete import TilingReport, _group_arrays, is_concrete, symmetrized_multitiling_level
from eak.exactval import AngleValue, ExactValue
from eak.polytope import Polytope

from conftest import (
    FOUR_POLYTOPE,
    SignedPermutation,
    centrally_symmetric_facets,
    hyperoctahedral_elements,
    rational_polytopes,
    rhombic_dodecahedron,
)


def test_hyperoctahedral_group():
    assert len(hyperoctahedral_elements(2)) == 8
    elems = hyperoctahedral_elements(3)
    assert len(elems) == 48
    assert len({tuple(g.apply((1, 2, 3))) for g in elems}) == 48
    g = SignedPermutation((1, 0, 2), (1, -1, 1))
    assert g.apply((1, 2, 3)) == (2, -1, 3)
    with pytest.raises(ValueError):
        hyperoctahedral_elements(5)


def test_group_arrays_are_the_signed_permutations():
    """The sampler's perm and sign rows are the group elements, in order,
    and act on a point as SignedPermutation.apply does."""
    for d in (1, 2, 3):
        perms, signs = _group_arrays(d)
        group = hyperoctahedral_elements(d)
        assert perms.tolist() == [list(g.perm) for g in group]
        assert signs.tolist() == [list(g.signs) for g in group]
        x = (1, 2, 3)[:d]
        assert (signs * np.array(x)[perms]).tolist() == [list(g.apply(x)) for g in group]
        assert not perms.flags.writeable and not signs.flags.writeable


def test_multitiling_refuses_a_four_polytope():
    with pytest.raises(ValueError, match="dimension above three"):
        symmetrized_multitiling_level(Polytope(4, FOUR_POLYTOPE), 1)


def test_centrally_symmetric_facets(cube, hex_prism, delta):
    assert centrally_symmetric_facets(cube)
    assert centrally_symmetric_facets(hex_prism)
    assert not centrally_symmetric_facets(delta)


def test_is_concrete(cube, order, delta):
    assert is_concrete(cube, 3).concrete
    report = is_concrete(order, 3)
    assert report.concrete and report.failed_t is None and report.defect is None
    bad = is_concrete(delta, 2)
    assert not bad.concrete
    assert bad.failed_t == 1
    assert bad.defect == ExactValue(
        Fraction(-5, 12), ((Fraction(3), AngleValue(1, Fraction(1, 3))),)
    )


def test_sheared_rhombic_dodecahedron_is_concrete():
    # it tiles R^3 by a sublattice of Z^3; its defect 1/2 - 2w(1/3) - 2w(2/3),
    # with w(c) = arccos(sqrt(c))/(2pi), is 0 by the complement relation
    P = rhombic_dodecahedron(lambda x, y, z: (x + y, y, z))
    assert is_concrete(P, 2).concrete


def test_is_concrete_refuses_a_numerically_zero_defect():
    # under this map the defect is a sum of eight arccos terms that the
    # canonical form does not relate, yet it vanishes
    P = rhombic_dodecahedron(lambda x, y, z: (x + y + z, y + 2 * z, z))
    with pytest.raises(ValueError, match="cannot decide"):
        is_concrete(P, 1)


def test_multitiling_level(order, delta):
    report = symmetrized_multitiling_level(order, samples=24, seed=1)
    # 48 signed permutations collapse onto images of total volume 48/6
    assert report.level == 8
    assert report.witness is None

    bad = symmetrized_multitiling_level(delta, samples=24, seed=1)
    assert bad.level is None
    assert bad.witness is not None and len(bad.witness) == 3


def test_tiling_builds_no_local_data(cube, local_data_builds, monkeypatch):
    # the sample point is mapped, not P: no image is hulled, nothing derived
    calls = []
    for owner, name in ((polytope, "hull_facets"), (polytope.Polytope, "relative_volume")):
        original = getattr(owner, name)

        def counted(*args, original=original):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    assert symmetrized_multitiling_level(cube, samples=4).level == 48
    assert not local_data_builds and not calls


# -- the image-hull reference ---------------------------------------------

def _reference_multiplicity(Q: Polytope, x) -> tuple[int, bool]:
    """(covering translate count, whether x hits a translate boundary)."""
    ranges = []
    for j in range(Q.dim):
        lo_v = min(v[j] for v in Q.vertices)
        hi_v = max(v[j] for v in Q.vertices)
        ranges.append(range(math.floor(-hi_v), math.ceil(1 - lo_v) + 1))
    count = 0
    for lam in itertools.product(*ranges):
        shifted = tuple(x[i] - lam[i] for i in range(Q.dim))
        tight = False
        inside = True
        for a, b in Q.inequalities:
            s = linalg.dot(a, shifted)
            if s > b:
                inside = False
                break
            if s == b:
                tight = True
        if inside:
            if tight:
                return count, True
            count += 1
    return count, False


def reference_multitiling_level(P: Polytope, samples: int, seed: int) -> TilingReport:
    """The slow path: hull every distinct image g(P), weight it by its
    orbit multiplicity and test x against its translates in Fractions."""
    d = P.dim
    weighted: dict[tuple, int] = {}
    for g in hyperoctahedral_elements(d):
        verts = tuple(sorted(g.apply(v) for v in P.vertices))
        weighted[verts] = weighted.get(verts, 0) + 1
    polys = [(Polytope(d, list(v)), w) for v, w in weighted.items()]
    rng = random.Random(seed)
    level = None
    for _ in range(samples):
        for _retry in range(64):
            x = tuple(Fraction(rng.randrange(10**6), 10**6) for _ in range(d))
            mult = 0
            boundary = False
            for Q, w in polys:
                m, hit = _reference_multiplicity(Q, x)
                if hit:
                    boundary = True
                    break
                mult += w * m
            if not boundary:
                break
        else:
            raise RuntimeError("could not sample a point off all boundaries")
        if level is None:
            level = mult
        elif mult != level:
            return TilingReport(None, x)
    return TilingReport(level, None)


HALF = Fraction(1, 2)
HEX_PRISM = Polytope(
    3, [(x, y, z) for x, y in ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)) for z in (0, 1)]
)


@settings(max_examples=30, deadline=None)
@given(
    P=rational_polytopes(dims=(1, 3), extra=1),
    samples=st.integers(1, 16),
    seed=st.integers(0, 10**6),
)
@example(P=Polytope(2, [(0, 0), (1, 0), (1, 1)]), samples=16, seed=0)  # level 4
@example(P=Polytope(3, [(0, 0, 0), (HALF, 0, 0), (HALF, HALF, 0), (HALF, HALF, HALF)]),
         samples=16, seed=1)  # level 1
@example(P=HEX_PRISM, samples=4, seed=0)  # 8 facets, 48 translates, level 144
def test_multitiling_level_matches_image_hulls(P, samples, seed):
    assert symmetrized_multitiling_level(P, samples, seed) == reference_multitiling_level(
        P, samples, seed
    )


def test_multitiling_redraws_a_boundary_sample():
    # the first draw of this seed is k = 0, on the boundary of P and of -P;
    # the next two give levels 1 and 0
    P = Polytope(1, [(0,), (Fraction(1, 4),)])
    report = symmetrized_multitiling_level(P, 2, 581867)
    assert report == TilingReport(None, (Fraction(678537, 10**6),))
    assert report == reference_multitiling_level(P, 2, 581867)


def test_multitiling_on_python_ints_past_int64():
    # SAMPLE_DEN times the normal (1, 1, 2^61 + 1) does not fit int64, so
    # the orbit test runs on Python ints
    P = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2**61 + 1))])
    assert symmetrized_multitiling_level(P, 8, 3) == reference_multitiling_level(P, 8, 3)


def test_multitiling_refuses_an_oversized_translate_box():
    P = Polytope(3, [(0, 0, 0), (Fraction(2**40, 3), 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(oracle.BudgetExceeded, match="translate box"):
        symmetrized_multitiling_level(P, 1)

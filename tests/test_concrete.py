from fractions import Fraction

import pytest

from eak import polytope
from eak.concrete import (
    SignedPermutation,
    centrally_symmetric_facets,
    hyperoctahedral_elements,
    is_concrete,
    symmetrized_multitiling_level,
)
from eak.exactval import AngleValue, ExactValue

from conftest import rhombic_dodecahedron


def test_hyperoctahedral_group():
    assert len(hyperoctahedral_elements(2)) == 8
    elems = hyperoctahedral_elements(3)
    assert len(elems) == 48
    assert len({tuple(g.apply((1, 2, 3))) for g in elems}) == 48
    g = SignedPermutation((1, 0, 2), (1, -1, 1))
    assert g.apply((1, 2, 3)) == (2, -1, 3)
    with pytest.raises(ValueError):
        hyperoctahedral_elements(5)


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
    assert report.is_multitiling
    # 48 signed permutations collapse onto images of total volume 48/6
    assert report.level == 8
    assert report.witness is None

    bad = symmetrized_multitiling_level(delta, samples=24, seed=1)
    assert not bad.is_multitiling
    assert bad.level is None
    assert bad.witness is not None and len(bad.witness) == 3


def test_tiling_builds_no_local_data(cube, local_data_builds, monkeypatch):
    # the hull images only need their inequalities: nothing else is derived
    volumes = []
    convex_volume = polytope.convex_volume

    def counted(*args):
        volumes.append(args)
        return convex_volume(*args)

    monkeypatch.setattr(polytope, "convex_volume", counted)
    assert symmetrized_multitiling_level(cube, samples=4).level == 48
    assert not local_data_builds and not volumes

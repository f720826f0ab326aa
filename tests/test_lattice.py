from fractions import Fraction

import pytest

from reference_lattice import (
    EmbeddedLattice,
    basis_from_generators,
    intersection_with_integer_lattice,
    lattice_primitive,
)


def test_coordinates_round_trip():
    L = EmbeddedLattice(3, ((1, 1, 0), (0, 1, 1)))
    c = L.coordinates((2, 5, 3))
    assert c == (Fraction(2), Fraction(3))
    assert L.from_coordinates(c) == (2, 5, 3)
    with pytest.raises(ValueError):
        L.coordinates((1, 0, 0))  # off the span


def test_contains():
    L = EmbeddedLattice(2, ((2, 0), (0, 3)))
    assert L.contains((4, -3))
    assert not L.contains((1, 0))
    assert not L.contains((Fraction(1, 2), 0))


def test_gram_det_and_rank():
    L = EmbeddedLattice(3, ((1, 1, 0), (0, 1, 1)))
    assert L.rank == 2
    assert L.gram_det == 3
    with pytest.raises(ValueError):
        EmbeddedLattice(2, ((1, 2), (2, 4)))


def test_dual_pairing_and_involution():
    L = EmbeddedLattice(3, ((1, 1, 0), (0, 1, 1)))
    D = L.dual()
    from eak import linalg

    for i, d in enumerate(D.basis):
        for j, b in enumerate(L.basis):
            assert linalg.dot(d, b) == (1 if i == j else 0)
    assert D.dual().same_lattice(L)
    assert L.gram_det * D.gram_det == 1


def test_basis_from_generators():
    L = basis_from_generators([(2, 0), (0, 2), (1, 1)])
    # index-2 sublattice of Z^2 containing (1,1)
    assert L.rank == 2 and L.gram_det == 4
    assert L.contains((1, 1)) and not L.contains((1, 0))
    M = basis_from_generators([(Fraction(1, 2), 0), (0, 1)], rank=2)
    assert M.contains((Fraction(1, 2), 0))
    with pytest.raises(ValueError):
        basis_from_generators([(1, 1), (2, 2)], rank=2)


def test_lattice_primitive():
    L = EmbeddedLattice(2, ((2, 0), (0, 2)))
    assert lattice_primitive(L, (3, 0)) == (2, 0)
    assert lattice_primitive(L, (Fraction(1, 5), Fraction(1, 5))) == (2, 2)


def test_intersection_with_integer_lattice():
    L = intersection_with_integer_lattice([(1, 1, 0), (0, 0, 1)])
    assert L.rank == 2
    assert L.contains((1, 1, 0)) and L.contains((0, 0, 1))
    assert not L.contains((1, 0, 0))
    # diagonal plane x + y + z = 0 ... here span of two diagonal directions
    M = intersection_with_integer_lattice([(1, -1, 0), (0, 1, -1)])
    assert M.gram_det == 3  # hexagonal sublattice
    # the whole space comes back as Z^d
    W = intersection_with_integer_lattice([(1, 0), (Fraction(1, 3), 1)])
    assert W.same_lattice(EmbeddedLattice(2, ((1, 0), (0, 1))))

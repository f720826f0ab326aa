"""Lattices of arbitrary rank embedded in Q^d.

An :class:`EmbeddedLattice` is the integer span of independent rational
basis columns.  Determinants are carried only through the rational Gram
determinant det(B^T B), never as floating square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from eak import linalg
from eak.exactval import primitive_integer_vector
from eak.linalg import Vec


@dataclass(frozen=True)
class EmbeddedLattice:
    """Integer span of independent basis columns in Q^d."""

    ambient_dim: int
    basis: tuple[Vec, ...]  # columns
    gram_det: Fraction = field(init=False)

    def __post_init__(self):
        basis = tuple(linalg.vec(c) for c in self.basis)
        if not basis:
            raise ValueError("empty basis")
        if any(len(c) != self.ambient_dim for c in basis):
            raise ValueError("basis column dimension mismatch")
        gd = linalg.det(linalg.gram(basis))
        if gd == 0:
            raise ValueError("dependent basis columns")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "gram_det", gd)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def coordinates(self, v: Sequence) -> Vec:
        """Coordinates of v in the basis; error when v is off the span."""
        v = linalg.vec(v)
        b = linalg.from_columns(self.basis)
        g = linalg.gram(self.basis)
        coords = linalg.mat_vec(linalg.inverse(g), linalg.mat_vec(linalg.transpose(b), v))
        if linalg.mat_vec(b, coords) != v:
            raise ValueError("vector not in the lattice span")
        return coords

    def from_coordinates(self, coords: Sequence) -> Vec:
        b = linalg.from_columns(self.basis)
        return linalg.mat_vec(b, linalg.vec(coords))

    def contains(self, v: Sequence) -> bool:
        try:
            coords = self.coordinates(v)
        except ValueError:
            return False
        return all(c.denominator == 1 for c in coords)

    def dual(self) -> "EmbeddedLattice":
        """Dual lattice inside span(self): basis B (B^T B)^(-1)."""
        return EmbeddedLattice(self.ambient_dim, tuple(linalg.dual_basis(self.basis)))

    def same_lattice(self, other: "EmbeddedLattice") -> bool:
        """True when each basis is integrally expressible in the other."""
        if self.ambient_dim != other.ambient_dim or self.rank != other.rank:
            return False
        return all(other.contains(c) for c in self.basis) and all(
            self.contains(c) for c in other.basis
        )


def basis_from_generators(gens: Sequence[Sequence], rank: int | None = None) -> EmbeddedLattice:
    """Basis of the lattice generated by rational vectors, via integer
    Hermite reduction over a cleared common denominator."""
    gens = [linalg.vec(g) for g in gens]
    gens = [g for g in gens if any(c != 0 for c in g)]
    if not gens:
        raise ValueError("no nonzero generators")
    d = len(gens[0])
    den = math.lcm(*(c.denominator for g in gens for c in g))
    int_cols = [tuple(int(c * den) for c in g) for g in gens]
    basis_int = linalg.hnf_column_basis(int_cols)
    basis = tuple(tuple(Fraction(c, den) for c in col) for col in basis_int)
    lat = EmbeddedLattice(d, basis)
    if rank is not None and lat.rank != rank:
        raise ValueError(f"generators have rank {lat.rank}, expected {rank}")
    return lat


def lattice_primitive(L: EmbeddedLattice, direction: Sequence) -> Vec:
    """Shortest vector of L on the positive ray of `direction`."""
    coords = L.coordinates(direction)  # raises off-span
    prim = primitive_integer_vector(coords)
    return L.from_coordinates(prim)


def intersection_with_integer_lattice(span_vectors: Sequence[Sequence]) -> EmbeddedLattice:
    """Basis of S intersect Z^d for the rational subspace S = span(vectors)."""
    vecs = [linalg.vec(v) for v in span_vectors]
    vecs = [v for v in vecs if any(c != 0 for c in v)]
    if not vecs:
        raise ValueError("zero subspace")
    d = len(vecs[0])
    # S = kernel of the matrix whose rows span the orthogonal complement.
    complement = linalg.nullspace(vecs)
    if not complement:
        # S is the whole space.
        kernel = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    else:
        kernel = linalg.integer_kernel(complement)
    return EmbeddedLattice(d, tuple(tuple(Fraction(c) for c in col) for col in kernel))

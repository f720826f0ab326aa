"""Shared fixtures: reference polytopes and random generators."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from eak import local_data
from eak.polytope import Polytope


@pytest.fixture
def delta() -> Polytope:
    """Standard simplex conv(0, e1, e2, e3)."""
    return Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture
def order() -> Polytope:
    """Order simplex 0 <= z <= y <= x <= 1 (a unimodular image of delta)."""
    return Polytope(3, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)])


@pytest.fixture
def half_order() -> Polytope:
    return Polytope(
        3,
        [
            (0, 0, 0),
            (Fraction(1, 2), 0, 0),
            (Fraction(1, 2), Fraction(1, 2), 0),
            (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        ],
    )


@pytest.fixture
def cube() -> Polytope:
    return Polytope(3, [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])


@pytest.fixture
def hex_prism() -> Polytope:
    """Prism over the centrally symmetric lattice hexagon."""
    hexagon = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    return Polytope(3, [(x, y, z) for x, y in hexagon for z in (0, 1)])


@pytest.fixture
def square() -> Polytope:
    return Polytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.fixture
def local_data_builds(monkeypatch) -> Counter:
    """Counts of (builder name, face vertex ids) over the per-face local
    data builds made while the test runs."""
    builds: Counter = Counter()
    for name in ("facet_data", "codim2_data"):
        build = getattr(local_data, name)

        def counted(P, face, build=build, name=name):
            builds[name, face.vertex_ids] += 1
            return build(P, face)

        monkeypatch.setattr(local_data, name, counted)
    return builds


def random_integer_polytope(rng: random.Random, npts=(6, 10), rad=3) -> Polytope:
    """Full-dimensional hull of random integer points in [-rad, rad]^3."""
    while True:
        n = rng.randint(*npts)
        pts = [tuple(rng.randint(-rad, rad) for _ in range(3)) for _ in range(n)]
        try:
            return Polytope(3, pts)
        except ValueError:
            continue


def random_rational_polytope(rng: random.Random, npts=(6, 10)) -> Polytope:
    """Full-dimensional hull of random rational points, |num| <= 4, den <= 3."""
    while True:
        n = rng.randint(*npts)
        pts = [
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            for _ in range(n)
        ]
        try:
            return Polytope(3, pts)
        except ValueError:
            continue


def random_tetrahedron(rng: random.Random, rad=3) -> Polytope:
    """Non-degenerate integer tetrahedron with coordinates in [-rad, rad]."""
    while True:
        pts = [tuple(rng.randint(-rad, rad) for _ in range(3)) for _ in range(4)]
        try:
            P = Polytope(3, pts)
        except ValueError:
            continue
        if len(P.vertices) == 4:
            return P


def rhombic_dodecahedron(image) -> Polytope:
    """The rhombic dodecahedron conv((+-1, +-1, +-1), +-2 e_i), which tiles
    R^3 by the lattice of even coordinate sum, mapped by the linear
    integer map image(x, y, z)."""
    cube = itertools.product((-1, 1), repeat=3)
    axes = [tuple(2 * s * (i == j) for j in range(3)) for i in range(3) for s in (1, -1)]
    return Polytope(3, [image(*v) for v in (*cube, *axes)])

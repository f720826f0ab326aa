"""Reference lattices and lattice sums, by Fraction elimination, and the
damped-series convergence oracle in floats.

An :class:`EmbeddedLattice` is the integer span of independent rational
basis columns.  Determinants are carried only through the rational Gram
determinant det(B^T B), never as floating square roots.  The lattice-sum
references enumerate the dual lattice in its own coordinates and project
x onto the span of the lattice, as eak.lattice_sum did before it named
dual-lattice points by their integer pairings.  The residue form
``gunnels_sczech`` (every exponent at least two) runs in integers over
the group the columns of adj(W) generate, and ``reference_gunnels_sczech``
checks it by elimination; no command reaches either, and both keep all
|det W| residues in memory.  The damped series approaches the same sums
numerically, with no exact arithmetic at all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from eak import linalg
from eak.bernoulli import bernoulli_poly, periodized
from eak.exactval import ExactValue, angle_of_cos_ratio
from eak.lattice_sum import LatticeSumProblem
from eak.linalg import Vec, dot, norm_sq, vec
from eak.oracle import ENUMERATION_BUDGET, BudgetExceeded
from reference_linalg import (
    columns,
    det,
    from_columns,
    gram,
    hnf_column_basis,
    integer_kernel,
    inverse,
    mat_mul,
    mat_vec,
    nullspace,
    orthogonal_projection,
    primitive_integer_vector,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
)


def frac_part(x) -> Fraction:
    """x - floor(x), exact on rationals."""
    x = Fraction(x)
    return x - math.floor(x)


@dataclass(frozen=True)
class EmbeddedLattice:
    """Integer span of independent basis columns in Q^d."""

    ambient_dim: int
    basis: tuple[Vec, ...]  # columns
    gram_det: Fraction = field(init=False)

    def __post_init__(self):
        basis = tuple(vec(c) for c in self.basis)
        if not basis:
            raise ValueError("empty basis")
        if any(len(c) != self.ambient_dim for c in basis):
            raise ValueError("basis column dimension mismatch")
        gd = det(gram(basis))
        if gd == 0:
            raise ValueError("dependent basis columns")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "gram_det", gd)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def coordinates(self, v: Sequence) -> Vec:
        """Coordinates of v in the basis; error when v is off the span."""
        v = vec(v)
        b = from_columns(self.basis)
        g = gram(self.basis)
        coords = mat_vec(inverse(g), mat_vec(transpose(b), v))
        if mat_vec(b, coords) != v:
            raise ValueError("vector not in the lattice span")
        return coords

    def from_coordinates(self, coords: Sequence) -> Vec:
        b = from_columns(self.basis)
        return mat_vec(b, vec(coords))

    def contains(self, v: Sequence) -> bool:
        try:
            coords = self.coordinates(v)
        except ValueError:
            return False
        return all(c.denominator == 1 for c in coords)

    def dual(self) -> "EmbeddedLattice":
        """Dual lattice inside span(self): basis B (B^T B)^(-1)."""
        dual = mat_mul(from_columns(self.basis), inverse(gram(self.basis)))
        return EmbeddedLattice(self.ambient_dim, tuple(columns(dual)))

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
    gens = [vec(g) for g in gens]
    gens = [g for g in gens if any(c != 0 for c in g)]
    if not gens:
        raise ValueError("no nonzero generators")
    d = len(gens[0])
    den = math.lcm(*(c.denominator for g in gens for c in g))
    int_cols = [tuple(int(c * den) for c in g) for g in gens]
    basis_int = hnf_column_basis(int_cols)
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
    vecs = [vec(v) for v in span_vectors]
    vecs = [v for v in vecs if any(c != 0 for c in v)]
    if not vecs:
        raise ValueError("zero subspace")
    d = len(vecs[0])
    # S = kernel of the matrix whose rows span the orthogonal complement.
    complement = nullspace(vecs)
    if not complement:
        # S is the whole space.
        kernel = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    else:
        kernel = integer_kernel(complement)
    return EmbeddedLattice(d, tuple(tuple(Fraction(c) for c in col) for col in kernel))


# ---------------------------------------------------------------------------
# the lattice sums


def reference_lattice_sum_finite(lattice: EmbeddedLattice, w_columns, exponents, x) -> ExactValue:
    """The finite form of eak.lattice_sum over the lattice itself: dual
    points D m in its dual basis D, W-coordinates from the inverse Gram
    matrix of W, and x projected onto span(lattice)."""
    w_columns = [vec(c) for c in w_columns]
    x = vec(x)
    k = lattice.rank
    det_m = abs(det([[dot(w, b) for w in w_columns] for b in lattice.basis]))
    dual = lattice.dual()
    # project x onto span(lattice): pairings with W see only that component
    w_mat = from_columns(list(w_columns))
    g_w = gram(list(w_columns))
    g_w_inv = inverse(g_w)

    def w_coords(v: Vec) -> Vec:
        return mat_vec(g_w_inv, mat_vec(transpose(w_mat), v))

    xbar = mat_vec(orthogonal_projection(list(lattice.basis)), x)
    # enumerate dual points n = D m with W-coordinates of n - x in [0,1]^k
    corners = []
    for eps in itertools.product((0, 1), repeat=k):
        corner = xbar
        for j, e in enumerate(eps):
            if e:
                corner = vec_add(corner, w_columns[j])
        corners.append(dual.coordinates(corner))
    lo = [math.floor(min(c[j] for c in corners)) for j in range(k)]
    hi = [math.ceil(max(c[j] for c in corners)) for j in range(k)]
    total = ExactValue.of(0)
    for mm in itertools.product(*[range(lo[j], hi[j] + 1) for j in range(k)]):
        n = dual.from_coordinates(mm)
        y = w_coords(vec_sub(n, xbar))
        if any(c < 0 or c > 1 for c in y):
            continue
        weight = _parallelepiped_angle(w_columns, y)
        b_val = Fraction(1)
        for j, e in enumerate(exponents):
            b_val *= bernoulli_poly(e, y[j])
        total = total + weight * b_val
    sign = -1 if k % 2 else 1
    fact = math.prod(math.factorial(e) for e in exponents)
    return total * Fraction(sign, fact * det_m)


def _parallelepiped_angle(w_columns: Sequence[Vec], y: Vec) -> ExactValue:
    """Solid angle of the parallelepiped W[0,1]^k at the point with
    W-coordinates y in [0,1]^k."""
    on_boundary = [j for j, c in enumerate(y) if c == 0 or c == 1]
    if not on_boundary:
        return ExactValue.of(1)
    if len(on_boundary) == 1:
        return ExactValue.of(Fraction(1, 2))
    # corner of a rank-2 parallelepiped: angle between the inward edges
    d1 = w_columns[0] if y[0] == 0 else vec_scale(-1, w_columns[0])
    d2 = w_columns[1] if y[1] == 0 else vec_scale(-1, w_columns[1])
    angle = angle_of_cos_ratio(dot(d1, d2), norm_sq(d1) * norm_sq(d2))
    return ExactValue.angle_turn(angle)


def gunnels_sczech(W: Sequence[Sequence[int]], e: Sequence[int], x: Sequence) -> Fraction:
    """Residue form over Z^d / W Z^d with periodized Bernoulli weights;
    requires every exponent at least two (absolute convergence).  With
    W^(-1) = adj(W) / det W, the residue of n is frac(adj(W) n / det W).
    Refused (BudgetExceeded) when |det W| exceeds ENUMERATION_BUDGET."""
    W = [tuple(int(c) for c in row) for row in W]
    e = [int(v) for v in e]
    x = linalg.vec(x)
    d = len(W)
    if any(v < 2 for v in e):
        raise ValueError("conditionally convergent; use lattice_sum_finite")
    adj, det_w = linalg.adjugate(W)
    if det_w == 0:
        raise ValueError("singular matrix")
    L = abs(det_w)
    if L > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"|det W| = {L} residues exceed the budget {ENUMERATION_BUDGET}")
    x_coords = [linalg.dot(row, x) / det_w for row in adj]
    # the residues frac(W^(-1) n) of Z^d mod W Z^d are the r / L for r in
    # the subgroup of (Z/L)^d generated by the columns of adj(W) mod L, a set
    # closed under the sign of det W; each column adds the cosets H + j col
    # of the group H built so far, until j col falls back into H
    residues = [(0,) * d]
    for col in zip(*adj):
        subgroup, coset = set(residues), residues
        while True:
            coset = [tuple((r + c) % L for r, c in zip(res, col)) for res in coset]
            if coset[0] in subgroup:
                break
            residues += coset
    # coordinate j of a residue alone fixes its weight B~_e_j(r_j/L - x_j):
    # each distinct r_j is weighed once, as an integer over a denominator
    # common to the coordinate, and the products are summed in integers
    weights, den = [], 1
    for j, (e_j, x_j) in enumerate(zip(e, x_coords)):
        w = {r: periodized(e_j, Fraction(r, L) - x_j) for r in {res[j] for res in residues}}
        q = math.lcm(*(v.denominator for v in w.values()))
        weights.append({r: v.numerator * (q // v.denominator) for r, v in w.items()})
        den *= q
    total = sum(math.prod(w[r] for w, r in zip(weights, res)) for res in residues)
    sign = -1 if d % 2 else 1
    fact = math.prod(math.factorial(v) for v in e)
    return Fraction(sign * total, fact * L * den)


def reference_gunnels_sczech(W: Sequence[Sequence[int]], e: Sequence[int], x: Sequence) -> Fraction:
    """The residue form gunnels_sczech with W^(-1) by elimination."""
    W = [tuple(int(c) for c in row) for row in W]
    e = [int(v) for v in e]
    x = vec(x)
    d = len(W)
    if any(v < 2 for v in e):
        raise ValueError("conditionally convergent; use the finite form")
    det_w = det(W)
    if det_w == 0:
        raise ValueError("singular matrix")
    w_inv = inverse(W)
    x_coords = mat_vec(w_inv, x)
    # residues of Z^d mod W Z^d, canonicalized by frac(W^{-1} n)
    residues: set[tuple] = set()
    L = abs(int(det_w))
    for n in itertools.product(range(L), repeat=d):
        residues.add(tuple(frac_part(c) for c in mat_vec(w_inv, n)))
        if len(residues) == L:
            break
    if len(residues) != L:
        raise AssertionError("residue enumeration incomplete")
    total = Fraction(0)
    for res in residues:
        term = Fraction(1)
        for j in range(d):
            term *= periodized(e[j], res[j] - x_coords[j])
        total += term
    sign = -1 if d % 2 else 1
    fact = math.prod(math.factorial(v) for v in e)
    return Fraction(sign, fact * L) * total


def lattice_sum_series(p: LatticeSumProblem, epsilon: float, radius: int) -> float:
    """Truncated damped series: (2 pi i)^(-|e|) times the sum over lattice
    points xi with |xi| <= radius of exp(-2 pi i <x, xi>) divided by
    prod <w_j, xi>^{e_j}, damped by exp(-pi epsilon |xi|^2); zeros of the
    linear forms are skipped.  The real part is returned."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    basis = np.array([[float(c) for c in col] for col in p.basis]).T  # d x k
    w = np.array([[float(c) for c in col] for col in p.w_columns]).T  # d x k
    x = np.array([float(c) for c in p.x])
    # integer coefficient box big enough to cover |xi| <= radius
    gram = basis.T @ basis
    lengths = np.sqrt(np.diag(np.linalg.inv(gram)))  # dual basis lengths
    caps = np.ceil(radius * lengths).astype(int) + 1
    axes = [np.arange(-c, c + 1) for c in caps]
    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    xi = mesh @ basis.T  # (N, d)
    norm_sq = np.sum(xi * xi, axis=1)
    keep = norm_sq <= radius * radius
    xi = xi[keep]
    norm_sq = norm_sq[keep]
    pairings = xi @ w  # (N, k)
    nonzero = np.all(np.abs(pairings) > 1e-12, axis=1)
    xi = xi[nonzero]
    norm_sq = norm_sq[nonzero]
    pairings = pairings[nonzero]
    denom = np.prod(pairings ** np.array(p.exponents), axis=1)
    phase = np.exp(-2j * np.pi * (xi @ x))
    terms = phase / denom * np.exp(-np.pi * epsilon * norm_sq)
    # deterministic reduction order: sort by |xi| then lexicographically
    order = np.lexsort(tuple(xi[:, j] for j in range(xi.shape[1] - 1, -1, -1)) + (norm_sq,))
    total = np.sum(terms[order]) / (2j * np.pi) ** sum(p.exponents)
    return float(total.real)


def series_extrapolated(p: LatticeSumProblem, epsilons: Sequence[float], radius: int) -> float:
    """Richardson-style extrapolation of the damped series as the damping
    vanishes: fit value(eps) ~ v0 + c*eps on the last two epsilons."""
    values = [lattice_sum_series(p, eps, radius) for eps in epsilons]
    if len(values) == 1:
        return values[0]
    e1, e2 = epsilons[-2], epsilons[-1]
    v1, v2 = values[-2], values[-1]
    return v2 + (v2 - v1) * e2 / (e1 - e2)

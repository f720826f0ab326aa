"""Reference exact linear algebra over the rationals: Fraction Gaussian
elimination (rref, rank, inverse, nullspace, det), Gram matrices and
orthogonal projections, and integer Hermite reduction.

The package works from integer minors alone (eak.linalg); these are the
independent routines the tests check it against, and the lattices of
reference_lattice are built on them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from eak.linalg import Vec, dot, vec

Mat = tuple[Vec, ...]

# every routine here; the package defines none of them
FRACTION_ROUTINES = (
    "Mat", "vec_add", "vec_sub", "vec_scale", "transpose", "columns", "from_columns",
    "identity", "mat_mul", "mat_vec", "gram", "det", "rref", "rank", "inverse",
    "nullspace", "orthogonal_projection", "primitive_integer_vector", "hnf_column_basis",
    "integer_kernel",
)


def vec_add(u: Sequence, v: Sequence) -> Vec:
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> Vec:
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v))


def vec_scale(s, v: Sequence) -> Vec:
    s = Fraction(s)
    return tuple(s * Fraction(c) for c in v)


def transpose(m: Sequence[Sequence]) -> Mat:
    return tuple(zip(*[vec(r) for r in m])) if m else ()


def columns(m: Sequence[Sequence]) -> list[Vec]:
    return [vec(c) for c in zip(*m)] if m else []


def from_columns(cols: Sequence[Sequence]) -> Mat:
    return transpose([vec(c) for c in cols])


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Mat:
    bt = columns(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_vec(a: Sequence[Sequence], v: Sequence) -> Vec:
    return tuple(dot(row, v) for row in a)


def gram(cols: Sequence[Sequence]) -> Mat:
    return tuple(tuple(dot(u, v) for v in cols) for u in cols)


def det(m: Sequence[Sequence]) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    a = [list(vec(r)) for r in m]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of non-square matrix")
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return result


def rref(m: Sequence[Sequence]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    a = [list(vec(r)) for r in m]
    rows = len(a)
    cols_n = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols_n):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in a), pivots


def rank(m: Sequence[Sequence]) -> int:
    return len(rref(m)[1])


def inverse(m: Sequence[Sequence]) -> Mat:
    n = len(m)
    aug = [list(vec(r)) + list(identity(n)[i]) for i, r in enumerate(m)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(row[n:] for row in red)


def nullspace(m: Sequence[Sequence]) -> list[Vec]:
    """Basis of the rational kernel of m (acting on column vectors)."""
    red, pivots = rref(m)
    n = len(m[0]) if m else 0
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return basis


def orthogonal_projection(u_cols: Sequence[Sequence]) -> Mat:
    """Projection matrix U (U^T U)^(-1) U^T onto the span of the columns."""
    cols = [vec(c) for c in u_cols]
    g = gram(cols)
    if det(g) == 0:
        raise ValueError("dependent columns")
    u = from_columns(cols)
    return mat_mul(mat_mul(u, inverse(g)), transpose(u))


# ---------------------------------------------------------------------------
# integer lattice algorithms

def primitive_integer_vector(v: Sequence) -> tuple[int, ...]:
    """Unique integer vector w with gcd 1 and w = lambda*v for lambda > 0.

    Raises ValueError on the zero vector.
    """
    fracs = [Fraction(c) for c in v]
    if all(c == 0 for c in fracs):
        raise ValueError("zero direction")
    den = math.lcm(*(c.denominator for c in fracs))
    ints = [int(c * den) for c in fracs]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def hnf_column_basis(int_cols: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of the integer column lattice, by column-style Hermite reduction.

    Accepts any number of generator columns; returns r independent columns
    generating the same lattice (r = rank).
    """
    a = [list(map(int, c)) for c in int_cols]
    if not a:
        return []
    d = len(a[0])
    n = len(a)
    row = 0
    col = 0
    while row < d and col < n:
        live = [j for j in range(col, n) if a[j][row] != 0]
        if not live:
            row += 1
            continue
        while True:
            live.sort(key=lambda j: abs(a[j][row]))
            p = live[0]
            done = True
            for j in live[1:]:
                q = a[j][row] // a[p][row]
                if q:
                    for i in range(d):
                        a[j][i] -= q * a[p][i]
                    done = False
            live = [j for j in live if a[j][row] != 0]
            if done or len(live) <= 1:
                break
        p = live[0]
        a[col], a[p] = a[p], a[col]
        if a[col][row] < 0:
            a[col] = [-x for x in a[col]]
        col += 1
        row += 1
    return [tuple(a[j]) for j in range(col)]


def integer_kernel(m: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """Basis of {x in Z^n : m x = 0} for a rational matrix m."""
    rational = nullspace(m)
    if not rational:
        return []
    n = len(rational[0])
    # The integer kernel is the kernel over Z of the RREF rows of m, cleared
    # of denominators: same rational kernel, and HNF gives its Z-basis.
    red, pivots = rref(m)
    rel_rows = []
    den_lcm = 1
    for r in range(len(pivots)):
        row = red[r]
        den_lcm = math.lcm(den_lcm, *(c.denominator for c in row))
    for r in range(len(pivots)):
        rel_rows.append(tuple(int(c * den_lcm) for c in red[r]))
    return _integer_kernel_of_integer_matrix(rel_rows, n)


def _integer_kernel_of_integer_matrix(rows: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Kernel over Z of an integer matrix via column HNF with transform."""
    m = len(rows)
    # Column operations on A while mirroring them on an identity matrix U:
    # when a column of A becomes zero, the matching column of U is a kernel
    # vector; the collected columns form a basis.
    a = [[rows[i][j] for i in range(m)] for j in range(n)]  # columns of A
    u = [[int(i == j) for i in range(n)] for j in range(n)]  # columns of I
    row = 0
    col = 0
    while row < m and col < n:
        live = [j for j in range(col, n) if a[j][row] != 0]
        if not live:
            row += 1
            continue
        while True:
            live.sort(key=lambda j: abs(a[j][row]))
            p = live[0]
            done = True
            for j in live[1:]:
                q = a[j][row] // a[p][row]
                if q:
                    for i in range(m):
                        a[j][i] -= q * a[p][i]
                    for i in range(n):
                        u[j][i] -= q * u[p][i]
                    done = False
            live = [j for j in live if a[j][row] != 0]
            if done or len(live) <= 1:
                break
        p = live[0]
        a[col], a[p] = a[p], a[col]
        u[col], u[p] = u[p], u[col]
        col += 1
        row += 1
    return [tuple(u[j]) for j in range(col, n)]

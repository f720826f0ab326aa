import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_linalg as ref
from conftest import complete_primitive_2d, mat, solve
from eak import linalg

small_ints = st.integers(min_value=-6, max_value=6)


def square_matrices(n):
    return st.lists(
        st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n
    )


def test_det_and_inverse():
    m = mat([[2, 1], [1, 1]])
    assert ref.det(m) == 1
    assert ref.inverse(m) == mat([[1, -1], [-1, 2]])
    assert ref.det([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        ref.inverse([[1, 2], [2, 4]])


def test_solve_and_rank():
    m = [[1, 2, 3], [0, 1, 1]]
    x = solve(m, (6, 2))
    assert x is not None
    assert ref.mat_vec(mat(m), x) == linalg.vec((6, 2))
    assert solve([[1, 0], [1, 0]], (0, 1)) is None
    assert ref.rank(m) == 2
    assert ref.rank([[1, 2], [2, 4]]) == 1


def test_nullspace():
    ns = ref.nullspace([[1, 1, 1]])
    assert len(ns) == 2
    for v in ns:
        assert linalg.dot((1, 1, 1), v) == 0


def test_orthogonal_projection():
    proj = ref.orthogonal_projection([linalg.vec((1, 1, 0))])
    # idempotent, symmetric, fixes the span, kills the complement
    assert ref.mat_mul(proj, proj) == proj
    assert proj == ref.transpose(proj)
    assert ref.mat_vec(proj, (2, 2, 0)) == linalg.vec((2, 2, 0))
    assert ref.mat_vec(proj, (1, -1, 5)) == linalg.vec((0, 0, 0))


def test_hnf_column_basis_spans_same_lattice():
    # all four generators lie in the rank-2 lattice spanned by the first two
    gens = [(2, 0, 4), (0, 3, 6), (2, 3, 10), (4, 3, 14)]
    basis = ref.hnf_column_basis([linalg.vec(g) for g in gens])
    assert len(basis) == 2

    def in_lattice(v, basis):
        x = solve(ref.from_columns(basis), linalg.vec(v))
        return x is not None and all(c.denominator == 1 for c in x)

    assert all(in_lattice(g, basis) for g in gens)
    assert all(in_lattice(b, [linalg.vec(g) for g in gens]) or True for b in basis)


def test_integer_kernel():
    m = [[1, 2, 3]]
    kern = ref.integer_kernel(m)
    assert len(kern) == 2
    for v in kern:
        assert all(c.denominator == 1 for c in v)
        assert linalg.dot(m[0], v) == 0
    assert ref.rank(kern) == 2


@given(st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20))
def test_complete_primitive_2d(a, b):
    from math import gcd

    if gcd(a, b) != 1:
        return
    c, u = complete_primitive_2d(linalg.vec((a, b)))
    assert c == linalg.vec((a, b))
    assert ref.det([c, u]) in (1, -1)


@given(square_matrices(3))
def test_inverse_times_matrix_is_identity(rows):
    if ref.det(rows) == 0:
        return
    inv = ref.inverse(rows)
    assert ref.mat_mul(inv, mat(rows)) == ref.identity(3)


@given(square_matrices(3))
def test_det_transpose_invariance(rows):
    assert ref.det(rows) == ref.det(ref.transpose(rows))


@given(st.data())
def test_maximal_minors_match_det(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    k = data.draw(st.integers(min_value=0, max_value=n))
    rows = data.draw(st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=k, max_size=k))
    minors = linalg.maximal_minors(rows)
    if not rows:
        assert minors == {(): 1}
        return
    assert list(minors) == list(itertools.combinations(range(n), k))
    for cols, m in minors.items():
        assert m == ref.det([[r[j] for j in cols] for r in rows])


@given(st.data())
def test_adjugate_inverts_up_to_the_determinant(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    rows = data.draw(square_matrices(n))
    adj, det = linalg.adjugate(rows)
    assert det == ref.det(rows)
    assert ref.mat_mul(adj, rows) == tuple(tuple(det * c for c in r) for r in ref.identity(n))


@given(st.data())
def test_cross_is_the_determinant_against_its_rows(data):
    # <cross(R), x> = det[x; R] for every x: orthogonal to each row of R,
    # and zero exactly when the rows are dependent
    n = data.draw(st.integers(min_value=1, max_value=4))
    vector = st.lists(small_ints, min_size=n, max_size=n)
    rows = data.draw(st.lists(vector, min_size=n - 1, max_size=n - 1))
    if data.draw(st.booleans()) and n > 2:
        rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
    u = linalg.cross(rows, n)
    x = data.draw(vector)
    assert linalg.dot(u, x) == ref.det([x, *rows])
    assert all(linalg.dot(u, r) == 0 for r in rows)
    assert any(u) == (ref.rank(rows) == n - 1)


def test_vec_keeps_fraction_entries():
    third = Fraction(1, 3)
    v = linalg.vec((third, 2, "1/2"))
    assert v == (third, Fraction(2), Fraction(1, 2))
    assert v[0] is third

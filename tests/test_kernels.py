from fractions import Fraction

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from eak import _kernels, oracle
from eak.polytope import Polytope

from conftest import reference_scan_box


def _simplex_system(t):
    A = np.array(
        [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]], dtype=np.int64
    )
    C = np.array([0, 0, 0, t], dtype=np.int64)
    lo = np.zeros(3, dtype=np.int64)
    hi = np.full(3, t, dtype=np.int64)
    return A, C, lo, hi


def test_numpy_scan_counts():
    interior, boundary = _kernels.scan_box(*_simplex_system(4))
    # 35 points total in 4*simplex; the strict interior holds only (1,1,1)
    assert interior + len(boundary) == 35
    assert interior == 1
    assert boundary.shape[1] == 3


def test_numpy_scan_empty_boundary():
    A = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.int64)
    C = np.array([3, 1, 3, 1], dtype=np.int64)
    lo = np.array([0, 0], dtype=np.int64)
    hi = np.array([2, 2], dtype=np.int64)
    interior, boundary = _kernels.scan_box(A, C, lo, hi)
    assert interior == 9 and len(boundary) == 0


@st.composite
def integer_systems(draw):
    """(A, C, lo, hi) in d = 1..4 with small entries; some rows have a zero
    last entry, some repeat an earlier row (every point tight on one is
    tight on both), and some boxes are empty."""
    d = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if rows and draw(st.integers(0, 4)) == 0:
            rows.append(draw(st.sampled_from(rows)))
            continue
        a = draw(st.lists(entry, min_size=d, max_size=d))
        if draw(st.booleans()):
            a[-1] = 0
        rows.append((a, draw(st.integers(-4, 8))))
    lo = draw(st.lists(st.integers(-4, 2), min_size=d, max_size=d))
    hi = [low + draw(st.integers(-1, 5)) for low in lo]
    return [a for a, _ in rows], [c for _, c in rows], lo, hi


# a_d = 0 rows with zero and with nonzero slack on their lines
@example(([[1, 0], [0, 1], [-1, 0]], [1, 2, 1], [-2, -2], [2, 2]))
# an empty box, and an infeasible system
@example(([[1, 1]], [0], [0, 1], [3, 0]))
@example(([[1, 0, 1], [-1, 0, -1]], [-1, -1], [-2, -2, -2], [2, 2, 2]))
# a point tight on three rows, and a d = 1 system with a zero row
@example(([[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, -1]],
          [2, 2, 2, 1, 0], [0, 0, 0, 0], [2, 2, 2, 1]))
@example(([[0], [2], [-3]], [0, 5, 4], [-3], [4]))
# the longest box side is the first axis, then the middle one, with rows
# that are zero on it
@example(([[1, 1, 0], [-1, 0, 1], [0, -2, 1], [0, 0, -1]], [3, 2, 1, 0], [-3, 0, -1], [3, 1, 1]))
@example(([[1, 0, 2], [0, -1, 0], [-2, 1, -1], [0, 1, 0]], [4, 3, 5, 2], [0, -5, -1], [2, 5, 1]))
@given(integer_systems())
def test_line_scan_matches_the_box_scan(system):
    A, C, lo, hi = (np.array(v, dtype=np.int64) for v in system)
    interior, boundary = _kernels.scan_box(A, C, lo, hi)
    ref_interior, ref_boundary = reference_scan_box(A, C, lo, hi)
    assert interior == ref_interior
    assert _kernels.count_box(A, C, lo, hi) == ref_interior + len(ref_boundary)
    assert boundary.dtype == np.int64 and boundary.shape[1] == len(lo)
    assert np.array_equal(boundary, ref_boundary)


@given(integer_systems(), st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 4)), max_size=3))
def test_scan_faces_matches_the_box_scan(system, moves):
    """One boundary pass over boxes of one system moved by (shift, growth),
    some of them empty: each box's interior count, and the tight rows of
    its boundary points in lexicographic order, are the reference scan's."""
    A, C, lo, hi = (np.array(v, dtype=np.int64) for v in system)
    systems = [(A, C, lo, hi)] + [(A, C, lo + shift, hi + shift + grow) for shift, grow in moves]
    for (A, C, lo, hi), (interior, tight) in zip(systems, _kernels.scan_faces(systems)):
        ref_interior, ref_boundary = reference_scan_box(A, C, lo, hi)
        assert interior == ref_interior
        assert tight.dtype == bool
        assert np.array_equal(tight, ref_boundary @ A.T == C)


def test_scan_exact_near_int64_limit():
    """Both stages of the scan on the system of 20 Delta_3 at
    t = (q + 1)/q, q = 4*10**16 + 1, as oracle._scaled_system builds it:
    rows scaled by q, whose slack terms over the box of side 21 sum to
    about 83 q, within a factor three of 2**63."""
    q = 4 * 10**16 + 1
    P = Polytope(3, [(0, 0, 0), (20, 0, 0), (0, 20, 0), (0, 0, 20)])
    A, C, lo, hi = oracle._scaled_system(P, Fraction(q + 1, q))
    interior, boundary = _kernels.scan_box(A, C, lo, hi)
    ref_interior, ref_boundary = reference_scan_box(A, C, lo, hi)
    assert interior == ref_interior
    assert np.array_equal(boundary, ref_boundary)
    assert _kernels.count_box(A, C, lo, hi) == ref_interior + len(ref_boundary) == 1771

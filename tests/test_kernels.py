import numpy as np

from eak import _kernels


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


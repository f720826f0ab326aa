"""Hot loop for lattice-point enumeration over integer boxes.

The scan solves, for an all-integer system, which points of a box
satisfy A x <= C.  It is one numpy line scan in two stages: on each line
of the box along the last coordinate, every row bounds that coordinate
by an integer, so the points of a line form one interval.  The first
stage builds those intervals from the row slacks on each line, an outer
sum over the line axes: numpy's integer matrix product has no BLAS path
and loops per output element, so no grid of lines is multiplied by A.
The count stage, count_box, stands alone: it sums the intervals'
lengths.  scan_box adds the boundary stage, for callers that group the
points by face: only rows tight at an integer of an interval give
boundary points, returned for exact classification downstream, with
coordinates unravelled from their index in the box, and the rest of the
points are strictly interior and only counted.
"""

from __future__ import annotations

import numpy as np


def _lines(A: np.ndarray, C: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(slack, lower, upper, live) of A x <= C over [lo, hi]: slack holds
    the row slacks C - A'x' on each line, the lines in C order over the
    first d - 1 coordinates, and the points of a live line are the x_d in
    [lower, upper]; None when the box is empty.

    The slacks are an outer sum, C less one broadcast term a_j x_j per
    line axis, not the product of a grid of lines with A': numpy's integer
    matmul has no BLAS path and loops per output element.  Every partial
    sum is a sub-sum of the terms whose absolute values the int64
    condition of scan_box bounds, so none wraps."""
    if np.any(hi < lo):
        return None
    slack = C
    for j in range(len(lo) - 1):
        axis = np.arange(lo[j], hi[j] + 1, dtype=np.int64)
        slack = slack[..., None, :] - axis[:, None] * A[:, j]
    slack = slack.reshape(int(np.prod(hi[:-1] - lo[:-1] + 1)), len(C))
    a = A[:, -1]
    up, down, flat = a > 0, a < 0, a == 0
    # x_d in [lower, upper] on each line, clipped to the box widened by one
    # so that upper - lower fits in int64
    upper = np.maximum(np.min(slack[:, up] // a[up], axis=1, initial=hi[-1]), lo[-1] - 1)
    lower = np.minimum(np.max(-(-slack[:, down] // a[down]), axis=1, initial=lo[-1]), hi[-1] + 1)
    live = np.all(slack[:, flat] >= 0, axis=1) & (lower <= upper)
    return slack, lower, upper, live


def count_box(A: np.ndarray, C: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> int:
    """The number of points of the box [lo, hi] satisfying A x <= C, under
    the int64 conditions of scan_box; no boundary point is built."""
    A, C, lo, hi = (np.asarray(v, dtype=np.int64) for v in (A, C, lo, hi))
    stage = _lines(A, C, lo, hi)
    if stage is None:
        return 0
    _, lower, upper, live = stage
    return int(np.where(live, upper - lower + 1, 0).sum())


def scan_box(A: np.ndarray, C: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(interior_count, boundary_points) for A x <= C over the box [lo, hi].

    All inputs are int64, and for each row the absolute value of its
    entry of C plus the sum over j < d of |a_j| max(|lo_j|, |hi_j|), and
    the box's point count, must fit in int64; boundary_points is an (n, d)
    int64 array, in lexicographic order, of the points satisfying the
    system with at least one equality.
    """
    A, C, lo, hi = (np.asarray(v, dtype=np.int64) for v in (A, C, lo, hi))
    stage = _lines(A, C, lo, hi)
    if stage is None:
        return 0, np.empty((0, len(lo)), dtype=np.int64)
    slack, lower, upper, live = stage
    length = np.where(live, upper - lower + 1, 0)
    a = A[:, -1]
    flat = a == 0
    # boundary points: x_d = slack / a_d where a_d != 0 divides the slack
    # inside the interval, and the whole line where a_d = 0 and the slack is 0
    q, r = np.divmod(slack[:, ~flat], a[~flat])
    on, row = np.nonzero((r == 0) & (lower[:, None] <= q) & (q <= upper[:, None]) & live[:, None])
    whole = np.flatnonzero(live & np.any(slack[:, flat] == 0, axis=1))
    runs = length[whole]
    offsets = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)
    # dedup and sort by the key line * side + (x_d - lo_d): the point's
    # index in the box in C order, below its point count and lexicographic,
    # from which only the boundary points' coordinates are unravelled
    sides = hi - lo + 1
    lines = np.concatenate([on, np.repeat(whole, runs)])
    last = np.concatenate([q[on, row], np.repeat(lower[whole], runs) + offsets])
    keys = np.unique(lines * sides[-1] + (last - lo[-1]))
    boundary = lo + np.column_stack(np.unravel_index(keys, sides))
    return int(length.sum()) - len(boundary), boundary

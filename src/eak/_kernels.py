"""Hot loop for lattice-point enumeration over integer boxes.

The scan solves, for an all-integer system, which points of a box
satisfy A x <= C, splitting them into strictly-interior points (only
counted) and boundary points (returned, they need exact geometric
classification downstream).  It is a numpy line scan: on each line of
the box along the last coordinate, every row bounds that coordinate by
an integer, so the points of a line form one interval, counted by its
length, and only rows tight at an integer of it give boundary points.
"""

from __future__ import annotations

import numpy as np


def scan_box(A: np.ndarray, C: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(interior_count, boundary_points) for A x <= C over the box [lo, hi].

    All inputs are int64, and every slack C - A'x' over the box, A' the
    rows without their last entry, and the box's point count must fit in
    int64; boundary_points is an (n, d) int64 array, in lexicographic
    order, of the points satisfying the system with at least one equality.
    """
    A, C, lo, hi = (np.asarray(v, dtype=np.int64) for v in (A, C, lo, hi))
    d = len(lo)
    if np.any(hi < lo):
        return 0, np.empty((0, d), dtype=np.int64)
    sides = hi[:-1] - lo[:-1] + 1
    grid = lo[:-1] + np.indices(sides, dtype=np.int64).reshape(d - 1, int(np.prod(sides))).T
    slack = C - grid @ A[:, :-1].T
    a = A[:, -1]
    up, down, flat = a > 0, a < 0, a == 0
    # x_d in [lower, upper] on each line, clipped to the box widened by one
    # so that upper - lower fits in int64
    upper = np.maximum(np.min(slack[:, up] // a[up], axis=1, initial=hi[-1]), lo[-1] - 1)
    lower = np.minimum(np.max(-(-slack[:, down] // a[down]), axis=1, initial=lo[-1]), hi[-1] + 1)
    live = np.all(slack[:, flat] >= 0, axis=1) & (lower <= upper)
    length = np.where(live, upper - lower + 1, 0)
    # boundary points: x_d = slack / a_d where a_d != 0 divides the slack
    # inside the interval, and the whole line where a_d = 0 and the slack is 0
    q, r = np.divmod(slack[:, ~flat], a[~flat])
    on, row = np.nonzero((r == 0) & (lower[:, None] <= q) & (q <= upper[:, None]) & live[:, None])
    whole = np.flatnonzero(live & np.any(slack[:, flat] == 0, axis=1))
    runs = length[whole]
    offsets = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)
    # dedup and sort by the key line * side + (x_d - lo_d), which is below
    # the box's point count and, as lines run in C order, lexicographic
    side = hi[-1] - lo[-1] + 1
    lines = np.concatenate([on, np.repeat(whole, runs)])
    last = np.concatenate([q[on, row], np.repeat(lower[whole], runs) + offsets])
    line, x = np.divmod(np.unique(lines * side + (last - lo[-1])), side)
    boundary = np.column_stack([grid[line], lo[-1] + x])
    return int(length.sum()) - len(boundary), boundary

"""Hot loop for lattice-point enumeration over integer boxes.

The scan solves, for an all-integer system, which points of a box
satisfy A x <= C.  It is one numpy line scan in two stages: on each line
of the box along the last coordinate x_d, every row bounds x_d by an
integer, so the points of a line form one interval.  The first stage
keeps one slack row per inequality, its slacks on every line side by
side (rows x lines), built as an outer sum over the other axes: numpy's
integer matrix product has no BLAS path and loops per output element,
so no grid of lines is multiplied by A.  Each row then bounds the
intervals with one floor division of its slack row by its scalar entry
a_d, applied in place by np.minimum; a row with a_d = 0 masks out the
lines where its slack is negative.  No column is gathered and no
division has an array divisor.  The slacks leave out the last axis, so
the count's int64 condition is a sum over the other axes; the boundary
stage also multiplies a_d by x_d, and the one condition over all axes
that scan_box states, and oracle._scaled_system checks, covers both.

The count stage, count_box, stands alone: it sums the intervals'
lengths.  The boundary stage serves the callers that group the points by
face, in one pass over the lines of one or more boxes: a row can be
tight on a line only at its bound, so the cells (row, line) where a_d
times that end of the interval equals the slack give the boundary points
and their tight sets; the rest of the points are strictly interior and
only counted.  Each point is keyed by its index in its box in C order,
which sorts the points lexicographically.  scan_box returns one box's
boundary points; scan_faces returns, for each of several boxes, the rows
tight at each of its boundary points.
"""

from __future__ import annotations

import numpy as np


def _int64(A, C, lo, hi):
    return tuple(np.asarray(v, dtype=np.int64) for v in (A, C, lo, hi))


def _lines(A: np.ndarray, C: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(slack, lower, upper) of A x <= C over [lo, hi], or None when the
    box is empty.  slack[i] holds the slacks C_i - sum_{j < d} a_ij x_j of
    row i on every line, the lines in C order over the first d - 1 axes;
    the points of a line are the x_d in [lower, upper], an empty interval
    when upper < lower.

    The slacks are an outer sum, C less one broadcast term a_j x_j per
    axis but the last, not the product of a grid of lines with A: numpy's
    integer matmul has no BLAS path and loops per output element.  Every
    partial sum is a sub-sum of the terms whose absolute values the int64
    condition of scan_box bounds, so none wraps."""
    if np.any(hi < lo):
        return None
    slack = C[:, None]
    for j in range(len(lo) - 1):
        axis = np.arange(lo[j], hi[j] + 1, dtype=np.int64)
        slack = (slack[:, :, None] - np.multiply.outer(A[:, j], axis)[:, None, :]
                 ).reshape(len(C), -1)
    lo_d, hi_d = int(lo[-1]), int(hi[-1])
    upper = np.full(slack.shape[1], hi_d)
    # minus the lower end, so that every row with a_d != 0 takes one
    # minimum of one floor division
    neg_lower = np.full(slack.shape[1], -lo_d)
    bound = np.empty_like(upper)
    for i, a in enumerate(A[:, -1].tolist()):
        if a > 0:
            # a x_d <= s: x_d <= floor(s / a)
            np.floor_divide(slack[i], a, out=bound)
            np.minimum(upper, bound, out=upper)
        elif a < 0:
            # -|a| x_d <= s: x_d >= -floor(s / |a|)
            np.floor_divide(slack[i], -a, out=bound)
            np.minimum(neg_lower, bound, out=neg_lower)
        else:
            np.copyto(upper, lo_d - 1, where=slack[i] < 0)
    # clipped to the box widened by one, so that upper - lower fits in int64
    np.maximum(upper, lo_d - 1, out=upper)
    lower = np.minimum(-neg_lower, hi_d + 1)
    return slack, lower, upper


def _count(lower: np.ndarray, upper: np.ndarray) -> int:
    return int(np.maximum(upper - lower + 1, 0).sum())


def count_box(A: np.ndarray, C: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> int:
    """The number of points of the box [lo, hi] satisfying A x <= C, under
    the int64 conditions of scan_box; no boundary point is built."""
    stage = _lines(*_int64(A, C, lo, hi))
    if stage is None:
        return 0
    return _count(stage[1], stage[2])


def _boundary(systems):
    """The boundary stage of the systems (A, C, lo, hi), all with the same
    number of rows, in one pass over the lines of their boxes: (totals,
    ends, key, row, point).  totals[b] is the point count of box b.  Its
    boundary points are the keys in [ends[b - 1], ends[b]) (from 0 for
    b = 0): each point's index in its box in C order, past the boxes
    before, so the keys increase box after box and, within a box, in
    lexicographic order; row i is tight at the point key[point[i]].

    On a line, a row with a_d > 0 can be tight only at the upper end of
    the interval, one with a_d < 0 only at the lower end, and one with
    a_d = 0 is tight at every point where its slack is zero.  Each box
    gives the cells (row, line) where its slack equals a_d times that end,
    found for all rows at once; one pass over the cells of every box
    turns them into points and their tight rows."""
    empty = np.empty(0, dtype=np.int64)
    totals, ends, cells = [], [], [(empty, empty, empty)]
    offset = 0
    for A, C, lo, hi in systems:
        stage = _lines(A, C, lo, hi)
        if stage is not None:
            slack, lower, upper = stage
            a = A[:, -1]
            # a zero row: its cell stands at the lower end for the whole line
            end = np.where((a > 0)[:, None], upper, lower)
            # on a live line both ends lie in the box, so a_d x_d is exact
            cell = np.flatnonzero((slack == a[:, None] * end) & (lower <= upper))
            row, line = np.divmod(cell, slack.shape[1])
            # the key: the point's index in the box in C order, past the boxes before
            key = offset + line * int(hi[-1] - lo[-1] + 1) + end.ravel()[cell] - lo[-1]
            # a tight zero row stands for every point of its line
            cells.append((row, key, np.where(a[row] == 0, upper[line] - lower[line] + 1, 1)))
            totals.append(_count(lower, upper))
            offset += int(np.prod(hi - lo + 1))
        else:
            totals.append(0)
        ends.append(offset)
    row, key, runs = (np.concatenate(v) for v in zip(*cells))
    steps = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)
    key, point = np.unique(np.repeat(key, runs) + steps, return_inverse=True)
    return totals, ends, key, np.repeat(row, runs), point


def scan_box(A: np.ndarray, C: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(interior_count, boundary_points) for A x <= C over the box [lo, hi].

    All inputs are int64.  For each row, the absolute value of its entry
    of C plus the sum over every axis j of |a_j| max(|lo_j|, |hi_j|) must
    fit in int64, and so must the box's point count: the bound that
    oracle._scaled_system checks.  It covers both stages, the slacks over
    the first d - 1 axes and the products a_d x_d of the boundary stage.  boundary_points is an (n, d) int64 array, in lexicographic
    order, of the points satisfying the system with at least one equality.
    """
    A, C, lo, hi = _int64(A, C, lo, hi)
    (total,), _, key, _, _ = _boundary([(A, C, lo, hi)])
    return total - len(key), lo + np.column_stack(np.unravel_index(key, hi - lo + 1))


def scan_faces(systems) -> list[tuple[int, np.ndarray]]:
    """For each system (A, C, lo, hi), under the int64 conditions of
    scan_box and with one row count for all: (interior_count, tight), where
    tight is an (n, rows) bool array whose row p marks the rows tight at
    the p-th of the system's n boundary points in lexicographic order.  One
    boundary stage runs over the lines of every box; the sum of the boxes'
    point counts must fit in int64."""
    systems = [_int64(*system) for system in systems]
    totals, ends, key, row, point = _boundary(systems)
    tight = np.zeros((len(key), len(systems[0][1])), dtype=bool)
    tight[point, row] = True
    cuts = np.searchsorted(key, [0, *ends])
    return [(total - int(cuts[b + 1] - cuts[b]), tight[cuts[b]:cuts[b + 1]])
            for b, total in enumerate(totals)]

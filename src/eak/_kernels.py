"""Hot loop for lattice-point enumeration over integer boxes.

The scan solves, for an all-integer system, which points of a box
satisfy A x <= C, splitting them into strictly-interior points (only
counted) and boundary points (returned, they need exact geometric
classification downstream).  It is a numpy slab scan: one matrix
product per value of the first coordinate.
"""

from __future__ import annotations

import numpy as np


def scan_box(A: np.ndarray, C: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(interior_count, boundary_points) for A x <= C over the box [lo, hi].

    All inputs are int64, and every row value A x over the box must fit
    in int64; boundary_points is an (n, d) int64 array of the points
    satisfying the system with at least one equality.
    """
    A = np.ascontiguousarray(A, dtype=np.int64)
    C = np.ascontiguousarray(C, dtype=np.int64)
    lo = np.ascontiguousarray(lo, dtype=np.int64)
    hi = np.ascontiguousarray(hi, dtype=np.int64)
    d = len(lo)
    if np.any(hi < lo):
        return 0, np.empty((0, d), dtype=np.int64)
    axes = [np.arange(lo[j], hi[j] + 1, dtype=np.int64) for j in range(1, d)]
    if axes:
        rest = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    else:
        rest = np.empty((1, 0), dtype=np.int64)
    interior = 0
    boundary = []
    pts = np.empty((rest.shape[0], d), dtype=np.int64)
    if d > 1:
        pts[:, 1:] = rest
    for x0 in range(int(lo[0]), int(hi[0]) + 1):
        pts[:, 0] = x0
        S = pts @ A.T
        inside = np.all(S <= C, axis=1)
        tight = inside & np.any(S == C, axis=1)
        interior += int(inside.sum()) - int(tight.sum())
        if tight.any():
            boundary.append(pts[tight].copy())
    bnd = np.concatenate(boundary, axis=0) if boundary else np.empty((0, d), dtype=np.int64)
    return interior, bnd

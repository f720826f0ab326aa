"""Concreteness checks: the multi-tiling level of the hyperoctahedral
symmetrization by sampling, and the direct definition A_P(t) = vol(P) t^d,
both in dimension at most three.

The multi-tiling level is sampled from the orbit of each sample point
under the signed permutations, kept as integer perm and sign arrays,
tested for exact integer membership in the integer translates of P
itself; no image polytope is built."""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from eak import oracle
from eak.exactval import ExactValue
from eak.polytope import Polytope

# sample points of the multi-tiling check are k / SAMPLE_DEN, k in Z^d
SAMPLE_DEN = 10**6


@dataclass(frozen=True)
class TilingReport:
    level: int | None  # None: not multi-tiling
    witness: tuple | None  # a sampled point with a deviating multiplicity


def _translate_ranges(P: Polytope) -> list[range]:
    """Integer translate ranges per axis covering every x in [0,1)^d, read
    from the integer vertices of L P.  Refuses a box of more than
    ENUMERATION_BUDGET translates (BudgetExceeded) before it is built."""
    L, points = P._dilate
    # [floor(-max_j P), ceil(1 - min_j P)] with coordinate j of P = c / L
    ranges = [range(-max(c) // L, -((min(c) - L) // L) + 1) for c in zip(*points)]
    size = math.prod(len(r) for r in ranges)
    if size > oracle.ENUMERATION_BUDGET:
        raise oracle.BudgetExceeded(
            f"the translate box has {size} translates (budget {oracle.ENUMERATION_BUDGET})"
        )
    return ranges


@functools.cache
def _group_arrays(d: int):
    """The 2^d d! signed permutations of Z^d as a perm and a sign array,
    one row per element, each permutation with every sign pattern in turn:
    g(x)_i = signs_i x_perm_i.  Read-only, since every call shares them."""
    import numpy as np

    perms, signs = zip(*itertools.product(itertools.permutations(range(d)),
                                          itertools.product((1, -1), repeat=d)))
    arrays = np.array(perms), np.array(signs)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def symmetrized_multitiling_level(
    P: Polytope, samples: int = 256, seed: int = 0
) -> TilingReport:
    """Multiplicity of the hyperoctahedral symmetrization of P under
    integer translations, checked exactly at sampled points.

    The symmetrization is the multiset of the images g(P), one per signed
    permutation g.  Each g maps Z^d onto itself, so x - lam lies in g(P)
    exactly when g^-1 x - g^-1 lam lies in P, and on its boundary exactly
    when that point lies on the boundary of P.  Summed over the group
    (g^-1 runs over it as g does), the multiplicity at x is

        sum_g #{mu in Z^d : frac(g x) - mu in P},

    so the orbit of x is tested against the translates of P itself and
    no image polytope is built.  A sample is x = k/10^6; with P's rows
    scaled to integers the test is exact for every input.  It runs on
    int64 when one bound computed from P is below 2^63: the larger of
    SAMPLE_DEN times the largest row sum of |a| and the largest |bound|
    of a translate, so that no product, partial sum or bound can leave
    int64.  Otherwise the same expressions run on Python ints.  A box of
    more than ENUMERATION_BUDGET translates is refused (BudgetExceeded)
    before it is built.  A point on the boundary of some translate is
    redrawn, up to 64 times, and the check then refuses (ValueError).

    A k-fold tiling by Z^d translates has k equal to the images' total
    volume 2^d d! vol(P); callers that know vol(P) can reject any other
    sampled level."""
    import numpy as np

    if P.dim > 3:
        raise ValueError("dimension above three not supported")
    d = P.dim
    perms, signs = _group_arrays(d)
    # with L the lcm of the b denominators, y - mu in P for y = k/SAMPLE_DEN
    # reads L a.k <= L SAMPLE_DEN b + SAMPLE_DEN L a.mu, in integers throughout
    scale = math.lcm(*(b.denominator for _, b in P.inequalities))
    rows = [[scale * c for c in a] for a, _ in P.inequalities]
    rhs = [SAMPLE_DEN * (scale // b.denominator) * b.numerator for _, b in P.inequalities]
    translates = np.array(list(itertools.product(*_translate_ranges(P))), dtype=object)
    bounds = np.array(rhs, dtype=object)[:, None] + SAMPLE_DEN * (
        np.array(rows, dtype=object) @ translates.T
    )
    # |a.k| < SAMPLE_DEN sum |a| for 0 <= k < SAMPLE_DEN
    reach = max(SAMPLE_DEN * max(sum(map(abs, row)) for row in rows), np.abs(bounds).max())
    dtype = np.int64 if reach < oracle.INT64_LIMIT else object
    rows = np.array(rows, dtype=dtype)
    bounds = bounds.astype(dtype)  # facets on the leading axis: (f, translates)
    rng = random.Random(seed)
    level = None
    for _ in range(samples):
        for _retry in range(64):
            k = np.array([rng.randrange(SAMPLE_DEN) for _ in range(d)], dtype=np.int64)
            orbit = (signs * k[perms]) % SAMPLE_DEN  # frac(g x), scaled, for each g
            values = rows @ orbit.astype(dtype, copy=False).T  # (f, group)
            # reduced across the facets, the leading axis: (group, translates)
            inside = (values[:, :, None] <= bounds[:, None, :]).all(axis=0)
            g_in, mu_in = np.nonzero(inside)
            if not (values[:, g_in] == bounds[:, mu_in]).any():
                break
        else:
            raise ValueError("could not sample a point off all boundaries in 64 draws")
        if level is None:
            level = len(g_in)
        elif len(g_in) != level:
            return TilingReport(None, tuple(Fraction(int(c), SAMPLE_DEN) for c in k))
    return TilingReport(level, None)


@dataclass(frozen=True)
class ConcretenessReport:
    concrete: bool
    failed_t: int | None
    defect: ExactValue | None  # A_P(t) - vol t^d at the first failure


def is_concrete(P: Polytope, t_max: int) -> ConcretenessReport:
    """Check A_P(t) = vol(P) t^d exactly for t = 1..t_max.

    Raises ValueError when a defect has a nonzero canonical form but
    vanishes to 150 bits: equal canonical forms prove equality, unequal
    ones do not prove a difference."""
    if P.dim > 3:
        raise ValueError(f"concreteness is checked in dimension at most three, got {P.dim}")
    vol = P.volume()
    for t in range(1, t_max + 1):
        value = oracle.solid_angle_sum(P, t)
        expected = ExactValue.of(vol * Fraction(t) ** P.dim)
        defect = value - expected
        if defect != ExactValue.of(0):
            if abs(defect.eval_numeric(200)) < 2.0**-150:
                raise ValueError(
                    f"cannot decide concreteness at t={t}: the defect {defect} "
                    "is nonzero in form but zero to 150 bits"
                )
            return ConcretenessReport(False, t, defect)
    return ConcretenessReport(True, None, None)


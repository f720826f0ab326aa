"""The four workloads: input generation, job execution and output checks.

Every workload is a fixed cyclic list of jobs made from the seed.  The
list interleaves strata (polytope family, vertex count, denominator,
number of dilations, dilation band) in a fixed order, so that the work
in a run depends on the seed only through the random draws inside each
stratum.  A job reads its polytope from a JSON file in the CLI's input
format, so no state carries over from one job to the next.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from fractions import Fraction

WORKLOADS = ("closed-form", "ehrhart-oracle", "angle-oracle", "concrete")

DELTA = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
ORDER = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
HALF_ORDER = [tuple(Fraction(c, 2) for c in v) for v in ORDER]
CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
HEX_PRISM = [
    (x, y, z)
    for x, y in [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    for z in (0, 1)
]
# criterion 11 answers: concrete or not, and the symmetrized tiling level
CONCRETE_REFERENCES = {
    "cube": (CUBE, True, 48),
    "hex-prism": (HEX_PRISM, True, 144),
    "order-simplex": (ORDER, True, 8),
    "half-order-simplex": (HALF_ORDER, True, 1),
    "delta3": (DELTA, False, None),
}

# closed-form stratum per list slot: (family, vertices, denominator, dilations);
# the list holds CLOSED_FORM_ROUNDS rounds of these, each with fresh draws
CLOSED_FORM_ROUNDS = 3
CLOSED_FORM_SLOTS = [
    ("rational3", 4, 2, 1),
    ("reeve", 4, 1, 3),
    ("rational3", 5, 3, 2),
    ("delta3", 4, 1, 8),
    ("rational3", 4, 3, 4),
    ("rational4", 5, 2, 1),
    ("rational3", 4, 2, 6),
    ("reeve", 4, 1, 5),
    ("order-simplex", 4, 1, 7),
    ("rational3", 5, 3, 8),
]
EHRHART_SLOTS = 16  # vertex counts cycle through 5..8
EHRHART_TOP_BOX = 300_000  # candidates in the box of the largest dilation
ANGLE_SLOTS = 30  # hulls of 7 points in [-2, 2]^3; t denominators cycle through 1..5
ANGLE_VERTICES = (6, 7)
# boundary lattice points over the four dilations verify samples
ANGLE_BOUNDARY = (250, 350)
# Random tetrahedra with vertices in (1/3)Z^3 within [-1, 1]^3, after the
# references.  A multi-tiling has the same multiplicity at every point, so
# a few samples confirm the known levels of the references.  Elsewhere the
# sampled test can miss the region where the multiplicity differs and
# report a level (with 8 samples it reported level 30 on a lattice
# tetrahedron where 48 vol(P) is 32), so random polytopes get the 64
# samples criterion 11 uses.  About one lattice tetrahedron in twenty
# really multi-tiles and then costs all 64 samples, ten times the others;
# denominator 3 keeps 48 vol(P) off the integers, so none does and the
# work per list stays steady.
CONCRETE_RANDOM = 12
CONCRETE_TMAX = 2
CONCRETE_SAMPLES = {"reference": 8, "random": 64}


def _fmt(x) -> str:
    return str(Fraction(x))


def _write(workdir: str, index: int, dim: int, points) -> str:
    name = f"p{index:03d}.json"
    data = {"dim": dim, "vertices": [[_fmt(c) for c in p] for p in points]}
    with open(os.path.join(workdir, name), "w") as f:
        json.dump(data, f)
    return name


def _polytope(dim: int, points):
    from eak.polytope import Polytope

    try:
        return Polytope(dim, points)
    except ValueError:
        return None


def _random_hull(rng, dim: int, vertices: int, den: int, rad):
    """Points p/den with |p/den| <= rad whose hull has exactly `vertices`
    vertices."""
    while True:
        pts = [
            tuple(Fraction(rng.randint(-rad * den, rad * den), den) for _ in range(dim))
            for _ in range(vertices + rng.randint(0, 2))
        ]
        P = _polytope(dim, pts)
        if P is not None and len(P.vertices) == vertices and P.denominator() == den:
            return pts, P


def _random_t(rng, lo=Fraction(0), hi=Fraction(4)) -> Fraction:
    """A dilation p/q in (lo, hi] with q <= 12, as the acceptance tests draw."""
    while True:
        q = rng.randint(1, 12)
        p_lo, p_hi = math.floor(lo * q) + 1, math.floor(hi * q)
        if p_lo <= p_hi:
            return Fraction(rng.randint(p_lo, p_hi), q)


def _closed_form(rng, workdir):
    jobs = []
    for i, (family, vertices, den, n) in enumerate(CLOSED_FORM_SLOTS * CLOSED_FORM_ROUNDS):
        if family == "rational3":
            pts, _ = _random_hull(rng, 3, vertices, den, 1)
            dim = 3
        elif family == "rational4":
            pts, _ = _random_hull(rng, 4, vertices, den, 1)
            dim = 4
        elif family == "reeve":
            # thin Reeve tetrahedron conv(0, e1, e2, (1, 1, r)): cone type (1, r)
            pts, dim = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, rng.randint(2, 1021))], 3
        else:
            pts, dim = {"delta3": DELTA, "order-simplex": ORDER}[family], 3
        ts = []
        while len(ts) < n:
            t = _random_t(rng)
            if t not in ts:
                ts.append(t)
        args = ["--flavor", "both"] + [a for t in ts for a in ("--eval", _fmt(t))]
        jobs.append({"command": "analyze", "file": _write(workdir, i, dim, pts),
                     "args": args, "family": family, "t": [_fmt(t) for t in ts]})
    return jobs


def _top_box_dilation(rng, points) -> Fraction:
    """A dilation t with q <= 12 whose box at t + 3 is the largest not
    above EHRHART_TOP_BOX."""
    q = rng.randint(1, 12)
    best = None
    p = q
    while True:
        t = Fraction(p, q)
        top = t + 3
        box = math.prod(
            math.ceil(max(v[j] for v in points) * top)
            - math.floor(min(v[j] for v in points) * top)
            + 1
            for j in range(3)
        )
        if box > EHRHART_TOP_BOX:
            return best
        best = t
        p += 1


def _ehrhart_oracle(rng, workdir):
    jobs = []
    for i in range(EHRHART_SLOTS):
        pts, P = _random_hull(rng, 3, 5 + i % 4, 1, 3)
        t = _top_box_dilation(rng, P.vertices)
        jobs.append({"command": "ehrhart", "file": _write(workdir, i, 3, pts),
                     "args": [], "family": f"integer{5 + i % 4}", "t": [_fmt(t)]})
    return jobs


def _angle_oracle(rng, workdir):
    from reference import boundary_count

    def boundary(P, t):
        return sum(boundary_count(P, t + j) for j in range(4))

    jobs = []
    for i in range(ANGLE_SLOTS):
        q = 1 + i % 5
        t = None
        while t is None:
            pts = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(7)]
            P = _polytope(3, pts)
            if P is None or len(P.vertices) not in ANGLE_VERTICES:
                continue
            ts = [Fraction(p, q) for p in rng.sample(range(1, 2 * q + 1), 2 * q)]
            t = next((t for t in ts if ANGLE_BOUNDARY[0] <= boundary(P, t) <= ANGLE_BOUNDARY[1]),
                     None)
        jobs.append({"command": "verify", "file": _write(workdir, i, 3, pts),
                     "args": ["--t", _fmt(t)], "family": "integer", "t": [_fmt(t)]})
    return jobs


def _concrete(rng, workdir):
    jobs = []
    for i, family in enumerate([*CONCRETE_REFERENCES, *["tetrahedron"] * CONCRETE_RANDOM]):
        if family in CONCRETE_REFERENCES:
            pts = CONCRETE_REFERENCES[family][0]
            samples = CONCRETE_SAMPLES["reference"]
        else:
            samples = CONCRETE_SAMPLES["random"]
            # no symmetry of the cube fixes it, so it has 48 distinct images
            pts = None
            while pts is None or _images(pts) < 48:
                pts, _ = _random_hull(rng, 3, 4, 3, 1)
        args = ["--tmax", str(CONCRETE_TMAX), "--samples", str(samples),
                "--seed", str(rng.randrange(10**6))]
        jobs.append({"command": "concrete", "file": _write(workdir, i, 3, pts),
                     "args": args, "family": family, "t": []})
    return jobs


def _images(points) -> int:
    """Distinct images of a point set under the 48 signed permutations."""
    return len({
        tuple(sorted(tuple(s[i] * p[perm[i]] for i in range(3)) for p in points))
        for perm in itertools.permutations(range(3))
        for s in itertools.product((1, -1), repeat=3)
    })


def generate(workload: str, seed: int, workdir: str) -> list[dict]:
    """The job list of a workload, its polytope files written to workdir."""
    rng = random.Random(f"{workload}/{seed}")
    make = {
        "closed-form": _closed_form,
        "ehrhart-oracle": _ehrhart_oracle,
        "angle-oracle": _angle_oracle,
        "concrete": _concrete,
    }[workload]
    return make(rng, workdir)


# ---------------------------------------------------------------------------
# execution (inside the timed region)

def execute(job: dict, workdir: str) -> tuple[bool, str]:
    """Run one job; (exited cleanly and passed its own check, output)."""
    path = os.path.join(workdir, job["file"])
    if job["command"] == "ehrhart":
        return _ehrhart_half_of_verify(path, Fraction(job["t"][0]))
    from eak import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([job["command"], path, *job["args"]])
    return code == 0, out.getvalue() + err.getvalue() + f"exit {code}\n"


def _ehrhart_half_of_verify(path: str, t: Fraction) -> tuple[bool, str]:
    """Counts at t + j*m, their interpolation, and the closed forms."""
    from eak import coefficients, oracle
    from eak.exactval import ExactValue
    from eak.polytope import Polytope

    with open(path) as f:
        P = Polytope.from_json(json.load(f))
    m = P.denominator()
    samples = [
        (t + j * m, Fraction(oracle.count_points(P, t + j * m))) for j in range(P.dim + 1)
    ]
    interpolated = oracle.interpolate_coefficients(samples, P.dim)
    formula = [
        ExactValue.of(P.volume()),
        coefficients.coeff_e_d1(P).eval(t),
        coefficients.coeff_e_d2(P).eval(t),
    ]
    ok = all(f == ExactValue.of(c) for f, c in zip(formula, interpolated))
    counts = " ".join(str(c) for _, c in samples)
    lines = [
        f"t={_fmt(t)} counts: {counts}",
        *(f"{name}: formula={f} oracle={_fmt(c)}"
          for name, f, c in zip(("vol", "e_d1", "e_d2"), formula, interpolated)),
        "pass" if ok else "FAIL",
    ]
    return ok, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# checks (outside the timed region)

class Checker:
    """Checks job outputs against paths independent of the code under test."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.coverage = {"oracle": 0, "golden": 0, "identity": 0, "self": 0, "unchecked": 0}

    def _load(self, job):
        from eak.polytope import Polytope

        with open(os.path.join(self.workdir, job["file"])) as f:
            return Polytope.from_json(json.load(f))

    def check(self, job: dict, output: str) -> str | None:
        """None when the output is right, else the reason it is not."""
        if job["command"] in ("ehrhart", "verify"):
            self.coverage["self"] += 1
            if "FAIL" in output:
                return "formula differs from oracle"
            return None
        if job["command"] == "analyze":
            return self._check_analyze(job, output)
        return self._check_concrete(job, output)

    def _check_analyze(self, job, output):
        from eak import coefficients
        from reference import Reference

        P = self._load(job)
        printed = {}
        for line in output.splitlines():
            if line.startswith("t=") and "]: " in line:
                head, values = line.split("]: ", 1)
                t, flavor = head[2:].split(" [")
                for part in values.split("; "):
                    name, value = part.split(" = ", 1)
                    printed[(Fraction(t), name)] = value
        ts = [Fraction(t) for t in job["t"]]
        if len(printed) != 4 * len(ts):
            return f"expected {4 * len(ts)} values, printed {len(printed)}"
        volume = next(line for line in output.splitlines() if line.startswith("denominator="))
        ref = Reference(P)
        for t in ts:
            expected = {}  # coefficient name -> (value, how it was obtained)
            if ref.fits(t):
                e, a = ref.coefficients(t)
                if volume.split("volume=")[1] != str(e[0]):
                    return f"printed {volume}, the interpolated volume is {e[0]}"
                expected["e_d1"], expected["e_d2"] = (e[1], "oracle"), (e[2], "oracle")
                if a is not None:
                    expected["a_d1"], expected["a_d2"] = (a[1], "oracle"), (a[2], "oracle")
            if "a_d1" not in expected:
                expected["a_d1"] = (coefficients.recovered_a_d1(P, t), "identity")
            for name, value in _golden(job["family"], t).items():
                if name in expected and expected[name][0] != value:
                    return f"{expected[name][1]} {name} at t={t} differs from the golden value"
                expected[name] = (value, "golden")
            self.coverage["unchecked"] += 4 - len(expected)
            for name, (value, source) in expected.items():
                self.coverage[source] += 1
                if printed[(t, name)] != str(value):
                    return f"{name} at t={t}: printed {printed[(t, name)]}, expected {value}"
        return None

    def _check_concrete(self, job, output):
        from eak import oracle
        from eak.exactval import ExactValue

        P = self._load(job)
        lines = output.splitlines()
        vol = P.volume()
        level = _printed_level(lines[1])
        if job["family"] in CONCRETE_REFERENCES:
            self.coverage["golden"] += 1
            _, concrete, known_level = CONCRETE_REFERENCES[job["family"]]
            if concrete != lines[0].startswith("concrete for"):
                return "concreteness differs from criterion 11"
            if not concrete and lines[0] != (
                f"not concrete: fails at t=1 with defect {_delta_angle()}"
            ):
                return "delta3 defect differs from criterion 11"
            if level != known_level:
                return f"tiling level {level}, criterion 11 has {known_level}"
            return None
        self.coverage["oracle"] += 1
        defect = oracle.appendixA_cross_check(P, 1) - ExactValue.of(vol)
        if defect != ExactValue.of(0):
            want = f"not concrete: fails at t=1 with defect {defect}"
            if lines[0] != want:
                return f"printed {lines[0]!r}, face decomposition gives {want!r}"
        elif lines[0].startswith("not concrete: fails at t=1 "):
            return "face decomposition finds A_P(1) = vol(P)"
        # the weighted images cover each point 48 vol(P) times on average
        if level is not None and level != 48 * vol:
            return f"tiling level {level} differs from 48 vol(P) = {48 * vol}"
        return None


def _printed_level(line: str):
    if "multi-tiles at level" in line:
        return int(line.split("level ")[1].split()[0])
    return None


def _delta_angle():
    from eak.exactval import AngleValue, ExactValue

    return ExactValue(Fraction(-5, 12), ((Fraction(3), AngleValue(1, Fraction(1, 3))),))


def _golden(family: str, t: Fraction) -> dict:
    """Criteria 01-03: closed forms on the standard and the order simplex."""
    from eak.bernoulli import one_sided_B1, periodized
    from eak.exactval import ExactValue

    values = {}
    if family == "delta3":
        b1p = one_sided_B1(t, "plus")
        values["e_d1"] = -Fraction(1, 2) * b1p + Fraction(3, 4)
        values["e_d2"] = Fraction(1, 2) * periodized(2, t) - Fraction(3, 2) * b1p + 1
        values["a_d1"] = -Fraction(1, 2) * periodized(1, t)
        if t == 1:
            values["a_d2"] = _delta_angle()
        elif t == Fraction(1, 2):
            values["a_d2"] = Fraction(5, 24)
    elif family == "order-simplex":
        values["a_d1"] = -Fraction(1, 2) * periodized(1, t)
        values["a_d2"] = (
            Fraction(1, 2) * periodized(2, t)
            - (Fraction(1, 8) if t.denominator == 1 else 0)
            + Fraction(1, 24)
        )
    return {k: ExactValue.of(v) if not isinstance(v, ExactValue) else v
            for k, v in values.items()}

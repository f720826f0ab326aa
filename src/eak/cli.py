"""Command-line interface: analysis, evaluation, verification, Dedekind
sums, lattice sums and concreteness checks for rational polytopes.

Every refusal is a ValueError raised where the invalid input is found,
argparse's own included; run alone prints it, as the one line
`error: <message>`, and returns 2.  Each command returns its exit code and
a report of the values it printed, and run alone writes that report to
--json, each exact value encoded by _encode."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from eak import concrete as concrete_mod
from eak import coefficients, lattice_sum, oracle
from eak.dedekind import dr_sum_fast
from eak.exactval import ExactValue, format_rational, parse_integer, parse_rational
from eak.local_data import all_codim2_data
from eak.polytope import Polytope

SCHEMA = "1"


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are refusals for run to print, not exits."""

    def error(self, message):
        raise ValueError(f"{message} (see {self.prog} --help)")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        # parse_rational's message names the text, so it is not repeated
        raise argparse.ArgumentTypeError(f"not a rational: {exc}")


def _positive_rational(text: str) -> Fraction:
    value = _rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"not a positive rational: {text!r}")
    return value


def _integer(text: str) -> int:
    try:
        return parse_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_int(text: str) -> int:
    try:
        if (value := parse_integer(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not an integer of at least 1: {text!r}")


def _load(path: str, from_json):
    """from_json of the JSON file at path; each refusal names the file,
    those of bytes that are no text, nest past the recursion limit or
    write an integer past the digits parse_integer reads too."""
    try:
        with open(path) as f:
            return from_json(json.load(f, parse_int=parse_integer))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _encode(value):
    """A report value JSON has no type for: a Fraction as 'p/q' or 'p', an
    ExactValue as its rational part and its arccos terms."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, ExactValue):
        return {
            "rational": format_rational(value.rational_part),
            "angle_terms": [
                {"coefficient": format_rational(c), "sign": a.sign,
                 "cos_squared": format_rational(a.cos_squared)}
                for c, a in value.angle_terms
            ],
        }
    raise TypeError(f"a report holds no {type(value).__name__}")


def _write_report(report: dict, path: str) -> None:
    try:
        with open(path, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True, default=_encode)
            f.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands

def _cmd_analyze(args) -> tuple[int, dict]:
    P = _load(args.polytope, Polytope.from_json)
    report = {"polytope": P.to_json(), "denominator": P.denominator(), "volume": P.volume(),
              "facets": [], "codim2": [], "evaluations": []}
    print(f"polytope: dim={P.dim} vertices={len(P.vertices)} facets={len(P.inequalities)}")
    print(f"denominator={P.denominator()} volume={format_rational(P.volume())}")

    facets = [(a, b, P.relative_volume(F)) for (a, b), F in zip(P.inequalities, P.facets())]
    codim2 = all_codim2_data(P)
    print("\nfacets (normal | offset | relative volume):")
    for a, b, vol in facets:
        print(f"  {a}  {format_rational(b)}  {format_rational(vol)}")
        # schema 1 writes the integer norm_sq and dot12 as strings
        report["facets"].append({"normal": list(a), "offset": b, "relative_volume": vol,
                                 "norm_sq": format_rational(sum(c * c for c in a))})
    print("\ncodim-2 faces (facet pair | h | k | x1 | x2 | vol*):")
    for g in codim2:
        print(
            f"  ({g.f1},{g.f2})  h={g.h} k={g.k} "
            f"x1={format_rational(g.x1)} x2={format_rational(g.x2)} "
            f"vol*={format_rational(g.vol_star)}"
        )
        report["codim2"].append({
            "facets": [g.f1, g.f2], "h": g.h, "k": g.k, "h_inv": g.h_inv,
            "x1": g.x1, "x2": g.x2, "dot12": format_rational(g.dot12),
            "cos_squared": g.c_G.cos_squared, "cos_sign": g.c_G.sign,
            "relative_volume": g.vol_star,
        })

    flavors = list(coefficients.FLAVORS) if args.flavor == "both" else [args.flavor]
    for t in args.eval or []:
        all_values = coefficients.evaluate(P, t)
        for flavor in flavors:
            values = {kind: all_values[kind] for kind in coefficients.FLAVORS[flavor]}
            shown = "; ".join(f"{name} = {v}" for name, v in values.items())
            print(f"\nt={format_rational(t)} [{flavor}]: {shown}")
            report["evaluations"].append({"t": t, "flavor": flavor, **values})
    return 0, report


def _cmd_eval(args) -> tuple[int, dict]:
    P = _load(args.polytope, Polytope.from_json)
    values = []
    for t in args.t:
        v = coefficients.quasipolynomial_value(P, args.flavor, t)
        print(f"{args.flavor}({format_rational(t)}) = {v}")
        values.append({"t": t, "value": v})
    return 0, {"values": values}


def _cmd_verify(args) -> tuple[int, dict]:
    P = _load(args.polytope, Polytope.from_json)
    d, m = P.dim, P.denominator()
    table = oracle.angle_table(P)
    checks = []
    vol = ExactValue.of(P.volume())
    by_class = {}  # t0 -> the interpolated coefficients of its class
    for t in args.t:
        # the class polynomial of t, read from the scans of its
        # representative t0 in (0, m], once per class; the formulas are
        # taken at t
        t0 = coefficients.class_representative(t, m)
        if t0 not in by_class:
            ts = [t0 + j * m for j in range(d + 1)]
            samples = []
            for s, (interior, faces) in zip(ts, oracle.face_counts(P, ts)):
                # points left out at 4-D vertices add one constant over all s: only t^0 sees it
                angles, _ = table.vector(interior, faces)
                samples.append((s, (interior + sum(faces.values()), *angles)))
            # each coefficient: the count's, then D times the angle sum's over the basis
            by_class[t0] = oracle.interpolate_coefficients(samples, d)
        coeffs = by_class[t0]
        values = {"vol": vol, **coefficients.evaluate(P, t)}
        # (name, codimension k): a segment has no k = 2 row
        rows = [
            (name, values[name],
             table.value(coeffs[k][1:]) if name.startswith("a_") else ExactValue.of(coeffs[k][0]))
            for name, k in (("vol", 0), ("e_d1", 1), ("e_d2", 2), ("a_d1", 1), ("a_d2", 2))
            if k <= d
        ]
        for name, formula, interpolated in rows:
            ok = formula == interpolated
            print(
                f"t={format_rational(t)} {name}: formula={formula} "
                f"oracle={interpolated} [{'pass' if ok else 'FAIL'}]"
            )
            checks.append({"t": t, "coefficient": name, "formula": formula,
                           "oracle": interpolated, "pass": ok})
    ok_all = all(check["pass"] for check in checks)
    return 0 if ok_all else 1, {"checks": checks, "pass": ok_all}


def _cmd_dedekind(args) -> tuple[int, dict]:
    value = dr_sum_fast(args.h, args.k, args.x, args.y)
    print(format_rational(value))
    return 0, {"h": args.h, "k": args.k, "x": args.x, "y": args.y, "value": value}


def _cmd_lattice_sum(args) -> tuple[int, dict]:
    problem = _load(args.problem, lattice_sum.LatticeSumProblem.from_json)
    value = lattice_sum.lattice_sum_finite(problem)
    print(value)
    return 0, {"value": value}


def _cmd_concrete(args) -> tuple[int, dict]:
    P = _load(args.polytope, Polytope.from_json)
    rep = concrete_mod.is_concrete(P, args.tmax)
    if rep.concrete:
        print(f"concrete for t = 1..{args.tmax}")
    else:
        print(
            f"not concrete: fails at t={rep.failed_t} "
            f"with defect {rep.defect}"
        )
    tiling = concrete_mod.symmetrized_multitiling_level(
        P, samples=args.samples, seed=args.seed
    )
    level = tiling.level
    # a k-fold tiling by Z^d translates has k equal to the images' total volume
    order = 2**P.dim * math.factorial(P.dim)
    total = order * P.volume()
    if level is not None and level != total:
        print("symmetrized copy is not a constant-multiplicity tiling "
              f"(sampled level {level} on {args.samples} points, but "
              f"{order} vol(P) = {format_rational(total)})")
        level = None
    elif level is not None:
        print(f"symmetrized copy multi-tiles at level {level} "
              f"(sampled {args.samples} points)")
    else:
        witness = ", ".join(format_rational(c) for c in tiling.witness)
        print("symmetrized copy is not a constant-multiplicity tiling "
              f"(witness ({witness}))")
    return 0, {"concrete": rep.concrete, "failed_t": rep.failed_t, "defect": rep.defect,
               "tiling_level": level, "samples": args.samples}


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no state
    on it, each call starts from a fresh namespace."""
    parser = _Parser(
        prog="eak",
        description="Exact solid-angle sums, Ehrhart quasi-coefficients and "
        "Dedekind-Rademacher sums for rational polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form coefficient tables and evaluations")
    p.add_argument("polytope")
    p.add_argument("--flavor", choices=[*coefficients.FLAVORS, "both"], default="both")
    p.add_argument("--eval", action="append", type=_rational, metavar="T")
    p.add_argument("--json")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("eval", help="evaluate the full degree-3 quasi-polynomial")
    p.add_argument("polytope")
    p.add_argument("--flavor", choices=list(coefficients.FLAVORS), default="ehrhart")
    p.add_argument("--t", action="append", type=_positive_rational, required=True)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="formula-vs-oracle comparison table")
    p.add_argument("polytope")
    p.add_argument("--t", action="append", type=_positive_rational, required=True)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dedekind", help="exact Dedekind-Rademacher sum")
    p.add_argument("h", type=_integer)
    p.add_argument("k", type=_integer)
    p.add_argument("x", type=_rational, nargs="?", default=Fraction(0))
    p.add_argument("y", type=_rational, nargs="?", default=Fraction(0))
    p.add_argument("--json")
    p.set_defaults(func=_cmd_dedekind)

    p = sub.add_parser("lattice-sum", help="exact finite lattice-sum evaluation")
    p.add_argument("problem")
    p.add_argument("--json")
    p.set_defaults(func=_cmd_lattice_sum)

    p = sub.add_parser("concrete", help="concreteness and multi-tiling checks")
    p.add_argument("polytope")
    p.add_argument("--tmax", type=_positive_int, default=4)
    p.add_argument("--samples", type=_positive_int, default=256)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_concrete)

    return parser


def run(argv=None) -> int:
    """The exit code of the eak command on argv: 0, 1 when a verification
    fails, and 2 for every refusal, which is printed as one stderr line
    `error: <message>`.  With --json, the command's report, headed by the
    schema and the command's name, is written there.  --help prints and
    exits 0 through SystemExit."""
    try:
        args = build_parser().parse_args(argv)
        code, report = args.func(args)
        if args.json:
            _write_report({"schema": SCHEMA, "command": args.command, **report}, args.json)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

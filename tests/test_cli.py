import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from eak import _kernels, coefficients, concrete, oracle
from eak.cli import build_parser, run

from conftest import FOUR_POLYTOPE, rhombic_dodecahedron

DELTA = {
    "dim": 3,
    "vertices": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
}


@pytest.fixture
def delta_path(tmp_path):
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(DELTA))
    return str(path)


def test_analyze(delta_path, local_data_builds, capsys):
    args = ["--flavor", "both", "--eval", "1", "--eval", "1/2", "--eval", "2"]
    assert run(["analyze", delta_path, *args]) == 0
    out = capsys.readouterr().out
    assert "volume=1/6" in out
    assert "a_d2 = -5/12 + 3*arccos(sqrt(1/3))/(2pi)" in out
    assert "e_d2 = 11/6" in out
    # each of the 4 facets and 6 edges is built once for all t and flavors
    assert len(local_data_builds) == 4 + 6
    assert set(local_data_builds.values()) == {1}


def test_analyze_sums_each_dedekind_rademacher_sum_once(delta_path, monkeypatch, capsys):
    # both flavors share each codim-2 face's Dedekind-Rademacher sum: one
    # call per (edge, t) for the 6 edges of Delta_3 at two values of t
    calls = []
    dr_sum_scaled = coefficients.dr_sum_scaled

    def counted(h, k, X, Y, q):
        calls.append((h, k, X, Y, q))
        return dr_sum_scaled(h, k, X, Y, q)

    monkeypatch.setattr(coefficients, "dr_sum_scaled", counted)
    args = ["--flavor", "both", "--eval", "1", "--eval", "1/2"]
    assert run(["analyze", delta_path, *args]) == 0
    assert "e_d2 = 11/6" in capsys.readouterr().out
    assert len(calls) == 6 * 2


def test_one_parser_serves_every_call(delta_path, tmp_path, capsys):
    # the parser is built once per process, and no --eval list of one call
    # leaks into the next
    assert build_parser() is build_parser()
    report = tmp_path / "report.json"
    assert run(["analyze", delta_path, "--eval", "1", "--json", str(report)]) == 0
    assert len(json.loads(report.read_text())["evaluations"]) == 2
    assert run(["analyze", delta_path, "--json", str(report)]) == 0
    assert json.loads(report.read_text())["evaluations"] == []
    capsys.readouterr()
    assert run(["analyze", delta_path, "--flavor", "neither"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(["dedekind", "1", "5"]) == 0
    assert capsys.readouterr().out.strip() == "1/5"


def test_import_loads_no_mpmath():
    # only the numeric checks of exactval need mpmath, and they import it
    code = "import sys, eak.cli, eak.oracle; print('mpmath' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(coefficients.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"


def test_import_and_analyze_load_no_numpy(delta_path):
    # numpy serves only the oracles' scan and the tiling sampler, each of
    # which imports it: neither the import nor an analysis loads it
    code = (f"import sys, eak.cli, eak.oracle; loaded = {{'numpy', 'mpmath'}} & set(sys.modules); "
            f"eak.cli.run(['analyze', {delta_path!r}, '--eval', '1']); "
            f"print(sorted(loaded), sorted({{'numpy', 'mpmath'}} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(coefficients.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.splitlines()[-1] == "[] []"


def test_analyze_segment(tmp_path, capsys):
    # a 1-polytope has no codim-2 faces: the list is printed empty
    segment = tmp_path / "segment.json"
    segment.write_text(json.dumps({"dim": 1, "vertices": [["0"], ["3/2"]]}))
    assert run(["analyze", str(segment), "--flavor", "both", "--eval", "1"]) == 0
    out = capsys.readouterr().out
    assert "volume=3/2" in out
    assert out.split("codim-2 faces (facet pair | h | k | x1 | x2 | vol*):\n")[1].startswith("\n")
    assert "a_d2 = 0" in out and "e_d1 = 1/2" in out


def test_analyze_json_report(delta_path, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run(["analyze", delta_path, "--eval", "1/2", "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["schema"] == "1"
    assert data["volume"] == "1/6"
    assert data["denominator"] == 1


def test_analyze_dump_local(delta_path, tmp_path, capsys):
    """The analyze report holds each facet's normal, offset, relative volume
    and squared norm, in inequality order, and each codim-2 face's
    transverse data, with x1 the offset of its second facet and x2 of its
    first; --dump-local, which only added them, is refused."""
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(
        {"dim": 3, "vertices": [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]}
    ))
    coordinate = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    cases = (
        (delta_path, [*coordinate, [1, 1, 1]], ["0", "0", "0", "1"], ["1/2"] * 4, ["1"] * 3 + ["3"],
         [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]),
        (str(cube), [*coordinate, [0, 0, 1], [0, 1, 0], [1, 0, 0]], ["0"] * 3 + ["1"] * 3,
         ["1"] * 6, ["1"] * 6,
         [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (2, 4), (3, 4), (1, 5), (2, 5),
          (3, 5), (4, 5)]),
    )
    for path, normals, offsets, volumes, norms, pairs in cases:
        report = tmp_path / "report.json"
        assert run(["analyze", path, "--json", str(report)]) == 0
        capsys.readouterr()
        data = json.loads(report.read_text())
        assert data["facets"] == [
            {"normal": a, "offset": b, "relative_volume": vol, "norm_sq": n}
            for a, b, vol, n in zip(normals, offsets, volumes, norms)
        ]
        # Delta_3 meets its diagonal facet at cos^2 = 1/3, every other pair
        # of facets meets at a right angle; every edge is unimodular
        diagonal = [i for i, a in enumerate(normals) if a == [1, 1, 1]]
        assert data["codim2"] == [
            {
                "facets": [i, j],
                "h": 0,
                "k": 1,
                "h_inv": 1,
                "x1": offsets[j],
                "x2": offsets[i],
                "dot12": "-1" if j in diagonal else "0",
                "cos_squared": "1/3" if j in diagonal else "0",
                "cos_sign": 1 if j in diagonal else 0,
                "relative_volume": "1",
            }
            for i, j in pairs
        ]
    assert run(["analyze", delta_path, "--dump-local"]) == 2
    _one_line_error(capsys, "--dump-local")


def _exact(rational, *terms):
    """The report of an ExactValue: its rational part and its (coefficient,
    cos^2) arccos terms, each of sign 1 as canonical terms are."""
    return {"rational": rational,
            "angle_terms": [{"coefficient": c, "sign": 1, "cos_squared": cs} for c, cs in terms]}


def test_every_command_writes_its_report(delta_path, tmp_path, capsys):
    """Each command's --json report, whole: rationals as p/q or p, exact
    values as their rational part and arccos terms, and norm_sq and dot12
    as strings."""
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(
        {"dim": 3, "vertices": [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]}
    ))
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"basis": [["1"]], "w": [["1"]], "e": [2], "x": ["1/3"]}))
    a_d2 = _exact("-5/12", ("3", "1/3"))

    def ridge(i, j, x1, dot12, cos_squared, cos_sign):
        return {"facets": [i, j], "h": 0, "k": 1, "h_inv": 1, "x1": x1, "x2": "0",
                "dot12": dot12, "cos_squared": cos_squared, "cos_sign": cos_sign,
                "relative_volume": "1"}

    def check(t, name, value):
        return {"t": t, "coefficient": name, "formula": value, "oracle": value, "pass": True}

    cases = [
        (["analyze", delta_path, "--eval", "1", "--eval", "1/2"], {
            "schema": "1", "command": "analyze",
            "polytope": {"dim": 3, "vertices": [["0", "0", "0"], ["0", "0", "1"],
                                                ["0", "1", "0"], ["1", "0", "0"]]},
            "denominator": 1, "volume": "1/6",
            "facets": [
                {"normal": [-1, 0, 0], "offset": "0", "relative_volume": "1/2", "norm_sq": "1"},
                {"normal": [0, -1, 0], "offset": "0", "relative_volume": "1/2", "norm_sq": "1"},
                {"normal": [0, 0, -1], "offset": "0", "relative_volume": "1/2", "norm_sq": "1"},
                {"normal": [1, 1, 1], "offset": "1", "relative_volume": "1/2", "norm_sq": "3"},
            ],
            "codim2": [
                ridge(0, 1, "0", "0", "0", 0), ridge(0, 2, "0", "0", "0", 0),
                ridge(1, 2, "0", "0", "0", 0), ridge(0, 3, "1", "-1", "1/3", 1),
                ridge(1, 3, "1", "-1", "1/3", 1), ridge(2, 3, "1", "-1", "1/3", 1),
            ],
            "evaluations": [
                {"t": "1", "flavor": "solid-angle", "a_d1": _exact("0"), "a_d2": a_d2},
                {"t": "1", "flavor": "ehrhart", "e_d1": _exact("1"), "e_d2": _exact("11/6")},
                {"t": "1/2", "flavor": "solid-angle", "a_d1": _exact("0"),
                 "a_d2": _exact("5/24")},
                {"t": "1/2", "flavor": "ehrhart", "e_d1": _exact("3/4"),
                 "e_d2": _exact("23/24")},
            ],
        }),
        (["eval", delta_path, "--t", "2"], {
            "schema": "1", "command": "eval",
            "values": [{"t": "2", "value": _exact("10")}],
        }),
        (["eval", delta_path, "--flavor", "solid-angle", "--t", "1", "--t", "2"], {
            "schema": "1", "command": "eval",
            "values": [{"t": "1", "value": _exact("-1/4", ("3", "1/3"))},
                       {"t": "2", "value": _exact("1/2", ("6", "1/3"))}],
        }),
        (["verify", delta_path, "--t", "1"], {
            "schema": "1", "command": "verify", "pass": True,
            "checks": [check("1", "vol", _exact("1/6")), check("1", "e_d1", _exact("1")),
                       check("1", "e_d2", _exact("11/6")), check("1", "a_d1", _exact("0")),
                       check("1", "a_d2", a_d2)],
        }),
        (["dedekind", "35", "97", "1/3", "1/2"], {
            "schema": "1", "command": "dedekind",
            "h": 35, "k": 97, "x": "1/3", "y": "1/2", "value": "-6/97",
        }),
        (["lattice-sum", str(problem)], {
            "schema": "1", "command": "lattice-sum", "value": _exact("1/36"),
        }),
        (["concrete", str(cube), "--tmax", "1", "--samples", "8"], {
            "schema": "1", "command": "concrete", "concrete": True, "failed_t": None,
            "defect": None, "tiling_level": 48, "samples": 8,
        }),
        (["concrete", delta_path, "--tmax", "1", "--samples", "8"], {
            "schema": "1", "command": "concrete", "concrete": False, "failed_t": 1,
            "defect": a_d2, "tiling_level": None, "samples": 8,
        }),
    ]
    report = tmp_path / "report.json"
    for argv, expected in cases:
        assert run([*argv, "--json", str(report)]) == 0
        capsys.readouterr()
        text = report.read_text()
        assert json.loads(text) == expected
        # two-space indent, keys sorted, one closing newline
        assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_eval(delta_path, capsys):
    assert run(["eval", delta_path, "--flavor", "ehrhart", "--t", "2"]) == 0
    assert "ehrhart(2) = 10" in capsys.readouterr().out


def test_eval_beyond_the_period(half_order, tmp_path, capsys):
    # the half-order simplex has period 2: t = 5/2 and 7/2 take the constant
    # term from t0 = 1/2 and 3/2, and the coefficients at t itself
    path = tmp_path / "half_order.json"
    path.write_text(json.dumps(half_order.to_json()))
    for flavor, oracle_value in (("ehrhart", oracle.count_points),
                                 ("solid-angle", oracle.solid_angle_sum)):
        assert run(["eval", str(path), "--flavor", flavor, "--t", "5/2", "--t", "7/2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{flavor}({t}) = {oracle_value(half_order, Fraction(t))}" for t in ("5/2", "7/2")
        ]


def test_verify(delta_path, local_data_builds, capsys):
    assert run(["verify", delta_path, "--t", "1", "--t", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out and "FAIL" not in out
    assert len(local_data_builds) == 4 + 6
    assert set(local_data_builds.values()) == {1}


def test_verify_classifies_each_face_once(delta_path, monkeypatch, capsys):
    # the polytope's angle table is built once, with one row for each of
    # the 4 facets, 6 edges and 4 vertices of Delta_3
    tables, faces = [], []
    build, row_of = oracle.AngleTable.__init__, oracle.AngleTable._row

    def counted_build(table, P):
        tables.append(P)
        build(table, P)

    def counted_row(table, key, c):
        faces.append(key)
        return row_of(table, key, c)

    monkeypatch.setattr(oracle.AngleTable, "__init__", counted_build)
    monkeypatch.setattr(oracle.AngleTable, "_row", counted_row)
    assert run(["verify", delta_path, "--t", "1", "--t", "1/2"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(tables) == 1
    assert len(faces) == len(set(faces)) == 4 + 6 + 4


def test_verify_scans_each_dilation_once(delta_path, monkeypatch, capsys):
    # two values of t, four dilations t + j each: one boundary pass per t
    # gives the counts and the solid-angle sums of its four dilations
    scans = []
    scan_faces = _kernels.scan_faces

    def counted(systems):
        scans.append(len(systems))
        return scan_faces(systems)

    monkeypatch.setattr(_kernels, "scan_faces", counted)
    assert run(["verify", delta_path, "--t", "1", "--t", "1/2"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert scans == [4, 4]


# vertices by name: at t = 1, delta4 and four_polytope have lattice
# vertices, whose angles the exact oracle leaves out
EVERY_DIMENSION = {
    "segment": [["1/2"], ["7/3"]],
    "triangle": [[0, 0], ["3/2", 0], ["1/3", 2]],
    "quadrilateral": [["-1/2", 0], [2, "-1/3"], ["3/2", "5/3"], [0, 1]],
    "delta2": [[0, 0], [1, 0], [0, 1]],
    "square": [[0, 0], [1, 0], [0, 1], [1, 1]],
    "delta4": [[0] * 4, *([int(i == j) for j in range(4)] for i in range(4))],
    "half_delta4": [[0] * 4, *([Fraction(i == j, 2) for j in range(4)] for i in range(4))],
    "prism4": [[x, y, z, w] for x in (0, 1) for y in (0, 1) for z in (0, "1/2")
               for w in ("1/3", "4/3")],
    "four_polytope": FOUR_POLYTOPE,
}


def _write_polytope(tmp_path, name) -> str:
    vertices = [[str(c) for c in v] for v in EVERY_DIMENSION[name]]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"dim": len(vertices[0]), "vertices": vertices}))
    return str(path)


@pytest.mark.parametrize("name", EVERY_DIMENSION)
def test_verify_in_every_dimension(name, tmp_path, capsys):
    path = _write_polytope(tmp_path, name)
    assert run(["verify", path, "--t", "1", "--t", "1/2", "--t", "2/3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    # a segment has only the vol, e_d1 and a_d1 rows
    assert len(rows) == 3 * (3 if len(EVERY_DIMENSION[name][0]) == 1 else 5)
    assert all(row.endswith("[pass]") for row in rows)


def test_eval_below_and_above_dimension_three(tmp_path, capsys):
    assert run(["eval", _write_polytope(tmp_path, "delta2"), "--t", "2"]) == 0
    assert capsys.readouterr().out == "ehrhart(2) = 6\n"
    assert run(["eval", _write_polytope(tmp_path, "delta4"), "--t", "2"]) == 2
    _one_line_error(capsys, "4-polytope", "no closed form")


def test_concrete_refuses_a_numerically_zero_defect(tmp_path, capsys):
    P = rhombic_dodecahedron(lambda x, y, z: (x + y + z, y + 2 * z, z))
    path = tmp_path / "rd.json"
    path.write_text(json.dumps(P.to_json()))
    assert run(["concrete", str(path), "--tmax", "1", "--samples", "1"]) == 2
    _one_line_error(capsys, "cannot decide", "t=1")


def test_dedekind(capsys):
    assert run(["dedekind", "1", "5"]) == 0
    assert capsys.readouterr().out.strip() == "1/5"
    assert run(["dedekind", "3", "7", "1/2", "1/3"]) == 0
    capsys.readouterr()
    # beyond the direct cutoff, with x and y over different denominators
    assert run(["dedekind", "35", "97", "1/3", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "-6/97"
    # any integer h: s(-3, 7) = -s(3, 7)
    assert run(["dedekind", "-3", "7"]) == 0
    assert capsys.readouterr().out.strip() == "1/14"
    assert run(["dedekind", "-3", "7", "1/3", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "2/7"


def test_lattice_sum(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"basis": [["1"]], "w": [["1"]], "e": [2], "x": ["1/3"]}))
    assert run(["lattice-sum", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1/36"


def test_lattice_sum_refuses_malformed_problems(tmp_path, capsys):
    unit = [[1, 0], [0, 1]]
    for words, problem in (
        # a point or a linear form of the wrong length
        (("2 entries",), {"basis": unit, "w": unit, "e": [1, 1], "x": [0]}),
        (("2 entries",), {"basis": unit, "w": unit, "e": [1, 1], "x": [0, 0, 5]}),
        (("2 entries",), {"basis": unit, "w": [[1, 0, 0], [0, 1]], "e": [1, 1], "x": [0, 0]}),
        # a parallelepiped of (10^6 + 1)^2 candidates is refused, not scanned
        (("1000002000001 candidate points", "budget"),
         {"basis": unit, "w": [[10**6, 0], [0, 10**6]], "e": [1, 1], "x": [0, 0]}),
    ):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert run(["lattice-sum", str(path)]) == 2
        _one_line_error(capsys, *words)


def test_commands_load_no_lattice_module(delta_path, tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"basis": [["1"]], "w": [["1"]], "e": [2], "x": ["1/3"]}))
    assert run(["verify", delta_path, "--t", "1"]) == 0
    assert run(["concrete", delta_path, "--tmax", "1", "--samples", "4"]) == 0
    assert run(["lattice-sum", str(problem)]) == 0
    assert importlib.util.find_spec("eak.lattice") is None
    assert "eak.lattice" not in sys.modules


def test_concrete(delta_path, capsys):
    assert run(["concrete", delta_path, "--tmax", "1", "--samples", "4"]) == 0
    out = capsys.readouterr().out
    assert "not concrete" in out
    # Delta_3 does not multi-tile; the witness point is printed as p/q
    assert re.search(r"\(witness \((-?\d+(/\d+)?, ){2}-?\d+(/\d+)?\)\)", out)
    assert "Fraction" not in out


def test_concrete_rejects_a_level_other_than_the_total_volume(tmp_path, capsys):
    # eight samples all see 14 images, but a k-fold lattice tiling by the 48
    # images of P has k = 48 vol(P) = 16
    path = tmp_path / "tetra.json"
    path.write_text(json.dumps({
        "dim": 3,
        "vertices": [["-1", "-1", "-1"], ["-1", "-1", "0"], ["-1", "0", "-1"], ["1", "0", "-1"]],
    }))
    report = tmp_path / "report.json"
    argv = ["concrete", str(path), "--tmax", "2", "--samples", "8", "--seed", "945215"]
    assert run([*argv, "--json", str(report)]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line == ("symmetrized copy is not a constant-multiplicity tiling "
                    "(sampled level 14 on 8 points, but 48 vol(P) = 16)")
    assert json.loads(report.read_text())["tiling_level"] is None


def _one_line_error(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(w in err for w in words)
    return err


def test_input_errors(delta_path, tmp_path, capsys):
    assert run(["analyze", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 3}')
    assert run(["analyze", str(bad)]) == 2
    capsys.readouterr()
    for command in ("verify", "eval"):
        for t in ("0", "-1"):
            assert run([command, delta_path, "--t", t]) == 2
            assert "not a positive rational" in capsys.readouterr().err
    simplex4 = tmp_path / "simplex4.json"
    simplex4.write_text(json.dumps({
        "dim": 4,
        "vertices": [[str(int(i == j)) for j in range(4)] for i in range(4)]
        + [["0"] * 4],
    }))
    assert run(["concrete", str(simplex4)]) == 2
    _one_line_error(capsys, "dimension")
    for flag in ("--tmax", "--samples"):
        for value in ("0", "-1"):
            assert run(["concrete", delta_path, flag, value]) == 2
            _one_line_error(capsys, flag, "at least 1")
    rank3 = tmp_path / "rank3.json"
    unit = [[str(int(i == j)) for j in range(3)] for i in range(3)]
    rank3.write_text(json.dumps({"basis": unit, "w": unit, "e": [2, 2, 2], "x": ["1/3", "0", "0"]}))
    assert run(["lattice-sum", str(rank3)]) == 2
    _one_line_error(capsys, "rank")
    # a zero denominator is an input error, in a polytope and in a basis
    zero_den = tmp_path / "zero_den.json"
    zero_den.write_text(json.dumps({"dim": 1, "vertices": [["0"], ["1/0"]]}))
    assert run(["analyze", str(zero_den)]) == 2
    _one_line_error(capsys, "zero denominator")
    zero_basis = tmp_path / "zero_basis.json"
    zero_basis.write_text(json.dumps({"basis": [["1/0"]], "w": [["1"]], "e": [2], "x": ["0"]}))
    assert run(["lattice-sum", str(zero_basis)]) == 2
    _one_line_error(capsys, "zero denominator")
    # an inequality normal must have dim entries, no more and no fewer
    for a in ([1, 0, 0, 0], [1, 0]):
        rows = [{"a": a, "b": "1"}] + [
            {"a": [-int(i == j) for j in range(3)], "b": "0"} for i in range(3)
        ]
        wrong = tmp_path / "wrong_length.json"
        wrong.write_text(json.dumps({"dim": 3, "inequalities": rows}))
        assert run(["analyze", str(wrong)]) == 2
        _one_line_error(capsys, f"{len(a)} entries", "dim = 3")
    # a float or a boolean is refused where an integer is read, not truncated
    square = [{"a": a, "b": b} for a, b in (([-1, 0], "0"), ([0, 1], "1"), ([0, -1], "0"))]
    for field, data in (
        ("'a'", {"dim": 2, "inequalities": [{"a": [1.5, 0], "b": "1"}, *square]}),
        ("'a'", {"dim": 2, "inequalities": [{"a": [True, 0], "b": "1"}, *square]}),
        ("'dim'", {**DELTA, "dim": 3.9}),
        ("'dim'", {**DELTA, "dim": True}),
    ):
        inexact = tmp_path / "inexact.json"
        inexact.write_text(json.dumps(data))
        assert run(["analyze", str(inexact)]) == 2
        _one_line_error(capsys, field, "must be an integer")
    # so is an exponent of a lattice sum, which would otherwise become 1
    unit = [[1, 0], [0, 1]]
    for e in ([1.5, 1], [True, 1]):
        inexact = tmp_path / "inexact.json"
        inexact.write_text(json.dumps({"basis": unit, "w": unit, "e": e, "x": [0, 0]}))
        assert run(["lattice-sum", str(inexact)]) == 2
        _one_line_error(capsys, "'e'", "must be an integer")
    # a boolean is not a rational, and an inequality names a missing key
    for words, data in (
        (("a vertex", "rationals", "True"), {"dim": 1, "vertices": [[True], [0]]}),
        (("'b'", "rationals", "True"),
         {"dim": 2, "inequalities": [{"a": [1, 0], "b": True}, *square]}),
        (("missing 'b'", "inequality"), {"dim": 2, "inequalities": [{"a": [1, 0]}, *square]}),
        (("missing 'a'", "inequality"), {"dim": 2, "inequalities": [{"b": "1"}, *square]}),
        # a string that is no rational names its field first
        ((": a vertex: ", "'x'"), {"dim": 1, "vertices": [["0"], ["x"]]}),
        ((": 'b': ", "zero denominator", "'1/0'"),
         {"dim": 2, "inequalities": [{"a": [1, 0], "b": "1/0"}, *square]}),
    ):
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps(data))
        assert run(["analyze", str(malformed)]) == 2
        _one_line_error(capsys, *words)
    # a string where an array belongs is refused by name, not read character
    # by character, and so is a file that holds no JSON object
    unit = [[1, 0], [0, 1]]
    lattice = {"basis": unit, "w": unit, "e": [1, 1], "x": [0, 0]}
    for command, field, kind, data in (
        ("analyze", "a vertex", "array", {"dim": 3, "vertices": ["000", "100", "010", "001"]}),
        ("analyze", "'vertices'", "array", {"dim": 3, "vertices": "0001"}),
        ("analyze", "'a'", "array", {"dim": 2, "inequalities": [{"a": "01", "b": "1"}, *square]}),
        ("analyze", "'inequalities'", "array", {"dim": 2, "inequalities": "01"}),
        ("analyze", "an inequality", "object", {"dim": 2, "inequalities": ["01", "10"]}),
        ("analyze", "an inequality", "object", {"dim": 2, "inequalities": [[[1, 0], 1], *square]}),
        ("analyze", "a polytope", "object", None),
        ("lattice-sum", "a column of 'basis'", "array", {**lattice, "basis": ["10", "01"]}),
        ("lattice-sum", "'basis'", "array", {**lattice, "basis": "10"}),
        ("lattice-sum", "a column of 'w'", "array", {**lattice, "w": ["10", "01"]}),
        ("lattice-sum", "'w'", "array", {**lattice, "w": "10"}),
        ("lattice-sum", "'e'", "array", {**lattice, "e": "11"}),
        ("lattice-sum", "'x'", "array", {**lattice, "x": "00"}),
        ("lattice-sum", "a lattice-sum problem", "object", None),
    ):
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps(data))
        assert run([command, str(malformed)]) == 2
        _one_line_error(capsys, field, f"must be a JSON {kind}")
    # a float or a boolean is no rational in a lattice sum either
    for bad in (0.5, True):
        for field, data in (("'x'", {**lattice, "x": [bad, "1/3"]}),
                            ("a column of 'basis'", {**lattice, "basis": [[bad, 0], [0, 1]]})):
            malformed = tmp_path / "malformed.json"
            malformed.write_text(json.dumps(data))
            assert run(["lattice-sum", str(malformed)]) == 2
            _one_line_error(capsys, field, "rationals must be", repr(bad))
    # an unwritable report path is an input error, not a traceback
    assert run(["analyze", delta_path, "--json", str(tmp_path / "missing" / "x.json")]) == 2
    _one_line_error(capsys, "cannot write")


def test_a_rational_is_p_over_q_or_p(delta_path, tmp_path, capsys):
    """Decimals, exponents and underscores are refused wherever a rational
    is read: a --t or --eval value and a rational string in a JSON file,
    each refusal naming the text once."""
    vertex = tmp_path / "vertex.json"
    for text in ("0.5", "1e3", "1_000", "-.5e-2", "1 / 2"):
        assert run(["eval", delta_path, f"--t={text}"]) == 2
        assert _one_line_error(capsys, "--t", "not a rational").count(repr(text)) == 1
        assert run(["analyze", delta_path, f"--eval={text}"]) == 2
        assert _one_line_error(capsys, "--eval", "not a rational").count(repr(text)) == 1
        vertex.write_text(json.dumps({"dim": 1, "vertices": [["0"], [text]]}))
        assert run(["analyze", str(vertex)]) == 2
        assert _one_line_error(capsys, "a vertex").count(repr(text)) == 1


def test_an_integer_is_a_sign_and_ascii_digits(delta_path, tmp_path, capsys):
    """Underscores and digits other than ASCII, which int() reads, are
    refused wherever an integer is read: dedekind's h and k, --tmax,
    --samples and --seed, and an integer string in a JSON file, each
    refusal naming the text once; a sign is read."""
    square = [{"a": a, "b": b} for a, b in (([-1, 0], "0"), ([0, 1], "1"), ([0, -1], "0"))]
    unit = [[1, 0], [0, 1]]
    for text in ("1_0", "\uff18", "\u0661\u0660", "10.0", "3/1"):
        for argv, field in ((["dedekind", text, "1021"], "argument h"),
                            (["dedekind", "5", text], "argument k"),
                            (["concrete", delta_path, "--tmax", text], "--tmax"),
                            (["concrete", delta_path, "--samples", text], "--samples"),
                            (["concrete", delta_path, "--seed", text], "--seed")):
            assert run(argv) == 2
            assert _one_line_error(capsys, field).count(repr(text)) == 1
        for command, field, data in (
            ("analyze", "'dim'", {**DELTA, "dim": text}),
            ("analyze", "'a'", {"dim": 2, "inequalities": [{"a": [text, 0], "b": "1"}, *square]}),
            ("lattice-sum", "'e'", {"basis": unit, "w": unit, "e": [text, 1], "x": [0, 0]}),
        ):
            path = tmp_path / "integer.json"
            path.write_text(json.dumps(data))
            assert run([command, str(path)]) == 2
            assert _one_line_error(capsys, field, "must be an integer").count(repr(text)) == 1
    assert run(["dedekind", "+5", "7"]) == 0
    assert capsys.readouterr().out.strip() == "-1/14"
    path.write_text(json.dumps({"dim": 2, "inequalities": [{"a": ["+1", " 0 "], "b": "1"}, *square]}))
    assert run(["analyze", str(path)]) == 0
    assert "denominator=1 volume=1" in capsys.readouterr().out


def test_every_refusal_is_one_line_with_exit_2(delta_path, tmp_path, monkeypatch, capsys):
    """One refusal path for every command: argparse's errors, a ValueError
    from any layer and a missing key of a lattice-sum problem each exit 2
    with the one stderr line `error: <message>`, and --help exits 0."""
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(
        {"dim": 3, "vertices": [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]}
    ))
    cases = [
        (["verify", delta_path, "--t", "0"], ("--t", "not a positive rational")),
        (["analyze", delta_path, "--flavor", "x"], ("--flavor", "invalid choice")),
        ([], ("required", "command")),
        (["eval", _write_polytope(tmp_path, "delta4"), "--t", "1"], ("no closed form",)),
        (["dedekind", "2", "4"], ("gcd",)),
        (["concrete", str(cube), "--tmax", "x"], ("--tmax", "at least 1")),
    ]
    # bytes that are no text, and arrays nested past the recursion limit
    binary, deep = tmp_path / "binary.json", tmp_path / "deep.json"
    binary.write_bytes(b"\xff\xfe")
    deep.write_text("[" * 10**5 + "]" * 10**5)
    cases += [(["analyze", str(binary)], (str(binary), "utf-8")),
              (["analyze", str(deep)], (str(deep), "recursion"))]
    problem = {"basis": [["1"]], "w": [["1"]], "e": [2], "x": ["1/3"]}
    for key in problem:
        path = tmp_path / f"no_{key}.json"
        path.write_text(json.dumps({k: v for k, v in problem.items() if k != key}))
        cases.append((["lattice-sum", str(path)], (str(path), f"missing '{key}'")))
    for argv, words in cases:
        assert run(argv) == 2
        _one_line_error(capsys, *words)

    def refuse(P, t):
        raise ValueError("refused by a layer below the CLI")

    monkeypatch.setattr(coefficients, "evaluate", refuse)
    assert run(["analyze", delta_path, "--eval", "1"]) == 2
    _one_line_error(capsys, "refused by a layer below the CLI")
    # every sample k / 1 of the cube lies on the boundary of a translate
    monkeypatch.setattr(concrete, "SAMPLE_DEN", 1)
    assert run(["concrete", str(cube), "--tmax", "1", "--samples", "1"]) == 2
    _one_line_error(capsys, "could not sample", "64 draws")
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exit_:
            run(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: eak")


def test_verify_refuses_int64_overflow(tmp_path, capsys):
    # the scan of 200*Delta_3 at t = (q+1)/q would need integers beyond int64
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "dim": 3,
        "vertices": [["0", "0", "0"], ["200", "0", "0"], ["0", "200", "0"], ["0", "0", "200"]],
    }))
    q = 4 * 10**16 + 1
    assert run(["verify", str(path), "--t", f"{q + 1}/{q}"]) == 2
    _one_line_error(capsys, "int64")

"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

from eak.exactval import ExactValue  # noqa: E402
from eak.polytope import Polytope  # noqa: E402


@pytest.fixture
def workdir():
    """A scratch directory inside the benchmark's ignored work area."""
    os.makedirs(run.WORK, exist_ok=True)
    path = tempfile.mkdtemp(dir=run.WORK, prefix="test-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*args) -> str:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_every_workload(trace):
    out = _bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", trace)
    lines = out.splitlines()
    results = json.loads(lines[-1])
    assert set(results) == set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        block = lines[lines.index(next(l for l in lines if l.startswith(f"== {name} "))):]
        for metric, unit in run.END_TO_END_UNITS.items():
            assert any(l.split()[:1] == [metric] and l.endswith(" " + unit) for l in block)
        assert any(l.split()[:2] == ["failed_frac", "0"] and " ratio " in l for l in block)
        assert any(l.split()[:1] == ["results_digest"] for l in block)
        result = results[name]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = LAYER_METRICS if trace == "1" else run.END_TO_END_UNITS
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def _layer_counts(name: str, workdir: str) -> dict:
    """Counts of a traced pass over the first jobs of a workload's list."""
    jobs = workloads.generate(name, 5, workdir)[:3]
    tracer = Tracer()
    tracer.install()
    try:
        for n, job in enumerate(jobs):
            tracer.job = n
            ok, output = workloads.execute(job, workdir)
            assert ok, output
    finally:
        tracer.restore()
    metrics = tracer.metrics()
    return {k: metrics[k] for k, unit in LAYER_METRICS.items() if k in metrics and unit != "s"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_repeat_in_one_process_counts_the_same(name, workdir):
    first = _layer_counts(name, workdir)
    second = _layer_counts(name, workdir)
    assert first == second
    assert first["polytope.builds"] > 0


def test_tracer_restores_entry_points():
    from eak import _kernels, oracle
    from eak.exactval import ExactValue as EV

    before = (oracle.count_points, _kernels.scan_box, vars(EV)["__add__"])
    tracer = Tracer()
    tracer.install()
    assert oracle.count_points is not before[0]
    tracer.restore()
    assert (oracle.count_points, _kernels.scan_box, vars(EV)["__add__"]) == before


def test_reference_matches_known_values():
    delta = Polytope(3, workloads.DELTA)
    count, _ = reference.Reference(delta).values(Fraction(10), angles=False)
    assert count == 286  # binomial(13, 3)
    order = reference.Reference(Polytope(3, workloads.ORDER))
    for t in (1, 2, 3):
        _, angle_sum = order.values(Fraction(t), angles=True)
        assert angle_sum == ExactValue.of(Fraction(t**3, 6))  # criterion 3


def test_tail_percentile():
    typical = [float(i) for i in range(10, 0, -1)]
    assert run.tail(typical, jobs=40) == (8.0, 75.0)  # 10 of 40 jobs beyond
    assert run.tail(typical, jobs=50) == (8.5, 80.0)  # interpolated between entries
    assert run.tail(typical, jobs=8) == (10.0, 100.0)
    assert run.quantile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_refuses_a_tree_without_the_package(workdir):
    copy = os.path.join(workdir, "perfbench")
    os.makedirs(copy)
    for path in glob.glob(os.path.join(BENCH, "*.py")):
        shutil.copy(path, copy)
    proc = subprocess.run(
        [sys.executable, os.path.join(copy, "run.py"), "--workload", "concrete",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

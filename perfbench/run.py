"""The eak benchmark: CLI-shaped workloads, checked outputs, layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of closed-form, ehrhart-oracle, angle-oracle, concrete, or
all.  Run from anywhere; the package is imported from ../src relative to
this file, never from an installed copy.

For each workload the run
  1. times fresh interpreters importing eak.cli and eak.oracle
     (setup_s, the median of several, before and after the loop),
  2. writes the seed's job list as polytope JSON files (untimed),
  3. starts worker.py, which runs the jobs in a closed loop with one
     caller for S seconds, traced when --trace 1,
  4. checks every job's output against paths independent of the code
     under test (untimed), and
  5. prints the metrics by name with units, the results digest and the
     environment, and as its last line one JSON object: with --trace 0
     the end-to-end metrics, with --trace 1 the per-layer metrics.
The full record, and the spans of a traced run, go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")

SETUP_REPS = 8
TAIL_JOBS = 10  # the tail percentile is the highest with this many jobs beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


def measure_setup(reps: int) -> list[tuple[float, float]]:
    """(at reference host speed, as measured) wall times of fresh
    interpreters importing eak.cli and eak.oracle, numpy and mpmath
    included.  Each is scaled by a bare interpreter started just before."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(reps):
        bare, full = (
            _wall([sys.executable, "-c", code], env)
            for code in ("pass", "import eak.cli, eak.oracle")
        )
        times.append((full * speed.SPAWN_REFERENCE_S / bare, full))
    return times


def _wall(argv: list[str], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - start


def quantile(values: list[float], p: float) -> float:
    """The p-quantile of equally weighted values, interpolated linearly
    between the midpoints of their shares."""
    ordered = sorted(values)
    x = min(max(p * len(ordered) - 0.5, 0.0), len(ordered) - 1.0)
    lo = int(x)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (x - lo)


def tail(typical: list[float], jobs: float) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_JOBS of
    the run's jobs beyond it, each list entry at its typical latency."""
    p = 1.0 - TAIL_JOBS / jobs if jobs > TAIL_JOBS else 1.0
    return quantile(typical, p), 100.0 * p


def _commit() -> str:
    """The checkout's git commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "eak", "*.py"))):
        with open(path, "rb") as f:
            h.update(os.path.basename(path).encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    import workloads

    workdir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        # set-up is timed before and after the loop, so that one slow
        # spell of the host does not decide its median
        setup = measure_setup(SETUP_REPS // 2 + 1)[1:]
        jobs = workloads.generate(name, seed, workdir)
        with open(os.path.join(workdir, "jobs.json"), "w") as f:
            json.dump(jobs, f)
        worker = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), workdir,
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=2 * seconds + 90,
        )
        if worker.returncode != 0:
            raise RuntimeError(f"worker exited {worker.returncode}:\n{worker.stderr}")
        with open(os.path.join(workdir, "result.json")) as f:
            result = json.load(f)
        setup += measure_setup(SETUP_REPS - len(setup))

        checker = workloads.Checker(workdir)
        wrong = {}
        for key, output in result["outputs"].items():
            try:
                reason = checker.check(jobs[int(key)], output)
            except Exception as exc:  # unparseable output is a wrong output
                reason = f"unreadable output ({exc!r})"
            if reason is not None:
                wrong[int(key)] = reason
        executions = [(i, ok) for i, _, ok, _ in result["timed"]] + [
            (i, ok) for i, ok in result["untimed"]]
        failed = sum(1 for i, ok in executions if not ok or i in wrong)
        timed = result["timed"]
        raw = [lat for _, lat, _, _ in timed]
        latencies = speed.normalize(raw, [kernel for _, _, _, kernel in timed])
        per_entry = {}
        for (i, _, ok, _), lat in zip(timed, latencies):
            per_entry.setdefault(i, []).append(lat if ok and i not in wrong else None)
        typical = [statistics.median(v) for v in per_entry.values() if None not in v]
        # the job count at reference speed sets the percentile, so that the
        # host's speed does not move it
        jobs_at_reference = seconds * len(latencies) / sum(latencies)
        tail_s, tail_pct = tail(typical, jobs_at_reference) if typical else (0.0, 0.0)
        outputs = result["outputs"]
        complete = all(str(i) in outputs for i in range(len(jobs)))
        digest = "incomplete"
        if complete:
            h = hashlib.sha256()
            for i in range(len(jobs)):
                h.update(outputs[str(i)].encode() + b"\0")
            digest = h.hexdigest()
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "metrics": {
                "setup_s": statistics.median(s for s, _ in setup),
                "jobs_per_s": len(typical) / sum(typical) if typical else 0.0,
                "job_p50_s": statistics.median(typical) if typical else 0.0,
                "job_tail_s": tail_s,
                "peak_rss_mb": result["peak_rss_mb"],
            },
            "failed_frac": failed / len(executions),
            "as_measured": {
                "setup_s": statistics.median(s for _, s in setup),
                "closed_loop_jobs_per_s": len(raw) / result["elapsed"],
                "job_p50_s": statistics.median(raw),
            },
            "tail": {"percentile": tail_pct, "jobs": len(latencies),
                     "jobs_at_reference": jobs_at_reference},
            "timed": timed,
            "attempted": len(executions),
            "failed": failed,
            "results_digest": digest,
            "list_jobs": len(jobs),
            "checks": checker.coverage,
            "failures": {str(i): r for i, r in sorted(wrong.items())},
            "layers": result.get("layers"),
            "env": {
                "seed": seed,
                "commit": _commit(),
                "source_digest": _source_digest(),
                "nproc": os.cpu_count(),
                **result["env"],
            },
        }
        os.makedirs(RESULTS, exist_ok=True)
        stem = os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}")
        with open(stem + ".json", "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        if trace:
            shutil.move(os.path.join(workdir, "spans.jsonl.gz"), stem + ".spans.jsonl.gz")
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(record: dict) -> dict:
    """Print a workload's record; return its result line."""
    from tracing import LAYER_METRICS

    m = record["metrics"]
    traced = ", traced" if record["trace"] else ""
    print(f"== {record['workload']} (seed {record['seed']}, {record['seconds']} s "
          f"closed loop{traced}, 1 caller, {record['list_jobs']} jobs in the list)")
    for key, unit in END_TO_END_UNITS.items():
        print(f"  {key:<12} {m[key]:.6g} {unit}")
    print("  (times at reference host speed; jobs_per_s and job_p50_s take each list "
          "entry at its median latency)")
    print(f"  as measured: {json.dumps(record['as_measured'], sort_keys=True)}")
    tail = record["tail"]
    print(f"  (job_tail_s is p{tail['percentile']:.1f}: {tail['jobs']} jobs ran, "
          f"{tail['jobs_at_reference']:.1f} at reference speed)")
    print(f"  failed_frac  {record['failed_frac']:.6g} ratio "
          f"({record['failed']} of {record['attempted']})")
    print(f"  results_digest {record['results_digest']}")
    print(f"  checked values: {json.dumps(record['checks'], sort_keys=True)}")
    for i, reason in record["failures"].items():
        print(f"  FAILED job {i}: {reason}")
    print(f"  env: {json.dumps(record['env'], sort_keys=True)}")
    if record["trace"]:
        metrics = {k: {"value": record["layers"][k], "unit": u} for k, u in LAYER_METRICS.items()}
        for key, v in metrics.items():
            print(f"  {key:<26} {v['value']:.6g} {v['unit']}")
    else:
        metrics = {k: {"value": m[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {
        "correct": record["failed"] == 0 and record["results_digest"] != "incomplete",
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "eak", "__init__.py")):
        print(f"error: no eak package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace)
        lines[name] = report(record)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

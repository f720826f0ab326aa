"""The workload process: one caller running jobs in a closed loop.

    python3 perfbench/worker.py WORKDIR --seconds S --trace 0|1

Reads WORKDIR/jobs.json (written by run.py) and runs the jobs in list
order, cycling, each starting when the previous one has finished, until
S seconds have passed.  The host-speed kernel of speed.py runs before
every job.  List entries the loop did not reach then run untimed, so
that every entry has an output.

With --trace 1 the loop is traced and runs whole passes over the list;
the per-layer metrics are per pass.  One pass is then replayed untraced:
its outputs must match, and its time gives the tracing overhead.
Writes WORKDIR/result.json (and WORKDIR/spans.jsonl.gz when traced).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import mpmath  # noqa: E402
import numpy  # noqa: E402

import eak.cli  # noqa: E402,F401
import eak.oracle  # noqa: E402,F401
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# Entries not reached in the timed loop get this long to run untimed.
COMPLETION_SECONDS = 60


def _run_job(job, workdir, tracer=None):
    start = time.perf_counter()
    try:
        if tracer is None:
            ok, output = workloads.execute(job, workdir)
        else:
            with tracer.span("job" if job["command"] == "ehrhart" else "cli"):
                ok, output = workloads.execute(job, workdir)
    except Exception:  # a job that raises is a failed job, not a failed run
        ok, output = False, traceback.format_exc()
    return time.perf_counter() - start, ok, output


def _loop(jobs, workdir, seconds, tracer=None):
    """[(list index, latency, ok, kernel time)], outputs by index, and
    the wall time of the jobs.  Traced, only whole passes end the loop."""
    done, outputs = [], {}
    elapsed = 0.0
    while True:
        index = len(done) % len(jobs)
        if elapsed >= seconds and (tracer is None or index == 0):
            return done, outputs, elapsed
        kernel = speed.kernel_s()
        if tracer is not None:
            tracer.job = len(done)
        latency, ok, output = _run_job(jobs[index], workdir, tracer)
        if outputs.setdefault(index, output) != output:
            ok = False  # exact arithmetic: a repeat must print the same
        done.append((index, latency, ok, kernel))
        elapsed += latency


def _kernels_path() -> str:
    try:
        from eak import _kernels
    except ImportError:
        return "unknown"
    enabled = getattr(_kernels, "numba_enabled", None)
    return "numba" if enabled is not None and enabled() else "numpy"


def _traced(jobs, workdir, seconds):
    tracer = Tracer()
    tracer.install()
    try:
        done, outputs, elapsed = _loop(jobs, workdir, seconds, tracer)
    finally:
        tracer.restore()
    passes = len(done) // len(jobs)
    replay, replay_kernels = [], []
    for index, job in enumerate(jobs):
        replay_kernels.append(speed.kernel_s())
        latency, ok, output = _run_job(job, workdir)
        replay.append(latency)
        if not ok or output != outputs[index]:
            done[index] = (*done[index][:2], False, done[index][3])
    traced = speed.normalize([d[1] for d in done], [d[3] for d in done])
    untraced = speed.normalize(replay, replay_kernels)
    layers = {
        k: v if k.endswith("_ratio") else v / passes for k, v in tracer.metrics().items()
    }
    layers["trace.jobs_per_s"] = len(done) / sum(traced)
    layers["trace.overhead"] = sum(traced) / passes / sum(untraced)
    tracer.write_spans(os.path.join(workdir, "spans.jsonl.gz"))
    return done, outputs, elapsed, layers


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workdir")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(args.workdir, "jobs.json")) as f:
        jobs = json.load(f)

    layers = None
    if args.trace:
        done, outputs, elapsed, layers = _traced(jobs, args.workdir, args.seconds)
    else:
        done, outputs, elapsed = _loop(jobs, args.workdir, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    untimed = []
    deadline = time.perf_counter() + COMPLETION_SECONDS
    for index, job in enumerate(jobs):
        if index not in outputs and time.perf_counter() < deadline:
            _, ok, outputs[index] = _run_job(job, args.workdir)
            untimed.append((index, ok))
    result = {
        "timed": done,
        "elapsed": elapsed,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "untimed": untimed,
        "outputs": {str(i): out for i, out in outputs.items()},
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "kernels.path": _kernels_path(),
        },
    }
    with open(os.path.join(args.workdir, "result.json"), "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()

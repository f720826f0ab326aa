"""Per-layer tracing of the eak package from outside it.

A :class:`Tracer` replaces each layer's entry point, at the name its
callers look up, with a wrapper that records a span (name, start, end,
parent span, job id) or bumps a counter.  Spans and counts stay in
memory; :meth:`Tracer.metrics` folds them into the per-layer metrics and
:meth:`Tracer.write_spans` writes them out.  :meth:`Tracer.restore`
puts every original attribute back.  Entry points missing from the
package under test are skipped, so their metrics read 0.

Modules too widely used to wrap (``bernoulli``, ``linalg``, ``lattice``)
are folded into their callers' spans.  ``lattice_sum`` is not exercised.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time

import numpy as np

# (module, attribute path, span name): wrapped as spans.
SPANS = [
    ("eak.polytope", "Polytope.__init__", "polytope.build"),
    ("eak.polytope", "Polytope.volume", "polytope.volume"),
    ("eak.polytope", "Polytope.facets", "polytope.faces"),
    ("eak.polytope", "Polytope.codim2_faces", "polytope.faces"),
    ("eak.local_data", "facet_data", "local_data.facet"),
    ("eak.local_data", "codim2_data", "local_data.codim2"),
    ("eak.coefficients", "QuasiCoefficient.eval", "coefficients.eval"),
    ("eak.coefficients", "dr_sum_fast", "dedekind"),
    ("eak.exactval", "ExactValue.__add__", "exactval.add"),
    ("eak.exactval", "ExactValue.__radd__", "exactval.add"),
    ("eak.oracle", "count_points", "oracle.count"),
    ("eak.oracle", "solid_angle_sum", "oracle.angle_sum"),
    ("eak.oracle", "solid_angle_at", "oracle.classify"),
    ("eak.oracle", "interpolate_coefficients", "oracle.interp"),
    ("eak._kernels", "scan_box", "kernels.scan"),
    ("eak.concrete", "symmetrized_multitiling_level", "concrete.tiling"),
    ("eak.concrete", "is_concrete", "concrete.concrete"),
    ("eak.concrete", "_copy_multiplicity", "concrete.membership"),
]

# Per-layer metric names and units, in the order they are printed.
LAYER_METRICS = {
    "cli.self_s": "s",
    "polytope.builds": "count",
    "polytope.build_s": "s",
    "polytope.volume_s": "s",
    "polytope.faces_s": "s",
    "local_data.facet_builds": "count",
    "local_data.codim2_builds": "count",
    "local_data.s": "s",
    "local_data.distinct_ratio": "ratio",
    "coefficients.evals": "count",
    "coefficients.self_s": "s",
    "dedekind.calls": "count",
    "dedekind.s": "s",
    "dedekind.direct_terms": "count",
    "dedekind.descent_steps": "count",
    "exactval.adds": "count",
    "exactval.add_s": "s",
    "oracle.count_s": "s",
    "oracle.angle_sum_s": "s",
    "oracle.points_classified": "count",
    "oracle.classify_s": "s",
    "oracle.interp_s": "s",
    "kernels.scans": "count",
    "kernels.scan_s": "s",
    "kernels.candidates": "count",
    "kernels.lattice_points": "count",
    "kernels.boundary_points": "count",
    "kernels.hit_ratio": "ratio",
    "kernels.madds": "madds_computed",
    "kernels.bytes": "bytes_computed",
    "concrete.tiling_s": "s",
    "concrete.concrete_s": "s",
    "concrete.images_built": "count",
    "concrete.membership_tests": "count",
    "trace.jobs_per_s": "1/s",
    "trace.overhead": "ratio",
}


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted path, or None."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Spans and counters for one traced pass, recorded in memory."""

    def __init__(self):
        # span: [name, start, end, parent index (-1 for a root), job id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.counts = {
            "dedekind.direct_terms": 0,
            "dedekind.descent_steps": 0,
            "kernels.candidates": 0,
            "kernels.lattice_points": 0,
            "kernels.boundary_points": 0,
            "kernels.madds": 0,
            "kernels.bytes": 0,
        }
        self.local_faces: list[tuple] = []  # (job, kind, face vertex ids)
        self._saved: list[tuple] = []

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _wrap_span(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    def install(self) -> None:
        """Wrap every entry point the package under test has."""
        for module, path, name in SPANS:
            target = _resolve(module, path)
            if target is None:
                continue
            owner, attr = target
            fn = getattr(owner, attr)
            wrapped = self._wrap_span(name, fn)
            if name == "local_data.facet" or name == "local_data.codim2":
                wrapped = self._note_face(name, wrapped)
            elif name == "kernels.scan":
                wrapped = self._note_scan(wrapped)
            self._replace(owner, attr, wrapped)
        self._count("eak.dedekind", "dr_sum_direct", self._note_direct)
        self._count("eak.dedekind", "_reciprocity_rhs", self._note_descent)

    def _replace(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _count(self, module: str, path: str, note) -> None:
        target = _resolve(module, path)
        if target is None:
            return
        owner, attr = target
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            note(*args, **kwargs)
            return fn(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def _note_direct(self, h, k, *rest, **kwargs):
        self.counts["dedekind.direct_terms"] += int(k)

    def _note_descent(self, *args, **kwargs):
        self.counts["dedekind.descent_steps"] += 1

    def _note_face(self, name, fn):
        def wrapper(P, face, *args, **kwargs):
            self.local_faces.append((self.job, name, tuple(face.vertex_ids)))
            return fn(P, face, *args, **kwargs)

        return wrapper

    def _note_scan(self, fn):
        counts = self.counts

        def wrapper(A, C, lo, hi, *args, **kwargs):
            interior, boundary = fn(A, C, lo, hi, *args, **kwargs)
            sides = np.asarray(hi, dtype=np.int64) - np.asarray(lo, dtype=np.int64) + 1
            candidates = int(np.prod(np.maximum(sides, 0), dtype=object))
            rows, dim = np.shape(A)
            counts["kernels.candidates"] += candidates
            counts["kernels.lattice_points"] += int(interior) + len(boundary)
            counts["kernels.boundary_points"] += len(boundary)
            # computed, not measured: one multiply-add per row and coordinate
            # of each candidate, and the int64 candidate coordinates read
            # plus the int64 row products written
            counts["kernels.madds"] += candidates * rows * dim
            counts["kernels.bytes"] += candidates * 8 * (dim + rows)
            return interior, boundary

        return wrapper

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reporting ------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as f:
            for name, start, end, parent, job in self.spans:
                f.write(json.dumps([name, start, end, parent, job]) + "\n")

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, job in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def count(*names):
            return sum(1 for s in spans if s[0] in names)

        def self_time(name):
            return sum(
                s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == name
            )

        def layer_time(*names):
            """Wall time inside spans of these names, nested ones counted once."""
            inside = [False] * len(spans)
            total = 0.0
            for i, (name, start, end, parent, job) in enumerate(spans):
                outer = parent >= 0 and inside[parent]
                inside[i] = outer or name in names
                if name in names and not outer:
                    total += end - start
            return total

        def under(name, ancestor):
            below = [False] * len(spans)
            n = 0
            for i, s in enumerate(spans):
                parent = s[3]
                below[i] = parent >= 0 and (below[parent] or spans[parent][0] == ancestor)
                n += s[0] == name and below[i]
            return n

        builds = len(self.local_faces)
        c = self.counts
        return {
            "cli.self_s": self_time("cli"),
            "polytope.builds": count("polytope.build"),
            "polytope.build_s": layer_time("polytope.build"),
            "polytope.volume_s": layer_time("polytope.volume"),
            "polytope.faces_s": layer_time("polytope.faces"),
            "local_data.facet_builds": count("local_data.facet"),
            "local_data.codim2_builds": count("local_data.codim2"),
            "local_data.s": layer_time("local_data.facet", "local_data.codim2"),
            "local_data.distinct_ratio": (
                len(set(self.local_faces)) / builds if builds else 0.0
            ),
            "coefficients.evals": count("coefficients.eval"),
            "coefficients.self_s": self_time("coefficients.eval"),
            "dedekind.calls": count("dedekind"),
            "dedekind.s": layer_time("dedekind"),
            "dedekind.direct_terms": c["dedekind.direct_terms"],
            "dedekind.descent_steps": c["dedekind.descent_steps"],
            "exactval.adds": count("exactval.add"),
            "exactval.add_s": layer_time("exactval.add"),
            "oracle.count_s": layer_time("oracle.count"),
            "oracle.angle_sum_s": layer_time("oracle.angle_sum"),
            "oracle.points_classified": count("oracle.classify"),
            "oracle.classify_s": layer_time("oracle.classify"),
            "oracle.interp_s": layer_time("oracle.interp"),
            "kernels.scans": count("kernels.scan"),
            "kernels.scan_s": layer_time("kernels.scan"),
            "kernels.candidates": c["kernels.candidates"],
            "kernels.lattice_points": c["kernels.lattice_points"],
            "kernels.boundary_points": c["kernels.boundary_points"],
            "kernels.hit_ratio": (
                c["kernels.lattice_points"] / c["kernels.candidates"]
                if c["kernels.candidates"]
                else 0.0
            ),
            "kernels.madds": c["kernels.madds"],
            "kernels.bytes": c["kernels.bytes"],
            "concrete.tiling_s": layer_time("concrete.tiling"),
            "concrete.concrete_s": layer_time("concrete.concrete"),
            "concrete.images_built": under("polytope.build", "concrete.tiling"),
            "concrete.membership_tests": count("concrete.membership"),
        }

"""Span tracing of luspec's public functions, installed from outside the package.

The tracer replaces selected attributes of the luspec modules with timing
wrappers and restores them on ``uninstall``.  Each wrapper sits on the
attribute its caller looks up: ``closedform`` imports ``exp_sum_field`` and
``exp_sum_gr`` by name, so those names are wrapped in ``closedform`` as well
as in ``cyclo``, and ``CycInt.__rmul__`` is an alias of ``__mul__`` fixed at
class creation, so both slots are wrapped.

Three kinds of wrapper:

* ``SPAN``: one span per call (name, start, end, parent span, job id).
* ``LEAF``: high-frequency calls with no traced callees (``CycInt.__mul__``,
  the exponential sums, ``weil_check``).  They are folded into a call count
  and total time on the enclosing span instead of one span each.
* ``GEN``: a generator (``epsilon_family``).  Its span accumulates only the
  time spent inside ``next()``, so the consumer's work between items is not
  charged to it.

A span's self time is its duration minus the time of its child spans and
folded calls.  Spans stay in memory until ``write`` is called.  Times are read
from the ``clock`` given to the tracer; the benchmark passes one that leaves
out the host-speed sampler's own time (speed.py).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

SPAN, LEAF, GEN = "span", "leaf", "gen"


class Span:
    __slots__ = ("id", "name", "job", "parent", "start", "end", "dur", "child",
                 "folded", "counts")

    def __init__(self, sid, name, job, parent):
        self.id = sid
        self.name = name
        self.job = job
        self.parent = parent
        self.start = self.end = None
        self.dur = 0.0      # time inside the call (for GEN: inside next())
        self.child = 0.0    # time of child spans and folded calls
        self.folded = {}    # name -> [calls, seconds]
        self.counts = {}    # metric name -> count measured at this span

    @property
    def self_time(self) -> float:
        return self.dur - self.child

    def record(self, t0: float) -> dict:
        return {"id": self.id, "name": self.name, "job": self.job,
                "parent": self.parent, "start": self.start - t0,
                "end": self.end - t0, "dur": self.dur, "self": self.self_time,
                "folded": self.folded, "counts": self.counts}


def _vertices(args, result):
    return {"graphs.vertices_built": result.n}


def _dense(args, result):
    # Bytes are computed from the float64 matrix size, not measured.
    return {"oracle.eigensolve_order": result.n,
            "oracle.dense_bytes": 8 * result.n ** 2}


def _points(args, result):
    # One trace evaluation per element of the field or Teichmueller set.
    return {"cyclo.points_evaluated": args[1].q}


def _coeff_products(args, result):
    # Schoolbook product in the power basis: phi(n)^2 coefficient products,
    # or phi(n) for a scalar multiple.  Computed, not measured.
    phi = args[0].spec.phi
    return {"cyclo.mul_coeff_products": phi if isinstance(args[1], int) else phi * phi}


def luspec_targets():
    """(owner, attribute, span name, kind, count function) for every wrapper."""
    from luspec import closedform, cyclo, ff, gr9, graphs, oracle, reps

    return [
        (ff, "ff_make", "ff.field_build", SPAN, None),
        (ff, "quadratic_root_profile", "ff.root_profile", SPAN, None),
        (ff, "cubic_root_profile_even", "ff.root_profile", SPAN, None),
        (gr9, "gr9_make", "gr9.ring_build", SPAN, None),
        (cyclo, "exp_sum_field", "cyclo.exp_sum", LEAF, _points),
        (cyclo, "exp_sum_gr", "cyclo.exp_sum", LEAF, _points),
        (closedform, "exp_sum_field", "cyclo.exp_sum", LEAF, _points),
        (closedform, "exp_sum_gr", "cyclo.exp_sum", LEAF, _points),
        (reps, "exp_sum_field", "cyclo.exp_sum", LEAF, _points),
        (cyclo.CycInt, "__mul__", "cyclo.mul", LEAF, _coeff_products),
        (cyclo.CycInt, "__rmul__", "cyclo.mul", LEAF, _coeff_products),
        (cyclo, "weil_check", "cyclo.weil", LEAF, None),
        (closedform, "spectrum_closed", "closedform.spectrum", SPAN, None),
        (closedform, "epsilon_family", "closedform.family", GEN, None),
        (closedform.SpectrumMultiset, "assemble", "closedform.assemble", SPAN, None),
        (closedform, "lift_to_bipartite", "closedform.lift", SPAN, None),
        (closedform, "representatives", "closedform.representative", SPAN, None),
        (closedform.RepresentativeSet, "representative_of",
         "closedform.representative", SPAN, None),
        (closedform, "fiber_profile", "closedform.fiber", SPAN, None),
        (graphs, "build_gamma", "graphs.build", SPAN, _vertices),
        (graphs, "build_d4", "graphs.build", SPAN, _vertices),
        (graphs, "build_cayley", "graphs.build", SPAN, _vertices),
        (graphs, "connected_components", "graphs.components", SPAN, None),
        (graphs, "cayley_vertex_map", "graphs.cayley_map", SPAN, None),
        (graphs, "girth_at_least", "graphs.girth", SPAN, None),
        (oracle, "numeric_spectrum", "oracle.eigensolve", SPAN, _dense),
        (oracle, "compare_spectra", "oracle.compare", SPAN, None),
        (reps, "conjugacy_class_data", "reps.conjugacy", SPAN, None),
        (reps, "psi_orthogonality", "reps.orthogonality", SPAN, None),
    ]


class Tracer:
    """In-memory span recorder; wrappers are live only between install/uninstall."""

    def __init__(self, targets, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job_id = None
        self.t0 = clock()
        self._next_id = 0
        self._saved = []

    # -- installing wrappers

    def install(self):
        for owner, attr, name, kind, count in self.targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            fn = original.__func__ if isinstance(original, classmethod) else original
            wrapped = self._wrap(fn, name, kind, count)
            if isinstance(original, classmethod):
                wrapped = classmethod(wrapped)
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, kind, count):
        tracer = self
        if kind == LEAF:
            def wrapper(*args, **kwargs):
                return tracer._leaf(name, fn, count, args, kwargs)
        elif kind == GEN:
            def wrapper(*args, **kwargs):
                return tracer._gen(name, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                return tracer._span(name, fn, count, args, kwargs)
        return functools.wraps(fn)(wrapper)

    # -- recording

    def _open(self, name) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(self._next_id, name, self.job_id, parent)
        self._next_id += 1
        return span

    def _close(self, span: Span, t0: float, t1: float):
        if span.start is None:
            span.start = t0
        span.end = t1
        span.dur += t1 - t0
        if self.stack:
            self.stack[-1].child += t1 - t0

    def _span(self, name, fn, count, args, kwargs):
        span = self._open(name)
        self.stack.append(span)
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            self.stack.pop()
            self._close(span, t0, t1)
            self.spans.append(span)
        if count is not None:
            span.counts.update(count(args, result))
        return result

    def _leaf(self, name, fn, count, args, kwargs):
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = self.clock() - t0
            parent = self.stack[-1]
            parent.child += dt
            entry = parent.folded.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += dt
        if count is not None:
            for key, n in count(args, result).items():
                parent.counts[key] = parent.counts.get(key, 0) + n
        return result

    def _gen(self, name, it):
        """Span over ``epsilon_family``: counts the classes it yields and the
        distinct sums among them (the second item of each class)."""
        span = self._open(name)
        distinct = set()
        span.counts["closedform.classes"] = 0
        try:
            while True:
                self.stack.append(span)
                t0 = self.clock()
                try:
                    item = next(it)
                except StopIteration:
                    break
                finally:
                    t1 = self.clock()
                    self.stack.pop()
                    self._close(span, t0, t1)
                span.counts["closedform.classes"] += 1
                distinct.add(item[1])
                yield item
        finally:
            span.counts["closedform.distinct_values"] = len(distinct)
            self.spans.append(span)

    @contextlib.contextmanager
    def job(self, job_id: str, name: str):
        """Root span of one job; ``name`` gives the layer charged with its self time."""
        self.job_id = job_id
        span = self._open(name)
        self.stack.append(span)
        t0 = self.clock()
        try:
            yield span
        finally:
            t1 = self.clock()
            self.stack.pop()
            self._close(span, t0, t1)
            self.spans.append(span)
            self.job_id = None

    # -- reporting

    def write(self, path, header: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fp:
            fp.write(json.dumps(header) + "\n")
            for span in self.spans:
                fp.write(json.dumps(span.record(self.t0)) + "\n")


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def totals(spans) -> dict:
    """Self time per span name and per layer, folded-call times and counts.

    Summed over ``spans``; every second of a root span lands in exactly one
    ``<layer>.self_s`` entry.
    """
    out = defaultdict(float)
    for span in spans:
        out[f"{span.name}_s"] += span.self_time
        out[f"{layer(span.name)}.self_s"] += span.self_time
        for name, (calls, seconds) in span.folded.items():
            out[f"{name}_s"] += seconds
            out[f"{name}_calls"] += calls
            out[f"{layer(name)}.self_s"] += seconds
        for key, n in span.counts.items():
            out[key] += n
    return out

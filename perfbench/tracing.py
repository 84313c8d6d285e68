"""Span recorder for the traced benchmark run.

Wrappers are installed around the calls into each layer's public functions,
at the names the consuming modules look them up by (``visibility`` calls
``refine_to_depth`` through its own module globals, so the wrapper goes
there). Every wrapped call records one span: name, start, end, parent span
and request id. Spans stay in memory in flat arrays and are written out once
at the end. Counts are recorded at the same boundaries, so ratios such as
parts-out over parts-in are measured where the work happens.

Counting work runs inside its own ``trace.count`` span, so it is charged to
the tracer and not to the program layer that was being measured.
"""

from __future__ import annotations

import builtins
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("exact", "cantor", "visibility", "slices", "gds", "render", "cli",
          "bench", "trace")

SPECTRAL_MAX_ITER = 200_000  # default iteration cap of gds.spectral_radius


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Recorder:
    """In-memory span store plus the counters recorded next to the spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[int] = []
        self.request_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.cover_keys: list[tuple] = []
        self._restore: list[tuple] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float = 1) -> None:
        self.counters[key] += value

    def peak(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    # -- installation -------------------------------------------------------

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a recording wrapper; a missing name is skipped."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        nid = self.name_id(name)
        count_id = self.name_id("trace.count")

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                cidx = self.open(count_id)
                try:
                    count(self, args, kwargs, result)
                finally:
                    self.close(cidx)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def wrap_interval_set(self, exact_module) -> None:
        """Record every IntervalSet construction with its parts in and out."""
        cls = getattr(exact_module, "IntervalSet", None)
        if cls is None:
            return
        init = cls.__init__
        nid = self.name_id("exact.IntervalSet")
        count_id = self.name_id("trace.count")

        def traced_init(obj, intervals=()):
            idx = self.open(nid)
            try:
                # the input is often a generator; consume it inside the span,
                # as the untraced constructor does
                intervals = list(intervals)
                init(obj, intervals)
            finally:
                self.close(idx)
            cidx = self.open(count_id)
            parts = getattr(obj, "parts", ())
            self.add("exact.IntervalSet.parts_in", len(intervals))
            self.add("exact.IntervalSet.parts_out", len(parts))
            if parts:
                self.peak("exact.max_endpoint_bits",
                          max(max(_bits(p.lo), _bits(p.hi)) for p in parts))
            self.close(cidx)

        cls.__init__ = traced_init
        self._restore.append((cls, "__init__", init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self, scale=None) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name totals of self time and call counts.

        Self time is a span's duration minus the time its child spans cover.
        The program runs in one thread, so child spans never overlap and the
        covered time is the sum of their durations. `scale[r]`, when given,
        multiplies the times of request r's spans.
        """
        start, end, parent = self.start, self.end, self.parent
        own = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        totals = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for nid, t, r in zip(self.name, own, self.request):
            totals[nid] += t * (scale[r] if scale is not None and r >= 0 else 1.0)
            calls[nid] += 1
        return (dict(zip(self.names, totals)), dict(zip(self.names, calls)))

    def total(self, name: str) -> float:
        """Summed duration of the spans called `name`, children included."""
        nid = self._ids.get(name)
        return sum(e - s for n, s, e in zip(self.name, self.start, self.end) if n == nid)

    def write(self, path) -> None:
        """Write every span as one tab-separated line, names first."""
        import gzip
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# names\t" + "\t".join(self.names) + "\n")
            fh.write("# name\tstart\tend\tparent\trequest\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.request):
                fh.write("%d\t%.9f\t%.9f\t%d\t%d\n" % row)


# -- counters recorded at the wrapped boundaries ---------------------------------

def _count_refine(rec, args, kwargs, result):
    rec.add("cantor.intervals_enumerated", len(result))


def _count_cover(rec, args, kwargs, result):
    lam = args[0] if args else kwargs.get("lam")
    n = args[1] if len(args) > 1 else kwargs.get("n")
    rec.cover_keys.append((lam, n))
    rec.add("visibility.cover_parts", len(result))


def _count_query(rec, args, kwargs, result):
    status = getattr(getattr(result, "status", None), "value", None)
    if status != "UnknownAtDepth":
        rec.add("visibility.decided")


def _count_orbit(rec, args, kwargs, result):
    visited = getattr(result, "visited", ())
    rec.add("slices.orbit_nodes", len(visited))
    if getattr(result, "saturated", False):
        rec.add("slices.orbit_saturated")
    if visited:
        rec.peak("slices.orbit_max_bits", max(_bits(p) for p in visited))


def _count_survivor(rec, args, kwargs, result):
    rec.add("slices.survivor_parts", len(result))


def _count_spectral(rec, args, kwargs, result):
    iterations = getattr(result, "iterations", 0)
    rec.add("gds.spectral_iterations", iterations)
    cap = kwargs.get("max_iter", args[2] if len(args) > 2 else SPECTRAL_MAX_ITER)
    if iterations >= cap:
        rec.add("gds.spectral_capped")


def _count_gds(rec, args, kwargs, result):
    rec.add("gds.states", len(getattr(result, "states", ())))
    rec.add("gds.edges", len(getattr(result, "edges", ())))


# (consuming module, name looked up there, span name, counter)
CALL_SITES = (
    ("visibility", "refine_to_depth", "cantor.refine_to_depth", _count_refine),
    ("slices", "refine_to_depth", "cantor.refine_to_depth", _count_refine),
    ("visibility", "endpoint_rank", "cantor.endpoint_rank", None),
    ("cli", "basic_intervals", "cantor.basic_intervals", None),
    ("visibility", "interval_quotient", "exact.interval_quotient", None),
    ("visibility", "affine_image", "exact.affine_image", None),
    ("visibility", "quotient_core_cover", "visibility.quotient_core_cover", _count_cover),
    ("visibility", "visible_query", "visibility.visible_query", _count_query),
    ("visibility", "visible_set", "visibility.visible_set", None),
    ("visibility", "box_count", "visibility.box_count", None),
    ("gds", "box_dim_estimate", "visibility.box_dim_estimate", None),
    ("slices", "build_projection_ifs", "slices.build_projection_ifs", None),
    ("slices", "orbit_search", "slices.orbit_search", _count_orbit),
    ("gds", "prop1_check", "slices.prop1_check", None),
    ("gds", "prop2_check", "slices.prop2_check", None),
    ("gds", "survivor_cover", "slices.survivor_cover", _count_survivor),
    ("slices", "coding_count", "slices.coding_count", None),
    ("slices", "slice_count_2d", "slices.slice_count_2d", None),
    ("gds", "build_gds", "gds.build_gds", _count_gds),
    ("gds", "gds_from_dynamics", "gds.gds_from_dynamics", None),
    ("gds", "spectral_radius", "gds.spectral_radius", _count_spectral),
    ("gds", "gds_dimension", "gds.gds_dimension", None),
    ("gds", "univoque_dimension_estimate", "gds.univoque_dimension_estimate", None),
    ("cli", "svg_interval_sets", "render.svg_interval_sets", None),
)


def install(rec: Recorder) -> None:
    """Wrap every call site listed in CALL_SITES, plus IntervalSet construction.

    Only modules that are already imported are wrapped. Importing the others
    here would take their import time out of the spans that pay it when the
    program loads them lazily.
    """
    for mod, attr, name, count in CALL_SITES:
        module = sys.modules.get(f"cantorvis.{mod}")
        if module is not None:
            rec.wrap(module, attr, name, count)
    exact = sys.modules.get("cantorvis.exact")
    if exact is not None:
        rec.wrap_interval_set(exact)


def time_first_import(rec: Recorder, package: str, name: str) -> None:
    """Record the first import of `package`, wherever it happens, as a span.

    Hooks ``builtins.__import__`` for the rest of the process: the import
    statement that first loads the package runs inside a span called `name`.
    """
    real_import = builtins.__import__
    nid = rec.name_id(name)

    def hooked(target, globals=None, locals=None, fromlist=(), level=0):
        if level == 0 and package not in sys.modules and target.partition(".")[0] == package:
            idx = rec.open(nid)
            try:
                return real_import(target, globals, locals, fromlist, level)
            finally:
                rec.close(idx)
        return real_import(target, globals, locals, fromlist, level)

    builtins.__import__ = hooked

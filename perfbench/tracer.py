"""Per-layer tracing from outside the package.

`Tracer.install()` wraps public functions of every layer module.  Many
modules bind imported names directly (`from .trails import calculus,
enumerate_routes`), so a wrapper replaces the original object under every
name, in every `gentleflow` module namespace that holds it; methods are
wrapped on their class.  Three kinds of wrapper:

- span: one span per call, (id, name, start, end, parent id, self time,
  size of the result), kept in memory and written out with the report;
- rollup: timed like a span, but hot leaf calls (kissing, 200k calls per
  band-stable command) are summed per (name, parent span) instead of
  stored one by one;
- count: a bare call counter, for methods called once per walk step.

A span's self time is its duration minus the time of the spans and rollups
directly below it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from gentleflow import cli, complexes, dag, flows, polyhedra, quiver, trails

LAYERS = {"quiver": quiver, "trails": trails, "flows": flows,
          "complexes": complexes, "polyhedra": polyhedra, "dag": dag, "cli": cli}

SPANS = {
    "quiver": ["parse_quiver_file", "validate_gentle", "fringe", "find_pairing",
               "is_representation_finite"],
    "trails": ["enumerate_routes", "enumerate_bands", "elementary_routes",
               "elementary_bands", "straight_routes"],
    "flows": ["Flow.__init__", "decompose_bundle", "decompose_vortex", "blank_spaces",
              "trace_interval"],
    "complexes": ["bending_route_universe", "band_universe", "maximal_cliques",
                  "maximal_bundles", "band_stable_cliques"],
    "polyhedra": ["turbulence_presentation", "g_polyhedron_presentation", "g_facets"],
    "dag": ["parse_framed_graph", "to_fringed_quiver", "dag_decompose", "dag_trace_interval"],
    "cli": ["main"],
}
ROLLUPS = {"trails": ["TrailCalculus.kiss", "TrailCalculus.tops_bottoms"]}
COUNTS = {"quiver": ["FringedQuiver.string_continuations"], "trails": ["Route.of"]}


def span_name(layer: str, attr: str) -> str:
    """`flows.Flow.__init__` is reported as `flows.Flow`, methods without their class."""
    if attr.endswith(".__init__"):
        attr = attr[: -len(".__init__")]
    elif attr.startswith("TrailCalculus.") or attr.startswith("FringedQuiver."):
        attr = attr.split(".", 1)[1]
    return f"{layer}.{attr}"


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "gentleflow" or name.startswith("gentleflow."))]


class Tracer:
    def __init__(self, cmd_id: str):
        self.cmd = cmd_id
        self.spans: list[tuple] = []
        self.rollups: dict[tuple[str, int], list] = {}
        self.counts: Counter = Counter()
        self.useful: dict[str, set] = {"flows": set(), "dag": set()}
        self._stack = [[0, 0.0]]      # [span id, time of direct children]
        self._next_id = 1
        self._sizes = {
            "trails.enumerate_routes": len, "trails.enumerate_bands": len,
            "complexes.bending_route_universe": len, "complexes.maximal_cliques": len,
            "complexes.maximal_bundles": len, "complexes.band_stable_cliques": len,
            "flows.trace_interval": self._trace_steps("flows"),
            "dag.dag_trace_interval": self._trace_steps("dag"),
        }

    def _trace_steps(self, layer):
        useful = self.useful[layer]

        def steps(result):
            mt, _interval, length = result
            if mt is None:
                return 0
            if length > 0:
                useful.add(mt.trail)
            return len(mt.walk)
        return steps

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        size = self._sizes.get(name)

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0]
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                stack[-1][1] += t1 - t0
                spans.append((sid, name, t0, t1, parent, t1 - t0 - frame[1],
                              size(out) if ok and size else None))
        return wrapper

    def _rollup(self, name, fn):
        stack, rollups, clock = self._stack, self.rollups, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0]
            frame = [parent, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                stack[-1][1] += d
                acc = rollups.get((name, parent))
                if acc is None:
                    acc = rollups[(name, parent)] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += d
                acc[2] += d - frame[1]
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        for table, make in ((SPANS, self._span), (ROLLUPS, self._rollup), (COUNTS, self._count)):
            for layer, attrs in table.items():
                for attr in attrs:
                    self._wrap(LAYERS[layer], attr, span_name(layer, attr), make, modules)

    def _wrap(self, module, attr, name, make, modules) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(make(name, raw.__func__)))
            else:
                setattr(cls, meth, make(name, raw))
            return
        original = getattr(module, attr)
        wrapped = make(name, original)
        bound = 0
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{name}: no module binds the original function")

    # -- output ---------------------------------------------------------------

    def report(self) -> dict:
        return {
            "cmd": self.cmd,
            "spans": self.spans,
            "rollups": [[name, parent, *acc] for (name, parent), acc in self.rollups.items()],
            "counts": dict(self.counts),
            "useful_trails": {layer: len(s) for layer, s in self.useful.items()},
        }

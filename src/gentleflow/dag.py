"""Amply framed directed graphs and the bridge to paired fringed quivers.

A full directed graph with edge labels in {1, 2} realizing the framing (and
with every oriented cycle bilabelled) corresponds, when convenient and gently
framed, to a paired fringed quiver: 1-edges keep their direction, 2-edges
flip, and relations are the mixed-label compositions.  A flow on the graph
is a flow on that quiver, traced by the same kernel.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .flows import Flow, decompose_bundle, trace_interval
from .quiver import (DomainError, FringedQuiver, StructuralError, Value, _checked_id, _strip_comment,
                     cyclic_core, incidence)
from .trails import Band, SignedArrow, Trail, TrailUniverse


class FramedDirectedGraph(Value):
    vertices: dict[str, str]            # id -> "source" | "sink" | "internal"
    edges: dict[str, tuple[str, str]]   # id -> (tail, head)
    labels: dict[str, int]              # psi: id -> 1 | 2

    def __init__(self, vertices, edges, labels):
        self.__dict__.update(vertices=vertices, edges=edges, labels=labels, _key=(vertices, edges, labels))

    @cached_property
    def _incidence(self):
        return incidence(self.edges)

    @cached_property
    def trail_universe(self) -> TrailUniverse:
        """The routes and bands of g's flows, as walks of edges."""
        return TrailUniverse(self.edges)

    def edges_in(self, v: str) -> list[str]:
        return self._incidence[0].get(v, [])

    def edges_out(self, v: str) -> list[str]:
        return self._incidence[1].get(v, [])

    def check_structure(self) -> None:
        for e, (t, h) in self.edges.items():
            if t not in self.vertices or h not in self.vertices:
                raise StructuralError(f"edge {e} has a dangling endpoint")
            if self.labels.get(e) not in (1, 2):
                raise StructuralError(f"edge {e} needs a label in {{1, 2}}")
        for v, kind in self.vertices.items():
            if kind not in ("source", "sink", "internal"):
                raise StructuralError(f"vertex {v} has unknown kind {kind!r}")

    def is_acyclic(self, label: int | None = None) -> bool:
        """No oriented cycle (of `label`-edges only, when a label is given)."""
        return not cyclic_core(self.vertices, lambda v: [
            self.edges[e][1] for e in self.edges_out(v) if label in (None, self.labels[e])])


def validate_framed(g: FramedDirectedGraph) -> list[str]:
    """Violations of the amply-framed axioms (empty list = amply framed)."""
    g.check_structure()
    violations = []
    for v, kind in g.vertices.items():
        ins, outs = g.edges_in(v), g.edges_out(v)
        actual = "source" if not ins else "sink" if not outs else "internal"
        if kind != actual:
            violations.append(f"vertex {v} declared {kind} but is {actual}")
        if actual == "internal":
            if len(ins) != 2 or len(outs) != 2:
                violations.append(f"internal vertex {v} is not full (in={len(ins)}, out={len(outs)})")
            else:
                if {g.labels[e] for e in ins} != {1, 2}:
                    violations.append(f"in-edges of {v} do not realize the framing")
                if {g.labels[e] for e in outs} != {1, 2}:
                    violations.append(f"out-edges of {v} do not realize the framing")
    for label in (1, 2):
        if not g.is_acyclic(label):
            violations.append(f"oriented cycle using only {label}-edges")
    return violations


def is_convenient(g: FramedDirectedGraph) -> bool:
    return all(len(g.edges_in(v)) + len(g.edges_out(v)) == 1
               for v, kind in g.vertices.items() if kind != "internal")


def is_gently_framed(g: FramedDirectedGraph) -> bool:
    return not any(g.vertices[t] == "source" and g.vertices[h] == "sink"
                   for _e, (t, h) in g.edges.items())


def make_convenient(g: FramedDirectedGraph) -> FramedDirectedGraph:
    """Split every multi-edge source/sink into one vertex per incident edge.

    New vertices are named ``old@edge`` so results can be mapped back (with
    more ``@`` where that name is already taken).
    """
    taken = set(g.vertices)
    vertices = {v: k for v, k in g.vertices.items() if k == "internal"}

    def end(v: str, e: str) -> str:
        if g.vertices[v] != "internal" and len(g.edges_out(v)) + len(g.edges_in(v)) > 1:
            at = "@"
            while f"{v}{at}{e}" in taken:
                at += "@"
            v2 = f"{v}{at}{e}"
            taken.add(v2)
            vertices[v2] = g.vertices[v]
            return v2
        vertices[v] = g.vertices[v]
        return v

    edges = {e: (end(t, e), end(h, e)) for e, (t, h) in g.edges.items()}
    return FramedDirectedGraph(vertices, edges, dict(g.labels))


def to_fringed_quiver(g: FramedDirectedGraph) -> tuple[FringedQuiver, dict[str, int]]:
    """The fringed quiver of the convenient copy of an amply framed graph
    without source-to-sink edges, and the transported pairing (see
    `fringed_quiver`).

    Only g is validated: make_convenient splits a source (sink) with k edges
    into k sources (sinks) with one edge each and drops edgeless ones, which
    keeps every internal vertex, label and one-label cycle, so the copy is
    convenient and keeps g's amply-framed verdict.
    """
    bad = validate_framed(g)
    if bad:
        raise DomainError("; ".join(bad))
    g = make_convenient(g)
    if not is_gently_framed(g):
        raise DomainError("graph is not gently framed (source-to-sink edge)")
    return fringed_quiver(g), dict(g.labels)


def fringed_quiver(g: FramedDirectedGraph) -> FringedQuiver:
    """Keep 1-edges, reverse 2-edges; relations are the mixed-label pairs.

    Edge and vertex ids are preserved.  Every convenient amply framed graph
    has one, source-to-sink edges included.

    Not validated: both callers, to_fringed_quiver and DagFlow, pass
    make_convenient of a graph with validate_framed empty, which is valid:
    a fringe vertex (source or sink) has one arrow; an internal v with
    k-labelled in- and out-edges ik, ok (no loops: one-label cycles) has
    arrows i1, o2 in, i2, o1 out and relations (i1, i2), (o2, o1); a
    relation-free composite keeps the label, so a relation-free oriented
    cycle would be a one-label cycle of g.
    """
    arrows = {}
    for e, (t, h) in g.edges.items():
        arrows[e] = (t, h) if g.labels[e] == 1 else (h, t)
    internal = tuple(sorted(v for v, k in g.vertices.items() if k == "internal"))
    fringe = tuple(sorted(v for v, k in g.vertices.items() if k != "internal"))

    ins, outs = incidence(arrows)
    relation_pairs = {}
    for v in internal:
        pairs = sorted((a, b) for a in ins.get(v, []) for b in outs.get(v, [])
                       if g.labels[a] != g.labels[b])
        if len(pairs) != 2:
            raise DomainError(f"vertex {v} does not produce two relations")
        relation_pairs[v] = (pairs[0], pairs[1])

    return FringedQuiver(internal, fringe, arrows, relation_pairs)


def from_paired(f: FringedQuiver, psi: dict[str, int]) -> FramedDirectedGraph:
    """The directed flow-graph of a paired fringed quiver: 1-arrows keep their
    direction, 2-arrows flip.  Acyclic exactly when f is representation-finite."""
    for a in f.arrows:
        if psi.get(a) not in (1, 2):
            raise DomainError(f"pairing does not label arrow {a}")
    edges = {}
    for a, (t, h) in f.arrows.items():
        edges[a] = (t, h) if psi[a] == 1 else (h, t)
    ins, outs = incidence(edges)
    vertices = {}
    for v in list(f.internal_vertices) + list(f.fringe_vertices):
        vertices[v] = "source" if v not in ins else "sink" if v not in outs else "internal"
    g = FramedDirectedGraph(vertices, edges, dict(psi))
    bad = validate_framed(g)
    if bad:
        raise DomainError("pairing does not induce an amply framed graph: " + "; ".join(bad))
    return g


# -- flows on framed directed graphs -------------------------------------------

class DagFlow(Flow):
    """A flow on a framed graph g: a flow on the fringed quiver of g, whose
    arrows are the edges of g.  Conservation at an internal vertex of g then
    reads "in = out", and g's flows are traced by the quiver kernel.  A g
    that is not amply framed is a DomainError."""

    def __init__(self, g: FramedDirectedGraph, values: dict[str, Fraction] | None = None):
        violations = validate_framed(g)
        if violations:
            raise DomainError("; ".join(violations))
        self.graph = g
        super().__init__(fringed_quiver(make_convenient(g)), values)

    def start(self, e: str) -> SignedArrow:
        """Edge e in g's orientation: the arrow e for a 1-edge, e^-1 for a 2-edge."""
        return (e, 1 if self.graph.labels[e] == 1 else -1)


def dag_trace_interval(F: DagFlow, e: str, c: Fraction):
    """The trace of edge e of g at value c, in g's orientation."""
    return trace_interval(F, F.start(e), c)


def dag_decompose(F: DagFlow) -> dict[Trail, Fraction]:
    """Unique positive clique (plus band, when cyclic) combination of a flow.

    Each trail is read in g's orientation, as a walk of edges each with sign
    +1: a traced trail runs along g, so its canonical walk is either that
    orientation or its inverse.
    """
    u = F.graph.trail_universe
    out = {}
    for t, x in decompose_bundle(F).coefficients.items():
        walk = t.walk if t.walk[0] == F.start(t.walk[0][0]) else reversed(t.walk)
        word = u.word(tuple((e, 1) for e, _s in walk))
        out[u.band(word) if isinstance(t, Band) else u.route(word)] = x
    return out


# -- framed-graph file format ------------------------------------------------------

def parse_framed_graph(text: str) -> FramedDirectedGraph:
    """Lines: ``vertex <id> [source|sink]`` and ``edge <id>: <u> -> <v> label <1|2>``."""
    vertices: dict[str, str] = {}
    edges: dict[str, tuple[str, str]] = {}
    labels: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] not in ("vertex", "edge"):
            raise StructuralError(f"line {ln}: unknown directive {parts[0]!r}")
        if len(parts) not in ((2, 3) if parts[0] == "vertex" else (7,)):
            raise StructuralError(f"line {ln}: malformed line {raw!r}")
        name = _checked_id(ln, parts[1].rstrip(":")) if parts[0] == "edge" else parts[1]
        if name in (edges if parts[0] == "edge" else vertices):
            raise StructuralError(f"line {ln}: duplicate {parts[0]} id {name}")
        if parts[0] == "vertex":
            vertices[name] = parts[2] if len(parts) == 3 else "internal"
            continue
        if parts[3] != "->" or parts[5] != "label":
            raise StructuralError(f"line {ln}: expected 'edge id: u -> v label k'")
        try:
            labels[name] = int(parts[6])
        except ValueError:
            raise StructuralError(f"line {ln}: malformed line {raw!r}") from None
        edges[name] = (parts[2], parts[4])
    g = FramedDirectedGraph(vertices, edges, labels)
    g.check_structure()
    return g


def serialize_framed_graph(g: FramedDirectedGraph) -> str:
    lines = []
    for v, kind in sorted(g.vertices.items()):
        lines.append(f"vertex {v}" + (f" {kind}" if kind != "internal" else ""))
    for e, (t, h) in sorted(g.edges.items()):
        lines.append(f"edge {e}: {t} -> {h} label {g.labels[e]}")
    return "\n".join(lines) + "\n"

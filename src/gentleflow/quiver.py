"""Gentle bound quivers and fringed quivers.

A gentle bound quiver has at most two arrows in/out of every vertex, length-two
monomial relations, and at every vertex each arrow has at most one relation
partner and at most one composition partner that is not a relation.  A fringed
quiver is the degree-completion: every internal vertex has in- and out-degree
exactly two, every fringe vertex carries a single arrow, and the relations at
each internal vertex pair the two incoming with the two outgoing arrows.
"""

from __future__ import annotations

from functools import cached_property


class StructuralError(ValueError):
    """Input is not even syntactically a quiver (bad ids, dangling endpoints...)."""


class DomainError(ValueError):
    """Operation contract violated (unpaired quiver, bad flow, unknown trail...)."""


class Value:
    """A value class: its fields are its annotated names.  __init__ puts them
    in ``__dict__`` with ``_key``, the tuple that == (class for class) and
    hash compare, written out as that is fastest to build (a test checks
    it); repr lists them; assignment is refused.  No command loads the
    standard library's record decorator: it cost 20 ms of start-up."""

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in type(self).__annotations__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of {type(self).__name__} is read-only")

    __delattr__ = __setattr__


class Record(Value):
    """A mutable Value: == compares the current fields, and there is no hash."""

    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None
    _key = property(lambda self: tuple(getattr(self, n) for n in type(self).__annotations__))


def incidence(edges: dict[str, tuple[str, str]]) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """(ins, outs): per node, the sorted ids of the edges entering and leaving it.

    Nodes without edges have no entry; lists are shared, so callers copy
    before changing one.
    """
    ins: dict[str, list[str]] = {}
    outs: dict[str, list[str]] = {}
    for e in sorted(edges):
        t, h = edges[e]
        outs.setdefault(t, []).append(e)
        ins.setdefault(h, []).append(e)
    return ins, outs


def cyclic_core(nodes, succ) -> set:
    """Nodes on an oriented cycle of the graph given by succ(node): those in a
    strongly connected component of two or more nodes, or with a self-loop.

    Tarjan's algorithm with an explicit stack, so no depth limit applies.
    """
    index: dict = {}
    low: dict = {}
    stack: list = []
    onstack: set = set()
    core: set = set()
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            node, it = work[-1]
            for w in it:
                if w == node:
                    core.add(node)  # a self-loop
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ(w))))
                    break
                if w in onstack:
                    low[node] = min(low[node], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while not comp or comp[-1] != node:
                        comp.append(stack.pop())
                        onstack.discard(comp[-1])
                    if len(comp) > 1:
                        core.update(comp)
    return core


class _Incidence:
    """Arrows in and out of each vertex, indexed on first use (a plain mixin: no fields)."""

    @cached_property
    def _incidence(self):
        return incidence(self.arrows)

    def arrows_out(self, v: str) -> list[str]:
        return self._incidence[1].get(v, [])

    def arrows_in(self, v: str) -> list[str]:
        return self._incidence[0].get(v, [])


class GentleQuiver(_Incidence, Value):
    vertices: tuple[str, ...]
    arrows: dict[str, tuple[str, str]]          # id -> (tail, head)
    relations: frozenset[tuple[str, str]]       # ordered pairs (a, b), h(a) = t(b)

    def __init__(self, vertices, arrows, relations):
        self.__dict__.update(vertices=vertices, arrows=arrows, relations=relations,
                             _key=(vertices, arrows, relations))

    def check_structure(self) -> None:
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise StructuralError("duplicate vertex id")
        for a, (t, h) in self.arrows.items():
            if t not in seen or h not in seen:
                raise StructuralError(f"arrow {a} has a dangling endpoint")
        for a, b in sorted(self.relations):
            if a not in self.arrows or b not in self.arrows:
                raise StructuralError(f"relation {a} {b} uses an unknown arrow")
            if self.arrows[a][1] != self.arrows[b][0]:
                raise StructuralError(f"relation {a} {b} between non-composable arrows")


def validate_gentle(q: GentleQuiver) -> list[str]:
    """Return all violated gentle-algebra axioms; an empty list means valid.

    Raises StructuralError for malformed input (that is not a validation
    outcome, it is a broken file).
    """
    q.check_structure()
    violations = []
    for v in q.vertices:
        if len(q.arrows_in(v)) > 2:
            violations.append(f"vertex {v} has in-degree > 2")
        if len(q.arrows_out(v)) > 2:
            violations.append(f"vertex {v} has out-degree > 2")
    for a in sorted(q.arrows):
        t, h = q.arrows[a]
        succ = q.arrows_out(h)
        strings = [b for b in succ if (a, b) not in q.relations]
        rels = [b for b in succ if (a, b) in q.relations]
        if len(strings) > 1:
            violations.append(f"arrow {a} has two relation-free continuations {strings}")
        if len(rels) > 1:
            violations.append(f"arrow {a} has two relation continuations {rels}")
        pred = q.arrows_in(t)
        pred_strings = [b for b in pred if (b, a) not in q.relations]
        pred_rels = [b for b in pred if (b, a) in q.relations]
        if len(pred_strings) > 1:
            violations.append(f"arrow {a} has two relation-free predecessors {pred_strings}")
        if len(pred_rels) > 1:
            violations.append(f"arrow {a} has two relation predecessors {pred_rels}")
    # arrow a -> b when ab is composable and not a relation
    if cyclic_core(q.arrows, lambda a: [b for b in q.arrows_out(q.arrows[a][1])
                                        if (a, b) not in q.relations]):
        violations.append("oriented relation-free cycle (algebra is infinite-dimensional)")
    return violations


class FringedQuiver(_Incidence, Value):
    """A fringed quiver together with its relation pairs at each internal vertex.

    ``relation_pairs[v]`` holds the two ordered pairs ((a1, a2), (b1, b2)) that
    are relations at v; {a1, b1} are the incoming and {a2, b2} the outgoing
    arrows of v, so conservation of flow at v reads F(a1)+F(a2) = F(b1)+F(b2).
    """

    internal_vertices: tuple[str, ...]
    fringe_vertices: tuple[str, ...]
    arrows: dict[str, tuple[str, str]]
    relation_pairs: dict[str, tuple[tuple[str, str], tuple[str, str]]]

    def __init__(self, internal_vertices, fringe_vertices, arrows, relation_pairs):
        self.__dict__.update(internal_vertices=internal_vertices, fringe_vertices=fringe_vertices,
                             arrows=arrows, relation_pairs=relation_pairs,
                             _key=(internal_vertices, fringe_vertices, arrows, relation_pairs))

    # -- the index, built on first use (so malformed input reaches validate) --

    @cached_property
    def _internal(self) -> frozenset[str]:
        return frozenset(self.internal_vertices)

    @cached_property
    def relations(self) -> frozenset[tuple[str, str]]:
        return frozenset(p for pair in self.relation_pairs.values() for p in pair)

    @cached_property
    def calculus(self):
        """The per-quiver trail universe and cache of kissing data."""
        from .trails import TrailCalculus
        return TrailCalculus(self)

    # -- basic structure ---------------------------------------------------

    def is_internal(self, v: str) -> bool:
        return v in self._internal

    def tail(self, a: str) -> str:
        return self.arrows[a][0]

    def head(self, a: str) -> str:
        return self.arrows[a][1]

    def internal_arrows(self) -> list[str]:
        vi = self._internal
        return sorted(a for a, (t, h) in self.arrows.items() if t in vi and h in vi)

    def fringe_arrows(self) -> list[str]:
        return sorted(set(self.arrows) - set(self.internal_arrows()))

    # -- signed-arrow bookkeeping -------------------------------------------

    def string_continuations(self, a: str, eps: int) -> list[tuple[str, int]]:
        """Signed arrows x^z such that a^eps x^z is a string (at most one per
        sign), in code order: the calculus's table cont, decoded."""
        u = self.calculus.universe
        return [u.signed[d] for d in self.calculus.cont[u.code[(a, eps)]]]

    def validate(self) -> None:
        """Check the fringed-quiver axioms; raise DomainError on failure.

        The checks before the cycle test imply every other gentle axiom:
        distinct vertices, known arrow ends, degree 1 at the fringe and 2/2
        inside, and relation pairs at internal vertices only, each matching the
        two arrows in with the two out, so each relation composes and each arrow
        has one relation and one relation-free neighbour at an internal end.
        """
        vi, vf = self._internal, frozenset(self.fringe_vertices)
        if vi & vf:
            raise DomainError("a vertex is both internal and fringe")
        if len(vi) + len(vf) != len(self.internal_vertices) + len(self.fringe_vertices):
            raise StructuralError("duplicate vertex id")
        known = vi | vf
        for a, (t, h) in self.arrows.items():
            if t not in known or h not in known:
                raise StructuralError(f"arrow {a} has a dangling endpoint")
        for v in self.fringe_vertices:
            deg = len(self.arrows_in(v)) + len(self.arrows_out(v))
            if deg != 1:
                raise DomainError(f"fringe vertex {v} has {deg} incident arrows (want 1)")
        for v in self.internal_vertices:
            ins, outs = self.arrows_in(v), self.arrows_out(v)
            if len(ins) != 2 or len(outs) != 2:
                raise DomainError(f"internal vertex {v} has degrees in={len(ins)} out={len(outs)} (want 2/2)")
            if v not in self.relation_pairs:
                raise DomainError(f"internal vertex {v} has no relation data")
            (a1, a2), (b1, b2) = self.relation_pairs[v]
            if sorted((a1, b1)) != ins or sorted((a2, b2)) != outs:
                raise DomainError(f"relation pairs at {v} do not match its incident arrows")
        if len(self.relation_pairs) != len(vi):
            raise DomainError(f"relation data at {min(set(self.relation_pairs) - vi)}, not an internal vertex")
        if cyclic_core(self.arrows, lambda a: [b for b in self.arrows_out(self.head(a))
                                               if (a, b) not in self.relations]):
            raise DomainError("oriented relation-free cycle (algebra is infinite-dimensional)")


def fringe(q: GentleQuiver) -> FringedQuiver:
    """Degree-complete a gentle quiver with fringe vertices and arrows.

    Fringe names are deterministic: vertex v gets fringe vertices v!in1, v!in2,
    v!out1, v!out2 and arrows v#i1, v#i2, v#o1, v#o2 as needed.  Relation slots
    forced by the existing arrows are respected; at an unconstrained vertex the
    first incoming slot is paired (as a relation) with the first outgoing slot.

    The result is not validated again: once every generated id is checked
    fresh, the construction makes it a valid fringed quiver.  Generated ids
    are distinct (the suffix names v and the slot) and fresh, so fringe and
    internal vertices are disjoint, no input arrow is overwritten, and each
    fringe vertex carries one arrow.  Degrees, at most 2 in q
    (validate_gentle), are topped up to 2.  _complete_relations pairs the
    two ins with the two outs of each vertex, keeping the status of every
    composable input pair, so each arrow has one relation and one
    relation-free neighbour at an internal end.  A relation-free oriented
    cycle avoids the fringe arrows (degree 1 at their fringe end), so it
    would be one of q, which validate_gentle rejects.
    """
    if isinstance(q, FringedQuiver):
        raise DomainError("input is already fringed")
    problems = validate_gentle(q)
    if problems:
        raise DomainError("not a valid gentle quiver: " + "; ".join(problems))

    arrows = dict(q.arrows)
    fringe_vertices: list[str] = []
    fringe_arrows: list[str] = []
    slots: dict[str, tuple[list[str], list[str]]] = {}  # v -> (ins, outs), filled up

    for v in sorted(q.vertices):
        ins = list(q.arrows_in(v))
        outs = list(q.arrows_out(v))
        for k in range(2 - len(ins)):
            fv, fa = f"{v}!in{k + 1}", f"{v}#i{k + 1}"
            fringe_vertices.append(fv)
            fringe_arrows.append(fa)
            arrows[fa] = (fv, v)
            ins.append(fa)
        for k in range(2 - len(outs)):
            fv, fa = f"{v}!out{k + 1}", f"{v}#o{k + 1}"
            fringe_vertices.append(fv)
            fringe_arrows.append(fa)
            arrows[fa] = (v, fv)
            outs.append(fa)
        slots[v] = ins, outs

    clash = sorted(set(fringe_vertices).intersection(q.vertices))
    if clash:
        raise DomainError(f"fringe vertex {clash[0]} clashes with a vertex of the quiver")
    clash = sorted(set(fringe_arrows).intersection(q.arrows))
    if clash:
        raise DomainError(f"fringe arrow {clash[0]} clashes with an arrow of the quiver")
    return FringedQuiver(
        internal_vertices=tuple(sorted(q.vertices)),
        fringe_vertices=tuple(fringe_vertices),
        arrows=arrows,
        relation_pairs={v: _complete_relations(q, v, ins, outs)
                        for v, (ins, outs) in slots.items()},
    )


def _complete_relations(q: GentleQuiver, v: str, ins: list[str], outs: list[str]):
    """Pick the perfect matching ins x outs extending the base quiver's data."""
    m1 = ((ins[0], outs[0]), (ins[1], outs[1]))
    m2 = ((ins[0], outs[1]), (ins[1], outs[0]))

    def consistent(m) -> bool:
        rel = set(m)
        for a in ins:
            for b in outs:
                if a in q.arrows and b in q.arrows and q.arrows[a][1] == q.arrows[b][0]:
                    # existing composable pair: its relation status is already fixed
                    if ((a, b) in q.relations) != ((a, b) in rel):
                        return False
        return True

    for m in (m1, m2):
        if consistent(m):
            return m
    raise DomainError(f"cannot complete relations at vertex {v}")


def find_pairing(f: FringedQuiver) -> dict[str, int] | None:
    """Propagate arrow labels in {1, 2}; None when the quiver is not paired.

    The label of the lexicographically first arrow of each connected component
    is 1, which fixes one of the two pairings per component.
    """
    psi: dict[str, int] = {}
    rels = f.relations
    # Composability graph on arrows: a ~ b whenever ab or ba is composable.
    constraints: dict[str, list[tuple[str, bool]]] = {a: [] for a in f.arrows}
    for a in f.arrows:
        for b in f.arrows_out(f.head(a)):
            differ = (a, b) in rels
            constraints[a].append((b, differ))
            constraints[b].append((a, differ))
    for start in sorted(f.arrows):
        if start in psi:
            continue
        psi[start] = 1
        stack = [start]
        while stack:
            a = stack.pop()
            for b, differ in constraints[a]:
                want = (3 - psi[a]) if differ else psi[a]
                if b in psi:
                    if psi[b] != want:
                        return None
                else:
                    psi[b] = want
                    stack.append(b)
    return psi


def is_representation_finite(f: FringedQuiver) -> bool:
    """True iff no band exists: the signed-arrow transition graph is acyclic."""
    return not f.calculus.on_cycle


# -- quiver file format ------------------------------------------------------

def _strip_comment(line: str) -> str:
    """Drop a trailing comment; '#' only opens one at line start or after a
    space, since fringe-arrow ids contain '#' themselves."""
    i = line.find("#")
    while i > 0 and line[i - 1] not in " \t":
        i = line.find("#", i + 1)
    return line if i < 0 else line[:i]


def _checked_id(ln: int, name: str) -> str:
    """name, unless trail text would misread it: a token ending in '^-1'
    reads as an inverse arrow, and a leading 'band:' as a band."""
    if name.endswith("^-1") or name.startswith("band:"):
        raise StructuralError(f"line {ln}: id {name!r} ends in '^-1' or starts with 'band:', "
                              "which trail text reserves")
    return name


# the number of tokens on each kind of line
_TOKENS = {"vertex": 2, "fringe-vertex": 2, "arrow": 5, "relation": 3}


def parse_quiver_file(text: str):
    """Parse the line-oriented quiver format.

    Returns a GentleQuiver, or a FringedQuiver when the file carries the
    ``fringed`` section marker (in which case relation pairs are rebuilt from
    the listed relations).
    """
    vertices: list[str] = []
    fringe_vs: list[str] = []
    arrows: dict[str, tuple[str, str]] = {}
    relations: set[tuple[str, str]] = set()
    fringed_marker = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line == "fringed":
            fringed_marker = True
            continue
        parts = line.split()
        if parts[0] not in _TOKENS:
            raise StructuralError(f"line {ln}: unknown directive {parts[0]!r}")
        if len(parts) != _TOKENS[parts[0]]:
            raise StructuralError(f"line {ln}: malformed line {raw!r}")
        if parts[0] == "vertex":
            vertices.append(_checked_id(ln, parts[1]))
        elif parts[0] == "fringe-vertex":
            fringe_vs.append(_checked_id(ln, parts[1]))
        elif parts[0] == "arrow":
            # arrow <id>: <tail> -> <head>
            name = _checked_id(ln, parts[1].rstrip(":"))
            if parts[3] != "->":
                raise StructuralError(f"line {ln}: expected '->'")
            if name in arrows:
                raise StructuralError(f"line {ln}: duplicate arrow id {name}")
            arrows[name] = (parts[2], parts[4])
        else:
            relations.add((parts[1], parts[2]))
    if fringe_vs and not fringed_marker:
        raise StructuralError("fringe-vertex outside a 'fringed' file")
    if not fringed_marker:
        q = GentleQuiver(tuple(vertices), arrows, frozenset(relations))
        q.check_structure()
        return q
    return _fringed_from_parts(vertices, fringe_vs, arrows, relations)


def _fringed_from_parts(vertices, fringe_vs, arrows, relations):
    at: dict[str, list[tuple[str, str]]] = {}  # internal vertex -> relations through it
    for a, b in relations:
        if a in arrows and b in arrows and arrows[a][1] == arrows[b][0]:
            at.setdefault(arrows[a][1], []).append((a, b))
    relation_pairs = {}
    for v in vertices:
        pairs = sorted(at.get(v, []))
        if len(pairs) != 2:
            raise DomainError(f"internal vertex {v} needs exactly 2 relations, found {len(pairs)}")
        relation_pairs[v] = (pairs[0], pairs[1])
    leftover = relations - {p for ps in relation_pairs.values() for p in ps}
    if leftover:
        raise DomainError(f"relations not located at any internal vertex: {sorted(leftover)}")
    f = FringedQuiver(tuple(vertices), tuple(fringe_vs), arrows, relation_pairs)
    f.validate()
    return f


def serialize_fringed(f: FringedQuiver) -> str:
    lines = ["fringed"]
    lines += [f"vertex {v}" for v in sorted(f.internal_vertices)]
    lines += [f"fringe-vertex {v}" for v in sorted(f.fringe_vertices)]
    lines += [f"arrow {a}: {t} -> {h}" for a, (t, h) in sorted(f.arrows.items())]
    lines += [f"relation {a} {b}" for a, b in sorted(f.relations)]
    return "\n".join(lines) + "\n"


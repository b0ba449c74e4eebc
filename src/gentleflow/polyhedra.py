"""Turbulence-polyhedron and g-polyhedron presentations, faces and facets.

Vertices and recession rays come from elementary trails; faces of the
g-polyhedron come from closed arrow sets, and its facets from barely crooked
ones.  No convex-hull engine: everything is read off the combinatorics.
"""

from __future__ import annotations

from fractions import Fraction

from .flows import format_rational, parse_rational, trail_counts
from .quiver import DomainError, FringedQuiver, Record, cyclic_core
from .trails import (
    Trail,
    elementary_bands,
    elementary_routes,
    g_vector,
    is_straight,
    straight_routes,
)

Q = Fraction


def turbulence_dimension(f: FringedQuiver) -> int:
    return len(f.arrows) - len(f.internal_vertices) - 1


class PolyhedronPresentation(Record):
    ambient: list[str]                      # coordinate labels
    vertices: list[tuple[Trail, dict]]      # (labelling trail, integer vector)
    rays: list[tuple[Trail, dict]]          # (labelling trail, integer vector)
    dimension: int

    def __init__(self, ambient, vertices, rays, dimension):
        self.ambient, self.vertices, self.rays, self.dimension = ambient, vertices, rays, dimension

    def as_json(self):
        return {
            "ambient": list(self.ambient),
            "dimension": self.dimension,
            "vertices": labelled_vectors_json(self.vertices),
            "rays": labelled_vectors_json(self.rays),
        }


def labelled_vectors_json(pairs: list[tuple[Trail, dict]]) -> list[dict]:
    """(labelling trail, vector) pairs as JSON, each coordinate a string."""
    return [{"trail": str(t), "vector": {k: str(x) for k, x in sorted(v.items())}} for t, v in pairs]


def turbulence_rays(f: FringedQuiver) -> list[tuple[Trail, dict]]:
    """The recession rays of the turbulence polyhedron: the indicators of
    the elementary bands."""
    return [(b, trail_counts(f, b)) for b in elementary_bands(f)]


def turbulence_presentation(f: FringedQuiver) -> PolyhedronPresentation:
    """Vertices are indicators of elementary routes; rays of elementary bands."""
    return PolyhedronPresentation(
        ambient=sorted(f.arrows),
        vertices=[(p, trail_counts(f, p)) for p in elementary_routes(f)],
        rays=turbulence_rays(f),
        dimension=turbulence_dimension(f),
    )


def phi(f: FringedQuiver, vec: dict[str, Fraction]) -> dict[str, Fraction]:
    """The quotient map (e_alpha -> (e_tail - e_head)/2, fringe endpoints -> 0)."""
    out = {v: Q(0) for v in f.internal_vertices}
    for a, x in vec.items():
        if a not in f.arrows:
            raise DomainError(f"unknown arrow {a}")
        x = parse_rational(x)
        t, h = f.arrows[a]
        if f.is_internal(t):
            out[t] += x / 2
        if f.is_internal(h):
            out[h] -= x / 2
    return out


def g_polyhedron_presentation(f: FringedQuiver) -> PolyhedronPresentation:
    """Vertices are g-vectors of elementary bending routes; rays of elementary bands."""
    verts = [(p, g_vector(f, p)) for p in elementary_routes(f) if not is_straight(p)]
    rays = [(b, g_vector(f, b)) for b in elementary_bands(f)]
    if len({tuple(v.values()) for _t, v in verts}) < len(verts):  # keys in one order
        raise AssertionError("elementary bending routes produced equal g-vectors")
    return PolyhedronPresentation(
        ambient=sorted(f.internal_vertices),
        vertices=verts,
        rays=rays,
        dimension=len(f.internal_vertices),
    )


# -- closed and crooked arrow sets ----------------------------------------------

def closure(f: FringedQuiver, W: set[str]) -> set[str]:
    """Smallest closed arrow set containing W (all of E when no W-avoiding
    route survives, matching the empty face).

    Searches the transition graph of signed-arrow codes outside W: the arrows
    reached both ways from the fringe lie on W-avoiding routes, those on its
    cycles on W-avoiding bands.
    """
    for a in sorted(W):
        if a not in f.arrows:
            raise DomainError(f"unknown arrow {a}")
    calc = f.calculus
    lazy, cont = calc.lazy, calc.cont
    ok = [a not in W for a, _e in calc.universe.signed]  # per code: its arrow avoids W
    reach = {c for c in range(len(ok)) if ok[c] and lazy[c ^ 1] is None}  # fringe tails
    stack = list(reach)
    while stack:
        for d in cont[stack.pop()]:
            if ok[d] and d not in reach:
                reach.add(d)
                stack.append(d)
    on_route = {c >> 1 for c in reach if c ^ 1 in reach}
    if not on_route:
        return set(f.arrows)
    # Tarjan's components of the nodes reached from these roots are components
    # of the whole graph, so rooting only at the arrows still in doubt suffices
    roots = [c for c in range(len(ok)) if ok[c] and c >> 1 not in on_route]
    on_band = cyclic_core(roots, lambda c: [d for d in cont[c] if ok[d]]) if roots else ()
    avoided = on_route | {c >> 1 for c in on_band}  # arrow i has codes 2i and 2i + 1
    return set(f.arrows) - {calc.universe.signed[2 * i][0] for i in avoided}


def is_closed(f: FringedQuiver, W: set[str]) -> bool:
    if set(W) == set(f.arrows):
        return False  # no unit flow vanishes everywhere; E indexes the empty face
    return closure(f, W) == set(W)


def crookedness(f: FringedQuiver, W: set[str]) -> str:
    """Classify a closed arrow set by its straight-route intersection counts."""
    if not is_closed(f, W):
        raise DomainError("arrow set is not closed")
    counts = [sum(1 for a, _e in s.walk if a in W) for s in straight_routes(f)]
    if any(c == 0 for c in counts):
        return "not-crooked"
    if all(c == 1 for c in counts):
        return "barely-crooked"
    return "crooked"


class HalfSpace(Record):
    coeffs: dict[str, Fraction]   # over internal vertices
    relation: str                 # "<=" or ">="
    rhs: Fraction
    form: str                     # "S" or "T"

    def __init__(self, coeffs, relation, rhs, form):
        self.coeffs, self.relation, self.rhs, self.form = coeffs, relation, rhs, form

    def evaluate(self, x: dict[str, Fraction]) -> Fraction:
        return sum((self.coeffs[v] * parse_rational(x.get(v, 0)) for v in self.coeffs), Q(0))

    def as_json(self):
        return {
            "coeffs": {v: format_rational(c) for v, c in sorted(self.coeffs.items())},
            "relation": self.relation,
            "rhs": format_rational(self.rhs),
            "form": self.form,
        }


def s_coefficients(f: FringedQuiver, W: set[str]) -> dict[str, Fraction]:
    """The S_v facet data of a crooked arrow set.

    S_v sums, over the two arrows y leaving v, the fraction of its straight
    route's W-arrows sitting weakly after v, recentered by 1/2: the sum of
    (2 after - n) / 2n, kept as one integer fraction per vertex.
    """
    weight = {}  # y -> (#W-arrows weakly after y on its straight route, #W-arrows on it)
    for s in straight_routes(f):
        arrows = [a for a, _e in s.walk]
        n, after = sum(a in W for a in arrows), 0
        for a in reversed(arrows) if s.walk[0][1] == 1 else arrows:  # from the head end
            after += a in W
            weight[a] = after, n
    out = {}
    for v in f.internal_vertices:
        num, den = 0, 1
        for y in f.arrows_out(v):
            after, n = weight[y]  # every arrow lies on one straight route
            if n == 0:
                raise DomainError(f"arrow set misses the straight route of {y} (not crooked)")
            num, den = num * 2 * n + (2 * after - n) * den, den * 2 * n
        out[v] = Q(num, den)
    return out


def g_face(f: FringedQuiver, W: set[str]) -> HalfSpace:
    """Face-defining half-space of the g-polyhedron for a crooked arrow set."""
    kind = crookedness(f, W)
    if kind == "not-crooked":
        raise DomainError("arrow set is not crooked")
    return HalfSpace(coeffs=s_coefficients(f, W), relation=">=", rhs=Q(-1), form="S")


def g_facet(f: FringedQuiver, W: set[str]) -> HalfSpace:
    """Facet-defining half-space for a barely crooked arrow set, in the integer
    form sum T_v x(v) <= 1 with T_v = -S_v in {-1, 0, 1}."""
    if crookedness(f, W) != "barely-crooked":
        raise DomainError("arrow set is not barely crooked")
    return _facet(f, W)


def _facet(f: FringedQuiver, W) -> HalfSpace:
    """g_facet's half-space for a set already known to be barely crooked."""
    coeffs = {v: -s for v, s in s_coefficients(f, W).items()}
    for v, c in coeffs.items():
        if c not in (-1, 0, 1):
            raise AssertionError(f"non-integer facet coefficient {c} at {v}")
    return HalfSpace(coeffs=coeffs, relation="<=", rhs=Q(1), form="T")


def barely_crooked_sets(f: FringedQuiver) -> list[frozenset[str]]:
    """All barely crooked arrow sets, by a depth-first search over partial
    choices of one arrow per straight route.

    A node with choice W takes C = closure(W).  It is pruned when C is all of
    E or meets a straight route twice (a chosen route met off its chosen
    arrow is met twice, as C contains W).  A route that C meets once counts
    as chosen.  If C meets every route, C is reported; else the node branches
    on the arrows of the shortest unmet route, each child being C plus one.

    Proof.  closure is extensive, monotone and idempotent.  If W lies inside
    a barely crooked B, then C lies inside closure(B) = B: C is not E and
    meets no route twice, so no node on the way to B is pruned, and every
    branch offers B's arrow.  A child C + a has the closure of W + a, since
    W <= C <= closure(W + a).  A leaf inside B meets every route once, as B
    does, and every arrow lies on one straight route (see s_coefficients),
    so it is B.  Conversely a leaf is closed, not E, and meets each route
    once: it is barely crooked.  Siblings differ on one route, so no set
    comes twice; E is never reported, as in is_closed.  The stack is
    explicit, and the depth is at most the number of straight routes.
    """
    routes = [[a for a, _e in s.walk] for s in straight_routes(f)]
    route_of = {a: i for i, arrows in enumerate(routes) for a in arrows}
    out = []
    stack = [set()]
    while stack:
        C = closure(f, stack.pop())
        if len(C) == len(f.arrows):
            continue
        met = [0] * len(routes)
        for a in C:
            met[route_of[a]] += 1
        if any(n > 1 for n in met):
            continue
        unmet = [i for i, n in enumerate(met) if not n]
        if not unmet:
            out.append(frozenset(C))
            continue
        branch = min(unmet, key=lambda i: len(routes[i]))
        stack.extend(C | {a} for a in routes[branch])
    return sorted(out, key=sorted)


def g_facets(f: FringedQuiver) -> list[tuple[frozenset[str], HalfSpace]]:
    """Each barely crooked set with its facet, built without a second closure."""
    return [(W, _facet(f, W)) for W in barely_crooked_sets(f)]


# -- cells and unimodularity --------------------------------------------------------

def _det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    m = [row[:] for row in rows]
    det = Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def unimodularity_check(f: FringedQuiver, clique_routes) -> bool:
    """|det| of the g-vectors of the bending routes of a maximal reduced clique."""
    bending = [p for p in clique_routes if not is_straight(p)]
    n = len(f.internal_vertices)
    if len(bending) != n:
        raise DomainError(f"expected {n} bending routes, got {len(bending)}")
    order = sorted(f.internal_vertices)
    rows = [[Q(g_vector(f, p)[v]) for v in order] for p in bending]
    return abs(_det(rows)) == 1


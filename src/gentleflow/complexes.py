"""Compatibility graphs, maximal cliques and bundles, band-stable cliques.

Straight routes are compatible with every trail, so every maximal clique or
bundle contains them all.  The searches run on one trail_key order of the
trails, straight routes included, and give each clique as its increasing
positions in that order: the positions list its members in order, and
tuple order on them is member order."""

from __future__ import annotations

from bisect import insort
from functools import cached_property, reduce
from operator import or_

from .quiver import DomainError, FringedQuiver, Value
from .trails import (
    Band,
    Route,
    Trail,
    countercurrent_compare,
    enumerate_bands,
    is_straight,
    markings_at,
    self_compatible_routes,
    straight_routes,
    trail_key,
)


class _Members:
    """What Clique and Bundle share.  A search builds one from its members in
    trail_key order alone (_of): its set field and key are made on first use."""

    members = cached_property(lambda self: tuple(sorted(self._key[0], key=trail_key)))
    _key = cached_property(lambda self: (frozenset(self.members),))

    @classmethod
    def _of(cls, members, **facts):
        v = cls.__new__(cls)
        v.__dict__.update(facts, members=members)
        return v

    def reduced(self):
        """The value without its straight routes, its members kept in order."""
        return self._of(tuple(t for t in self.members if not is_straight(t)))

    def as_json(self):
        return [t._str for t in self.members]


class Clique(_Members, Value):
    routes: frozenset[Route]
    # set by band_stable_cliques, not compared: is it maximal, its compatible bands
    maximal: bool | None = None
    band_generators: tuple[Band, ...] = ()

    def __init__(self, routes, maximal=None, band_generators=()):
        self.__dict__.update(routes=routes, maximal=maximal, band_generators=band_generators, _key=(routes,))

    routes = cached_property(lambda self: self._key[0])


class Bundle(_Members, Value):
    trails: frozenset[Trail]

    def __init__(self, trails):
        self.__dict__.update(trails=trails, _key=(trails,))

    trails = cached_property(lambda self: self._key[0])

    @property
    def bands(self) -> frozenset[Band]:
        return frozenset(t for t in self.trails if isinstance(t, Band))

    def sorted_trails(self) -> list[Trail]:
        return list(self.members)


def bending_route_universe(f: FringedQuiver, route_bound: int) -> list[Route]:
    return [p for p in self_compatible_routes(f, route_bound) if not is_straight(p)]


def band_universe(f: FringedQuiver, band_bound: int) -> list[Band]:
    calc = f.calculus
    return [b for b in enumerate_bands(f, band_bound) if calc.self_compatible(b)]


def _search_order(f: FringedQuiver, route_bound: int) -> list[Route]:
    """The straight and the bending routes, in one trail_key order."""
    nodes = bending_route_universe(f, route_bound)
    for p in straight_routes(f):
        insort(nodes, p, key=trail_key)
    return nodes


_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, increasing, a byte at a time."""
    out, base = [], 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                out.append(base + i)
        base += 8
    return out


def _compat_rows(f: FringedQuiver, rows: list[Trail], cols: list[Trail]) -> list[int]:
    """Per trail of rows, the bitset of the trails of cols compatible with it;
    when rows is cols, a trail's own bit is left out.

    A row is the complement of the cols with a bottom among the row's tops or
    a top among its bottoms; straight routes have neither, so their rows are
    full.  Band witnesses up to the band's length plus the longest bending
    trail's decide every pair as kiss does: route witnesses are shorter than
    the route, and distinct bands share none longer (kiss)."""
    calc, straight = f.calculus, set(f.calculus.straight)
    longest = max((len(t) for t in rows + cols if t not in straight), default=0)

    def tops_bottoms(t):
        return ((), ()) if t in straight else calc.tops_bottoms(t, len(t) + longest)
    having = ({}, {})  # per witness, the bitset of the cols with it as a top, as a bottom
    for j, q in enumerate(cols):
        for side, witnesses in zip(having, tops_bottoms(q)):
            for s in witnesses:
                side[s] = side.get(s, 0) | 1 << j
    out = []
    for i, p in enumerate(rows):
        tops, bottoms = tops_bottoms(p)
        kissed = 1 << i if rows is cols else 0
        for s in tops:
            kissed |= having[1].get(s, 0)
        for s in bottoms:
            kissed |= having[0].get(s, 0)
        out.append(~kissed & ((1 << len(cols)) - 1))
    return out


def _bron_kerbosch(adj: list[int], r: tuple[int, ...] = (), p: int | None = None,
                   x: int = 0) -> list[tuple[int, ...]]:
    """Maximal cliques of the graph on range(len(adj)) with neighbour bitsets
    adj, as increasing position tuples in tuple order: Bron-Kerbosch with
    Tomita pivoting, on an explicit stack.  From the node (r, p, x), r a
    clique as a tuple of positions and the bitset p | x common neighbours of
    it, it gives the cliques r + t, t ⊆ p, that no vertex of p | x extends."""
    cliques = []
    stack = [(r, (1 << len(adj)) - 1 if p is None else p, x)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                cliques.append(tuple(sorted(r)))
            continue
        most, m = -1, p | x
        while m:  # the first u with the most neighbours in p, low bit up
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            if (n := (p & adj[u]).bit_count()) > most:
                most, pivot = n, u
        m = p & ~adj[pivot]
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            stack.append((r + (v,), p & adj[v], x & adj[v]))
            p ^= low
            x |= low
    cliques.sort()
    return cliques


def maximal_cliques(f: FringedQuiver, route_bound: int) -> list[Clique]:
    """Maximal cliques within the bounded route universe, straight routes included."""
    if route_bound < 1:
        raise DomainError("route_bound must be >= 1")
    nodes = _search_order(f, route_bound)
    return [Clique._of(tuple(map(nodes.__getitem__, k)))
            for k in _bron_kerbosch(_compat_rows(f, nodes, nodes))]


def maximal_bundles(f: FringedQuiver, route_bound: int, band_bound: int) -> list[Bundle]:
    """Maximal bundles within the bounded trail universe, straight routes included."""
    if route_bound < 1 or band_bound < 1:
        raise DomainError("bounds must be >= 1")
    nodes: list[Trail] = _search_order(f, route_bound) + band_universe(f, band_bound)
    return [Bundle._of(tuple(map(nodes.__getitem__, k)))
            for k in _bron_kerbosch(_compat_rows(f, nodes, nodes))]


def band_stable_cliques(f: FringedQuiver, route_bound: int, band_bound: int) -> list[Clique]:
    """Cliques K (containing all straight routes) such that every compatible
    route extension kills some K-compatible band.

    Stability reduces to single-route extensions: a clique K' ⊋ K contains a
    route q ∉ K, and a K-compatible band kissing q is not K'-compatible.  For
    a clique s, a tuple of increasing positions, the bitset ext(s) is the
    routes outside s compatible with all of s, ok(s) the bands compatible
    with all of s, and killable(ok) the union of kills[b], the routes band b
    kisses, over b in ok.  So s is stable iff ext(s) & ~killable(ok(s)) == 0;
    it is maximal iff ext(s) == 0, and its band generators are the bands of
    ok(s).

    One depth-first search visits each clique once, in member order: a
    child of s adds one route v of hi(s), the routes of ext(s) after the
    last one added, and has hi = hi(s) & rows[v] & above(v).  Below s lie
    the cliques s + t, t ⊆ hi(s), and down the tree ok, so killable, only
    shrinks.  Two facts prune it:
    - the cut: take q ∈ ext(s) ∖ hi(s) ∖ killable(ok(s)) compatible with all
      of hi(s).  Below s no clique adds q, each has q in ext, and none kills
      it: none is stable.  A skipped straight route is such a q;
    - the hand-off: if killable(ok(s)) == 0, stable below s means ext == 0,
      maximal, and the bands of ok(s) kiss no route, so ok stays ok(s).
      Bron-Kerbosch from (s, hi(s), ext(s) ∖ hi(s)) lists exactly those.
    """
    if route_bound < 1 or band_bound < 1:
        raise DomainError("bounds must be >= 1")
    nodes = _search_order(f, route_bound)
    bands = band_universe(f, band_bound)
    rows, band_rows = _compat_rows(f, nodes, nodes), _compat_rows(f, nodes, bands)
    kills = [0] * len(bands)
    for q, row in enumerate(band_rows):
        for b in _bits(~row & (1 << len(bands)) - 1):
            kills[b] |= 1 << q
    per_ok = {}  # ok: (killable(ok), the bands of ok), made once per distinct ok

    def killable(ok: int) -> tuple[int, tuple[Band, ...]]:
        if ok not in per_ok:
            gens = _bits(ok)
            per_ok[ok] = reduce(or_, map(kills.__getitem__, gens), 0), tuple(map(bands.__getitem__, gens))
        return per_ok[ok]
    out = []
    everything = (1 << len(nodes)) - 1
    stack = [((), everything, (1 << len(bands)) - 1, everything)]  # (s, ext, ok, hi)
    while stack:
        s, ext, ok, hi = stack.pop()
        union, gens = killable(ok)
        if any(rows[q] & hi == hi for q in _bits(ext & ~hi & ~union)):
            continue
        if not union:
            out += [Clique._of(tuple(map(nodes.__getitem__, k)), maximal=True, band_generators=gens)
                    for k in _bron_kerbosch(rows, s, hi, ext & ~hi)]
            continue
        if not ext & ~union:
            out.append(Clique._of(tuple(map(nodes.__getitem__, s)),
                                  maximal=not ext, band_generators=gens))
        for v in reversed(_bits(hi)):
            stack.append((s + (v,), ext & rows[v], ok & band_rows[v], hi & rows[v] & ~((2 << v) - 1)))
    return out


def distinguished_arrows(f: FringedQuiver, bundle: Bundle, p: Trail) -> set[str]:
    """Arrows at which a marking of p is countercurrent-maximum in the bundle."""
    if p not in bundle.trails:
        raise DomainError("trail is not a member of the bundle")
    out = set()
    for a in sorted({x for x, _e in p.walk}):
        marks = [m for t in bundle.members for m in markings_at(t, a, 1)]
        top = marks[0]
        for m in marks[1:]:
            if countercurrent_compare(f, top, m) < 0:
                top = m
        if top.trail == p:
            out.add(a)
    return out


def avoided_arrows(f: FringedQuiver, trails) -> set[str]:
    used = {a for t in trails for a, _e in t.walk}
    return set(f.arrows) - used

"""Compatibility graphs, maximal cliques and bundles, band-stable cliques.

Straight routes are compatible with every trail, so every maximal clique or
bundle contains them all; the search happens on bending trails only and the
straight routes are re-attached afterwards.
"""

from __future__ import annotations

from functools import cached_property

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


class Clique(Value):
    routes: frozenset[Route]
    # set by band_stable_cliques, not compared: is it maximal, its compatible bands
    maximal: bool | None
    band_generators: tuple[Band, ...]

    def __init__(self, routes, maximal=None, band_generators=(), members=None):
        self.__dict__.update(routes=routes, maximal=maximal, band_generators=band_generators, _key=(routes,))
        if members is not None:
            self.__dict__["members"] = members

    def reduced(self) -> "Clique":
        """The clique without its straight routes, its members kept in order."""
        members = tuple(p for p in self.members if not is_straight(p))
        return Clique(frozenset(members), members=members)

    @cached_property
    def members(self) -> tuple[Route, ...]:
        """The routes in trail_key order: as the searches build them, else sorted once."""
        return tuple(sorted(self.routes, key=trail_key))

    def sorted_routes(self) -> list[Route]:
        return list(self.members)

    def as_json(self):
        return [str(p) for p in self.members]


class Bundle(Value):
    trails: frozenset[Trail]

    def __init__(self, trails, members=None):
        self.__dict__.update(trails=trails, _key=(trails,))
        if members is not None:
            self.__dict__["members"] = members

    @property
    def routes(self) -> frozenset[Route]:
        return frozenset(t for t in self.trails if isinstance(t, Route))

    @property
    def bands(self) -> frozenset[Band]:
        return frozenset(t for t in self.trails if isinstance(t, Band))

    def reduced(self) -> "Bundle":
        """The bundle without its straight routes, its members kept in order."""
        members = tuple(t for t in self.members if not is_straight(t))
        return Bundle(frozenset(members), members)

    @cached_property
    def members(self) -> tuple[Trail, ...]:
        """The trails in trail_key order: as the search builds them, else sorted once."""
        return tuple(sorted(self.trails, key=trail_key))

    def sorted_trails(self) -> list[Trail]:
        return list(self.members)

    def as_json(self):
        return [str(t) for t in self.members]


def bending_route_universe(f: FringedQuiver, route_bound: int) -> list[Route]:
    return sorted((p for p in self_compatible_routes(f, route_bound) if not is_straight(p)),
                  key=trail_key)


def band_universe(f: FringedQuiver, band_bound: int) -> list[Band]:
    calc = f.calculus
    return sorted((b for b in enumerate_bands(f, band_bound) if calc.self_compatible(b)),
                  key=trail_key)


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
    a top among its bottoms.  Band witnesses up to the band's length plus the
    longest trail's decide every pair as kiss does: route witnesses are
    shorter than the route, and distinct bands share none longer (kiss).
    """
    calc = f.calculus
    longest = max(map(len, rows + cols), default=0)
    having = ({}, {})  # per witness, the bitset of the cols with it as a top, as a bottom
    for j, q in enumerate(cols):
        for side, witnesses in zip(having, calc.tops_bottoms(q, len(q) + longest)):
            for s in witnesses:
                side[s] = side.get(s, 0) | 1 << j
    out = []
    for i, p in enumerate(rows):
        tops, bottoms = calc.tops_bottoms(p, len(p) + longest)
        kissed = 1 << i if rows is cols else 0
        for s in tops:
            kissed |= having[1].get(s, 0)
        for s in bottoms:
            kissed |= having[0].get(s, 0)
        out.append(~kissed & ((1 << len(cols)) - 1))
    return out


def _bron_kerbosch(adj: list[int]) -> list[int]:
    """Maximal cliques of the graph on range(len(adj)) with neighbour bitsets
    adj, as bitsets: Bron-Kerbosch with Tomita pivoting, on an explicit stack."""
    cliques = []
    stack = [(0, (1 << len(adj)) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                cliques.append(r)
            continue
        most = -1
        for u in _bits(p | x):  # the first u with the most neighbours in p
            if (n := (p & adj[u]).bit_count()) > most:
                most, pivot = n, u
        for v in _bits(p & ~adj[pivot]):
            stack.append((r | 1 << v, p & adj[v], x & adj[v]))
            p &= ~(1 << v)
            x |= 1 << v
    return cliques


def _in_member_order(straights: list[Route], nodes: list[Trail], masks: list[int]):
    """(members, j) per bitset masks[j] over nodes, with every straight route
    added, sorted.  Read as the sorted tuple of its positions in one trail_key
    order, a mask compares exactly as its members do, prefixes included."""
    order = sorted(straights + nodes, key=trail_key)
    at = {t: k for k, t in enumerate(order)}
    fixed, pos = [at[p] for p in straights], [at[t] for t in nodes]
    keyed = sorted((tuple(sorted(fixed + [pos[i] for i in _bits(m)])), j) for j, m in enumerate(masks))
    return [(tuple(map(order.__getitem__, ks)), j) for ks, j in keyed]


def maximal_cliques(f: FringedQuiver, route_bound: int) -> list[Clique]:
    """Maximal cliques within the bounded route universe, straight routes included."""
    if route_bound < 1:
        raise DomainError("route_bound must be >= 1")
    bending = bending_route_universe(f, route_bound)
    cliques = _bron_kerbosch(_compat_rows(f, bending, bending))
    return [Clique(frozenset(ms), members=ms)
            for ms, _j in _in_member_order(straight_routes(f), bending, cliques)]


def maximal_bundles(f: FringedQuiver, route_bound: int, band_bound: int) -> list[Bundle]:
    """Maximal bundles within the bounded trail universe, straight routes included."""
    if route_bound < 1 or band_bound < 1:
        raise DomainError("bounds must be >= 1")
    nodes: list[Trail] = list(bending_route_universe(f, route_bound))
    nodes += band_universe(f, band_bound)
    cliques = _bron_kerbosch(_compat_rows(f, nodes, nodes))
    return [Bundle(frozenset(ms), ms) for ms, _j in _in_member_order(straight_routes(f), nodes, cliques)]


def band_stable_cliques(f: FringedQuiver, route_bound: int, band_bound: int) -> list[Clique]:
    """Cliques K (containing all straight routes) such that every compatible
    route extension kills some K-compatible band.

    Stability reduces to single-route extensions: a clique K' ⊋ K contains a
    route q ∉ K, and a K-compatible band kissing q is not K'-compatible.  The
    candidates are the subsets of the maximal cliques of the bending graph.
    For one candidate s, as bitsets, ext(s) is the routes outside s compatible
    with all of s and ok(s) the bands compatible with all of s; s is stable
    when every q in ext(s) kisses some band of ok(s).

    Routes no band can kill are forced.  Per maximal clique m, `forced`
    starts empty and repeatedly takes in every route q of m that no band of
    ok(forced) kisses.  This is exact: let s ⊆ m be stable with forced ⊆ s.
    A route q ∈ m ∖ s is compatible with all of s, as m is a clique, so q
    lies in ext(s) and some band of ok(s) ⊆ ok(forced) kills it.  So each
    route taken in lies in s, and by induction every stable s ⊆ m contains
    forced.  Only the candidates forced | t, t ⊆ m ∖ forced, are tried.

    Each clique also carries what the search knows: it is maximal exactly
    when s equals the maximal clique m it is first reached from, and its band
    generators are ok(s), since straight routes are compatible with all bands.
    """
    if route_bound < 1 or band_bound < 1:
        raise DomainError("bounds must be >= 1")
    bending = bending_route_universe(f, route_bound)
    bands = band_universe(f, band_bound)
    rows = _compat_rows(f, bending, bending)
    band_rows = _compat_rows(f, bending, bands)

    # (ext, ok) per candidate; forced | t, t nonempty, extends the candidate without
    # t's lowest route, visited before it since submasks go in increasing order
    acc: dict[int, tuple[int, int]] = {}
    stable, facts = [], []  # per stable clique: its bitset; (maximal, band generators)
    for m in _bron_kerbosch(rows):
        forced, ext, ok = 0, (1 << len(bending)) - 1, (1 << len(bands)) - 1
        while unkillable := [q for q in _bits(m & ~forced) if not ok & ~band_rows[q]]:
            for q in unkillable:
                forced |= 1 << q
                ext, ok = ext & rows[q], ok & band_rows[q]
        free = m & ~forced
        subs = [free]
        while subs[-1]:
            subs.append((subs[-1] - 1) & free)
        for t in reversed(subs):
            s = forced | t
            if s in acc:
                continue
            if t:  # else (ext, ok) are forced's, from the fixpoint
                low = t & -t
                ext, ok = acc[s ^ low]
                v = low.bit_length() - 1
                ext, ok = ext & rows[v], ok & band_rows[v]
            acc[s] = ext, ok
            if all(ok & ~band_rows[q] for q in _bits(ext)):
                stable.append(s)
                facts.append((s == m, tuple(bands[b] for b in _bits(ok))))
    return [Clique(frozenset(ms), *facts[j], ms)
            for ms, j in _in_member_order(straight_routes(f), bending, stable)]


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

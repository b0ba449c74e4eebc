"""Strings, routes and bands on a fringed quiver, and their combinatorics.

A walk is a tuple of signed arrows (arrow id, +1/-1).  Routes are maximal
strings (fringe endpoint to fringe endpoint), bands are primitive cyclic
strings.  Substring classification (top/bottom, boosted, criss-crossed) drives
kissing/compatibility, the countercurrent order and g-vectors.
"""

from __future__ import annotations

from functools import cached_property

from .quiver import DomainError, FringedQuiver, Value, cyclic_core

SignedArrow = tuple[str, int]
Walk = tuple[SignedArrow, ...]


def inverse_walk(w: Walk) -> Walk:
    return tuple((a, -e) for a, e in reversed(w))


def format_walk(w: Walk) -> str:
    return " ".join(a if e == 1 else f"{a}^-1" for a, e in w)


def parse_walk(text: str) -> Walk:
    return tuple((t[:-3], -1) if t.endswith("^-1") else (t, 1) for t in text.split())


def _string_codes(f: FringedQuiver, w: Walk) -> tuple[int, ...] | None:
    """The code word of w when w is a string of f, else None; an unknown
    arrow raises (TrailUniverse.word).  A continuation leaves the head of the
    code before it, so membership in cont also checks composability."""
    calc = f.calculus
    word, cont = calc.universe.word(w), calc.cont
    return word if all(d in cont[c] for c, d in zip(word, word[1:])) else None


def is_string(f: FringedQuiver, w: Walk) -> bool:
    """The four string conditions: known arrows, composability, no relation
    crossing, no immediate backtrack."""
    return _string_codes(f, w) is not None


# -- Routes and bands ---------------------------------------------------------
#
# Trails are interned per universe (a quiver's arrows, a framed graph's edges)
# by code word: a^e has code 2*i + (e == -1), i the rank of a in sorted order,
# so a^-e has code ^ 1, and tuple order on code words is the serialized order
# of walks ("e1" < "e1^-1" < "e10").


def _inverse_codes(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(c ^ 1 for c in reversed(w))


def least_rotation(w: tuple) -> tuple:
    """The least rotation of w in O(len(w)), by Booth's algorithm (Booth
    1980): a Knuth-Morris-Pratt failure function over w + w whose candidate
    start k moves past every mismatch that shows a smaller rotation."""
    s = w + w
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        x = s[j]
        i = fail[j - k - 1]
        while i != -1 and x != s[k + i + 1]:
            if x < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if x != s[k + i + 1]:  # so i == -1
            if x < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return s[k:k + len(w)]


class Trail:
    """A route or a band of one universe: its canonical code word, walk,
    hash, sort key and string, all computed once.

    Trails are equal when they are of the same kind and have the same walk,
    whatever their universe; sort keys order the trails of one universe.
    """

    __slots__ = ("universe", "codes", "walk", "sort_key", "_hash", "_str")
    _prefix = ""

    def __init__(self, universe: "TrailUniverse", codes: tuple[int, ...]):
        self.universe = universe
        self.codes = codes
        self.walk = tuple(universe.signed[c] for c in codes)
        self.sort_key = (isinstance(self, Band), codes)
        self._hash = hash(self.walk)
        self._str = self._prefix + universe.text(codes)

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is type(self) and other.walk == self.walk)

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.codes)

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class Route(Trail):
    """A route, as the least of its code words p and p^-1."""

    __slots__ = ()

    @staticmethod
    def of(w: Walk) -> "Route":
        """The route of the walk w, outside any quiver (parsing, comparison)."""
        u = TrailUniverse(a for a, _e in w)
        return u.route(u.word(w))


class Band(Trail):
    """A band, as the least rotation of its code words B and B^-1."""

    __slots__ = ()
    _prefix = "band: "

    @staticmethod
    def of(w: Walk) -> "Band":
        """The band of the closed walk w, outside any quiver (parsing, comparison)."""
        u = TrailUniverse(a for a, _e in w)
        return u.band(u.word(w))


class TrailUniverse:
    """The routes and bands over a set of arrow names, each built once and
    found from any of its code words: a route is kept under both of its
    words, a band under its canonical word alone."""

    def __init__(self, names):
        self.signed = [(a, e) for a in sorted(set(names)) for e in (1, -1)]  # by code
        self.code = {s: c for c, s in enumerate(self.signed)}
        self.tokens = [a if e == 1 else a + "^-1" for a, e in self.signed]
        self._routes: dict[tuple[int, ...], Route] = {}
        self._bands: dict[tuple[int, ...], Band] = {}

    def word(self, w: Walk) -> tuple[int, ...]:
        try:
            return tuple(map(self.code.__getitem__, w))
        except (KeyError, TypeError):
            pass
        for item in w:  # name the first item that has no code
            if not (isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)):
                raise DomainError(f"not a signed arrow: {item!r}")
            a, e = item
            if (a, 1) not in self.code:
                raise DomainError(f"unknown arrow id {a}")
            if e not in (1, -1):
                raise DomainError(f"the sign of an arrow is 1 or -1, not {e!r}")
        raise AssertionError("every item of the walk has a code")

    def text(self, word: tuple[int, ...]) -> str:
        """The trail text of a code word: its arrows' tokens, space separated."""
        return " ".join(map(self.tokens.__getitem__, word))

    def route(self, word: tuple[int, ...]) -> Route:
        hit = self._routes.get(word)
        if hit is None:
            inv = _inverse_codes(word)
            hit = self._routes[word] = self._routes[inv] = Route(self, min(word, inv))
        return hit

    def band(self, word: tuple[int, ...]) -> Band:
        """The band of a closed code word; its canonical word is the least of
        the rotations of the word and of its inverse."""
        hit = self._bands.get(word)
        if hit is None:
            canon = min(least_rotation(word), least_rotation(_inverse_codes(word)))
            hit = self._bands.get(canon)
            if hit is None:
                hit = self._bands[canon] = Band(self, canon)
        return hit


def trail_key(t: Trail):
    """Deterministic sort key: routes before bands, then lexicographic."""
    return t.sort_key


def parse_trail(text: str) -> Trail:
    text = text.strip()
    if text.startswith("band:"):
        return Band.of(parse_walk(text[len("band:"):]))
    return Route.of(parse_walk(text))


def is_route_walk(f: FringedQuiver, w: Walk) -> bool:
    word = _string_codes(f, w) if w else None
    lazy = f.calculus.lazy
    return bool(word) and lazy[word[0] ^ 1] is None and lazy[word[-1]] is None


def _is_primitive(w: tuple) -> bool:
    n = len(w)
    return not any(n % d == 0 and w == w[d:] + w[:d] for d in range(1, n))


def is_band_walk(f: FringedQuiver, w: Walk) -> bool:
    word = _string_codes(f, w) if w else None
    return bool(word) and word[0] in f.calculus.cont[word[-1]] and _is_primitive(w)


def band_words(f: FringedQuiver, max_arrows: int, mode: str):
    """The canonical code word of each band with at most max_arrows arrows
    once, in trail_key order: of every band in mode "list", of those that
    repeat no code in mode "free" (the elementary search), which marks the
    codes on the walk.  Nothing is interned.

    Each closed walk is grown from its least code, among the codes that lie on
    cycles of the transition graph.  The starts and each node's continuations
    come in increasing code order, so closed walks come in lexicographic
    order, each prefix before its extensions.  A band's canonical word starts
    at its least code, so the search meets it once; a walk is kept when it is
    that word: primitive, its own least rotation, and no greater than the
    least rotation of its inverse.  A walk that meets its start only once has
    its least code at one position alone, so it passes the first two checks.
    """
    if max_arrows < 1:
        raise DomainError("max_arrows must be >= 1")
    calc = f.calculus
    cont, on_cycle = calc.cont, calc.on_cycle
    free = mode == "free"
    used = [False] * len(cont)  # per code: on the walk, in mode "free"
    for start in sorted(on_cycle):
        walk = [start]
        used[start] = free
        stack = [iter(cont[start])]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                used[walk.pop()] = False
                continue
            if nxt == start:
                w = tuple(walk)
                if ((start not in w[1:] or _is_primitive(w) and least_rotation(w) == w)
                        and w <= least_rotation(_inverse_codes(w))):
                    yield w
            if nxt >= start and not used[nxt] and nxt in on_cycle and len(walk) < max_arrows:
                used[nxt] = free
                walk.append(nxt)
                stack.append(iter(cont[nxt]))


def enumerate_bands(f: FringedQuiver, max_arrows: int) -> list[Band]:
    """All bands with at most max_arrows arrows, up to rotation and inversion,
    each once, interned, in trail_key order."""
    band = f.calculus.universe.band
    return [band(w) for w in band_words(f, max_arrows, "list")]


# -- substrings: tops, bottoms, boosted, criss-crossed -------------------------

# A kiss witness is a code word, canonical as min(word, inverse), or the lazy
# string at the internal vertex of rank r, coded (r - |V_int|,): it sorts
# before every word, so min() picks lazy strings first, by vertex name.


def _junction_pairs(t: Trail, w: tuple[int, ...]):
    """The junctions of t, whose code word is w: its consecutive code pairs
    (c, d), cyclically for a band.  Each is the lazy string lazy[c] at the
    internal head of c, a top when c is backward and d forward, a bottom
    when the reverse."""
    return zip(w, w[1:] + w[:1]) if isinstance(t, Band) else zip(w, w[1:])


def _closing_witnesses(w: tuple[int, ...], iw: tuple[int, ...], lazy, c: int) -> list:
    """Canonical witnesses whose right flank is c, appended to the code word w
    (iw is its inverse): the lazy string between w[-1] and c and the words
    w[i:], i >= 1, whose left flank w[i - 1] has the other sign than c.

    They are tops when c is forward, bottoms when c is backward.
    """
    r = c & 1
    n = len(w)
    out = [lazy[w[-1]]] if w[-1] & 1 != r else []
    for i in range(1, n):
        if w[i - 1] & 1 != r:
            word, inv = w[i:], iw[:n - i]
            out.append(word if word <= inv else inv)
    return out


def _flanked_witnesses(u: tuple[int, ...], lazy, right_flanks, cap: int):
    """(tops, bottoms) of the occurrences in u that end just before a
    position of right_flanks and have at most cap arrows."""
    tops, bottoms = set(), set()
    for k in right_flanks:
        w = u[max(0, k - cap - 1):k]
        (bottoms if u[k] & 1 else tops).update(
            _closing_witnesses(w, _inverse_codes(w), lazy, u[k]))
    return tops, bottoms


def _vertex_tables(f: FringedQuiver, code: dict[SignedArrow, int], inner: list[str]):
    """(cont, lazy, family, steps), indexed by signed-arrow code, from one
    pass over the relation pairs ((a1, a2), (b1, b2)) at each internal vertex
    v, the vertex of rank r in `inner`.  The codes with head v are a1, a2^-1
    (family S, 0) and b1, b2^-1 (family T, 1).  A code c of family S goes on
    to b2 or b1^-1 and one of T to a2 or a1^-1: cont[c] is that pair in
    increasing code order, the order route_words takes it in, () at a fringe
    head.  lazy[c] is the lazy witness (r - |V_int|,) at v; it and family[c]
    are None at a fringe head.

    steps holds the tracer's (Forward, Back) tables of `flows._branch`
    entries: None where the head (tail) of the code is a fringe vertex, else
    (code on the upper branch, code on the lower branch, ranks of alpha' and
    beta').  Forward at the head of c goes on to cont[c], with alpha' the
    forward successor and beta' the other arrow of c's relation pair; Back at
    the tail of c ^ 1 is that Forward with alpha' and beta swapped."""
    n = len(code)
    cont: list[tuple[int, ...]] = [()] * n
    lazy: list[tuple[int] | None] = [None] * n
    family: list[int | None] = [None] * n
    fwd, bwd = [None] * n, [None] * n
    for r, v in enumerate(inner, -len(inner)):
        (a1, a2), (b1, b2) = f.relation_pairs[v]
        s, t = (code[(a1, 1)], code[(a2, -1)]), (code[(b1, 1)], code[(b2, -1)])
        for fam, (x, y), (x2, y2) in ((0, s, t), (1, t, s)):
            onward = tuple(sorted((y2 ^ 1, x2 ^ 1)))
            for c, other in ((x, y), (y, x)):
                cont[c], lazy[c], family[c] = onward, (r,), fam
                fwd[c] = y2 ^ 1, x2 ^ 1, y2 >> 1, other >> 1
                bwd[c ^ 1] = x2, y2, x2 >> 1, other >> 1
    return cont, lazy, family, (fwd, bwd)


class TrailCalculus:
    """Per-quiver trail universe, straight routes, substring data and kissing.

    cont, lazy, family and steps are the code tables of _vertex_tables."""

    def __init__(self, f: FringedQuiver):
        self.f = f
        self.universe = TrailUniverse(f.arrows)
        self._inner = sorted(f.internal_vertices)
        self._tb: dict = {}
        self.cont, self.lazy, self.family, self.steps = _vertex_tables(f, self.universe.code, self._inner)

    @cached_property
    def on_cycle(self) -> set[int]:
        """The codes on cycles of the transition graph cont: those of bands."""
        return cyclic_core(range(len(self.cont)), self.cont.__getitem__)

    @cached_property
    def to_end(self) -> list[int | None]:
        """to_end[c]: the fewest codes after c on a string that ends at a
        fringe head (None if none does), breadth first back from the end codes
        e (lazy[e] is None).  A string inverts, so the codes that may come just
        before c are the y ^ 1, y in cont[c ^ 1]."""
        dist = [0 if z is None else None for z in self.lazy]
        queue = [e for e, d in enumerate(dist) if d == 0]
        for e in queue:  # it grows as it is read
            for y in self.cont[e ^ 1]:
                if dist[y ^ 1] is None:
                    dist[y ^ 1] = dist[e] + 1
                    queue.append(y ^ 1)
        return dist

    @cached_property
    def last_start(self) -> list[int]:
        """last_start[c]: the greatest e ^ 1 over the end codes e reachable
        from c (-1 if none is).  The ends are searched back by decreasing e ^ 1,
        each as a search forward from e ^ 1 that sets y ^ 1 per code y reached;
        the first search to reach a code sets it, and later ones stop there."""
        last = [-1] * len(self.cont)
        for s in reversed(range(len(last))):
            todo = [s] if self.lazy[s ^ 1] is None else []
            while todo:
                y = todo.pop()
                if last[y ^ 1] < 0:
                    last[y ^ 1] = s
                    todo += self.cont[y]
        return last

    def witness(self, s: tuple[int, ...]):
        """A code witness as a walk, or as ("lazy", v) for a lazy string."""
        if s[0] < 0:
            return ("lazy", self._inner[s[0]])
        return tuple(self.universe.signed[c] for c in s)

    def codes(self, t: Trail) -> tuple[int, ...]:
        """The code word of t in this quiver's universe: the one place where a
        trail enters it.  A trail of this universe was built here and is
        trusted; one of another must be a route (band) walk of the quiver."""
        if t.universe is self.universe:
            return t.codes
        band = isinstance(t, Band)
        if not (is_band_walk if band else is_route_walk)(self.f, t.walk):
            raise DomainError(f"not a {'band' if band else 'route'} of this quiver")
        return self.universe.word(t.walk)

    @cached_property
    def straight(self) -> list[Route]:
        """The straight routes in trail_key order."""
        lazy, cont = self.lazy, self.cont
        routes = set()
        for c in range(0, len(lazy), 2):  # forward codes
            if lazy[c ^ 1] is not None:
                continue  # the arrow's tail is internal
            word = [c]
            while lazy[word[-1]] is not None:
                nxt = [x for x in cont[word[-1]] if not x & 1]
                if len(nxt) != 1:
                    raise DomainError("no unique oriented continuation (not a fringed quiver?)")
                word.append(nxt[0])
            routes.add(self.universe.route(tuple(word)))
        return sorted(routes, key=trail_key)

    @cached_property
    def elementary(self) -> tuple[list[Route], list[Band]]:
        """The elementary routes and bands in trail_key order, from the
        repeat-free modes of route_words and band_words, up to
        elementary_trail_bound."""
        f, u = self.f, self.universe
        bound = elementary_trail_bound(f)
        return ([u.route(w) for w, _ok in route_words(f, bound, "free") if _elementary_word(self, w, False)],
                [u.band(w) for w in band_words(f, bound, "free") if _elementary_word(self, w, True)])

    def tops_bottoms(self, t: Trail, cap: int):
        """Canonical top and bottom substrings of t^{±1} usable as kiss
        witnesses, as code tuples.

        Only occurrences flanked by actual arrows count: a kiss needs the walk
        to turn away (tops) or in (bottoms) on both sides of the witness.  A
        band is read cyclically, with witnesses of at most `cap` arrows; a
        route's witnesses are shorter than the route, so routes are cached
        without the cap.
        """
        key = t if isinstance(t, Route) else (t, cap)
        hit = self._tb.get(key)
        if hit is None:
            w = self.codes(t)
            n = len(w)
            if isinstance(t, Route):
                hit = _flanked_witnesses(w, self.lazy, range(1, n), n)
            else:
                u = w * ((cap + 1) // n + 2)
                hit = _flanked_witnesses(u, self.lazy, range(cap + 1, cap + 1 + n), cap)
            self._tb[key] = hit
        return hit

    def kiss(self, p: Trail, q: Trail):
        """An incompatibility witness between p and q, or None if compatible.

        A witness occurs in both trails, so its length is under |p|+|q|: for
        routes that is automatic, and for bands a longer common factor of the
        periodic unrollings would force equal primitive bands (Fine and Wilf).
        """
        cap = len(p) + len(q)
        tp, bp = self.tops_bottoms(p, cap)
        tq, bq = self.tops_bottoms(q, cap)
        hits = (tp & bq) | (tq & bp)
        if not hits:
            return None
        return self.witness(min(hits))

    def compatible(self, p: Trail, q: Trail) -> bool:
        return self.kiss(p, q) is None

    def self_compatible(self, p: Trail) -> bool:
        return self.kiss(p, p) is None


def route_words(f: FringedQuiver, max_arrows: int, mode: str):
    """Each route with at most max_arrows arrows once, as (its code word, is
    it self-compatible), in trail_key order; complete when f is
    representation-finite and the bound is at least |E|.  A route that kisses
    itself is flagged False in mode "flag" and left out in mode "cut"; mode
    "list" checks none and flags each None.  Mode "free", the elementary
    search, is "list" over the routes that repeat no code: it marks the codes
    on the walk and skips a marked one (an end code has a fringe head, so it
    is never on the walk before it).  In mode "cut", which alone feeds kiss,
    each route is interned with its witnesses left in the calculus; the
    other modes intern none and keep no witnesses.

    Depth-first on codes with an explicit stack of continuation iterators, so
    no recursion limit applies.  The roots and each node's continuations come
    in increasing code order, and no route walk is a prefix of another, so
    route walks come in lexicographic order; the search keeps a walk w when
    w <= inverse(w), the route's code word.  It keeps the tops and bottoms of
    a prefix that does not kiss itself: a forward arrow adds only tops, a
    backward one only bottoms, and the prefix kisses itself once a new top is
    a known bottom or a new bottom a known top.  So does every extension, as
    a witness flanked in a prefix stays flanked: "cut" drops the branch,
    "flag" walks it without witnesses.  A route's witnesses are all shorter
    than it, so no cap excludes one.

    Two more cuts drop the next code c of a prefix of length l and first
    code s (c at the root) when l + 1 + to_end[c] > max_arrows, as no route
    through c is that short, or when last_start[c] < s.  A route from s to an
    end e passes the second cut if e ^ 1 >= s, as its codes all reach e: so
    its code word, which starts at the lesser of s and e ^ 1, passes.
    """
    if max_arrows < 1:
        raise DomainError("max_arrows must be >= 1")
    calc = f.calculus
    lazy, cont, last, to_end = calc.lazy, calc.cont, calc.last_start, calc.to_end
    cut, check, free = mode == "cut", mode in ("cut", "flag"), mode == "free"
    used = [False] * len(lazy)  # per code: on the walk, in mode "free"
    walk = inv = ()  # the prefix's code word and its inverse
    tops, bottoms = set(), set()
    # per prefix, from the empty one: (the set its last arrow added to, what
    # it added), or None when the prefix kisses itself or is not checked
    added: list = [(tops, set()) if check else None]
    # last[c] >= 0 when an end is reachable from c, so to_end[c] is not None
    roots = [c for c in range(len(lazy)) if lazy[c ^ 1] is None and last[c] >= c and to_end[c] < max_arrows]
    stack = [iter(roots)]
    while stack:
        c = next(stack[-1], None)
        if c is None:
            stack.pop()
            undo = added.pop()
            if undo is not None:
                undo[0].difference_update(undo[1])
            if walk:
                used[walk[-1]] = False
                walk, inv = walk[:-1], inv[1:]
            continue
        undo = None
        if added[-1] is not None:
            mine, other = (bottoms, tops) if c & 1 else (tops, bottoms)
            new = set(_closing_witnesses(walk, inv, lazy, c)) if walk else set()
            if other.isdisjoint(new):
                new -= mine
                mine |= new
                undo = mine, new
        if undo is None and cut:
            continue
        if lazy[c] is not None:  # the cuts leave room for c's continuation
            used[c] = free
            walk, inv = walk + (c,), (c ^ 1,) + inv
            s, room = walk[0], max_arrows - len(walk) - 1
            stack.append(iter([d for d in cont[c] if not used[d] and last[d] >= s and to_end[d] <= room]))
            added.append(undo)
            continue
        if (word := walk + (c,)) <= (c ^ 1,) + inv:  # the route's code word
            if cut:  # so undo is not None
                # the prefix witnesses are the route's: spare kiss computing them again
                calc._tb.setdefault(calc.universe.route(word), (set(tops), set(bottoms)))
            yield word, (undo is not None) if check else None
        if undo is not None:
            undo[0].difference_update(undo[1])


def enumerate_routes(f: FringedQuiver, max_arrows: int) -> set[Route]:
    """All routes with at most max_arrows arrows, up to equivalence."""
    route = f.calculus.universe.route
    return {route(w) for w, _ok in route_words(f, max_arrows, "list")}


def self_compatible_routes(f: FringedQuiver, max_arrows: int) -> list[Route]:
    """The self-compatible routes of route_words, interned, in trail_key order."""
    route = f.calculus.universe.route
    return [route(w) for w, _ok in route_words(f, max_arrows, "cut")]


# -- boosted / criss-crossed ---------------------------------------------------

def _occurrence_counts(t: Trail, w: tuple[int, ...]):
    """Map code word -> number of same-direction occurrences in t, whose code
    word is w (band: per period, words up to two periods long)."""
    counts: dict[tuple[int, ...], int] = {}
    n = len(w)
    u, longest = (w, n) if isinstance(t, Route) else (w * 3, 2 * n)
    for i in range(n):
        for j in range(i + 1, min(i + longest, len(u)) + 1):
            counts[u[i:j]] = counts.get(u[i:j], 0) + 1
    return counts


def _boosted_crisscrossed_codes(calc: TrailCalculus, t: Trail):
    """(maximal boosted, maximal criss-crossed) substrings of t as code
    witnesses.  A lazy substring is boosted when one family of its junctions
    repeats (so when it occurs three or more times), criss-crossed when both
    families meet there.

    When no arrow occurs twice in w, no word is boosted or criss-crossed, so
    only the lazy families are counted.  Proof: two same-direction occurrences
    of a word (for a band, at two starts within one period) would start with
    the same code at two positions of w; an occurrence of a word and one of
    its inverse would hold the codes c and c ^ 1 of one arrow, which are
    different codes, so again at two positions of w.
    """
    w = calc.codes(t)
    boosted, criss = set(), set()
    counts = _occurrence_counts(t, w) if len({c >> 1 for c in w}) < len(w) else {}
    for word, c in counts.items():
        inv = _inverse_codes(word)
        if c >= 2 or inv in counts:
            canon = min(word, inv)
            if c >= 2:
                boosted.add(canon)
            if inv in counts:
                criss.add(canon)
    lazy, family = calc.lazy, calc.family
    families: dict[tuple[int], list[int]] = {}  # per lazy witness, its S and T junctions
    for c, _d in _junction_pairs(t, w):
        families.setdefault(lazy[c], [0, 0])[family[c]] += 1
    for s, (n_s, n_t) in families.items():
        if max(n_s, n_t) >= 2:
            boosted.add(s)
        if n_s and n_t:
            criss.add(s)
    return _maximal_only(lazy, boosted), _maximal_only(lazy, criss)


def _maximal_only(lazy, subs: set) -> set:
    """The code witnesses of subs inside no other one: a lazy string lies in
    every word through its vertex, a word in every longer word that contains
    it or its inverse."""
    words = [s for s in subs if s[0] >= 0]
    passed = {lazy[c] for u in words for c in (u[0] ^ 1, *u)}
    both_ways = [x for u in words for x in (u, _inverse_codes(u))]

    def inside(s):
        m = len(s)
        return any(len(x) > m and any(x[i:i + m] == s for i in range(len(x) - m + 1))
                   for x in both_ways)

    return {s for s in subs if (s not in passed if s[0] < 0 else not inside(s))}


def boosted_and_crisscrossed(f: FringedQuiver, t: Trail):
    """Maximal boosted and maximal criss-crossed substrings of t.

    Nonempty witnesses are canonical words; lazy witnesses are ("lazy", v).
    """
    calc = f.calculus
    boosted, criss = _boosted_crisscrossed_codes(calc, t)
    return set(map(calc.witness, boosted)), set(map(calc.witness, criss))


# -- elementary trails ---------------------------------------------------------
#
# An elementary trail repeats no code (a repeated code is a one-code word met
# twice in one direction, so boosted), so the elementary search grows only
# repeat-free code words (mode "free") and interns only the trails it keeps.


def _elementary_word(calc: TrailCalculus, w: tuple[int, ...], band: bool) -> bool:
    """Is the route (band) of the code word w elementary?  That is:
    self-compatible, nothing boosted, and at most one maximal criss-crossed
    substring, which for a route must be a word through a fringe vertex.  In
    O(len(w)).  A repeated code is boosted, and it meets the vertex at its
    head twice in one family (an end code has a fringe head, so it ends a
    route and occurs once), so the first loop rejects it.  Else three cases:

    1. No junction vertex repeats: elementary.  A kiss, a boosted and a
       criss-crossed substring each occur twice, so they repeat an arrow or
       a junction vertex, and an arrow met as c and as c ^ 1 meets the head
       of c at two junctions.
    2. A junction vertex repeats, no arrow does.  One family twice there is
       boosted, a top and a bottom there kiss, and else the lazy string
       there is criss-crossed, inside no criss-crossed word (there is none).
       A lazy string never reaches the fringe, so a route is not
       elementary; a band is when there is one such vertex.
    3. An arrow repeats.  A word and its inverse occur at most once each, so
       the criss-crossed words are the runs of positions whose codes' mates
       c ^ 1 sit at consecutive positions in reverse order: a run goes on
       over each junction whose inverse junction occurs.  A maximal run and
       its mirror, which has the same vertices, make one maximal
       criss-crossed word, which holds every lazy one through its vertices.
       Inside it the mirror junctions turn alike, so only the whole word may
       kiss, when its two occurrences turn opposite ways; on a route that
       reaches the fringe one occurrence ends the route and has no flank.
    """
    lazy, family = calc.lazy, calc.family
    junctions = list(zip(w, w[1:] + w[:1] if band else w[1:]))
    first, both = {}, set()  # per junction vertex, its first (family, turn); those met twice
    for c, d in junctions:
        v, turn = lazy[c], (c & 1) - (d & 1)  # turn 1 at a top, -1 at a bottom
        seen = first.get(v)
        if seen is None:
            first[v] = family[c], turn
        elif v in both or seen[0] == family[c] or seen[1] * turn < 0:
            return False  # a family twice (boosted) or a top and a bottom (a kiss)
        else:
            both.add(v)
    if not both:
        return True
    codes, pairs = set(w), set(junctions)
    crossed = [i for i, c in enumerate(w) if c ^ 1 in codes]
    starts = [i for i in crossed if not ((band or i) and (w[i] ^ 1, w[i - 1] ^ 1) in pairs)]
    if not starts:
        return band and len(both) == 1
    if len(starts) > 2:  # more than one run and its mirror
        return False
    vertices = {lazy[x] for i in crossed for x in (w[i], w[i] ^ 1)}  # the run's
    if not both <= vertices:
        return False
    if not band:
        return None in vertices
    # each run ends at the mate of the other's start; a turn is read off flanks
    turns = [(w[i - 1] & 1) - (w[(w.index(w[j] ^ 1) + 1) % len(w)] & 1) for i, j in (starts, starts[::-1])]
    return turns[0] * turns[1] >= 0


def is_elementary_route(f: FringedQuiver, p: Route) -> bool:
    """Simple routes and lollipops: self-compatible, no boosted substring,
    and any lone maximal criss-crossed substring must reach a fringe vertex."""
    return _elementary_word(f.calculus, f.calculus.codes(p), False)


def is_elementary_band(f: FringedQuiver, b: Band) -> bool:
    """Simple bands and barbells: self-compatible, no boosted substring, at
    most one maximal criss-crossed substring."""
    return _elementary_word(f.calculus, f.calculus.codes(b), True)


def elementary_trail_bound(f: FringedQuiver) -> int:
    # An elementary trail meets an internal vertex at most once per family
    # (twice is boosted), so it has at most 2|Vint| junctions: a band has
    # that many arrows, a route one more.  The bound has one to spare.
    return 2 * len(f.internal_vertices) + 2


def elementary_routes(f: FringedQuiver) -> list[Route]:
    return list(f.calculus.elementary[0])


def elementary_bands(f: FringedQuiver) -> list[Band]:
    return list(f.calculus.elementary[1])


def is_straight(t: Trail) -> bool:
    """A route whose codes all have one parity: all forward or all backward.
    A plain loop: twice as fast as a set of signs, and all() over a generator."""
    if not isinstance(t, Route) or not t.codes:
        return False
    r = t.codes[0] & 1
    for c in t.codes:
        if c & 1 != r:
            return False
    return True


def straight_routes(f: FringedQuiver) -> list[Route]:
    return list(f.calculus.straight)


# -- g-vectors ------------------------------------------------------------------

def g_vector(f: FringedQuiver, t: Trail) -> dict[str, int]:
    """Top-minus-bottom counts of internal lazy substrings, indexed by V_int."""
    calc = f.calculus
    lazy = calc.lazy
    g = dict.fromkeys(f.internal_vertices, 0)
    for c, d in _junction_pairs(t, calc.codes(t)):
        if c & 1 != d & 1:
            g[calc._inner[lazy[c][0]]] += 1 if c & 1 else -1
    return g


# -- marked trails and the countercurrent order ----------------------------------

class MarkedTrail(Value):
    """A trail with one marked signed-arrow occurrence.

    codes is a traversal of the trail as a code word of trail.universe, and
    index points at the marked occurrence: for a route, p or p^-1 whole; for
    a band, one period of B or B^-1 read from the mark, so index is 0.
    Markings of one universe are equal when they mark the same trail, walked
    in the same direction, at the same occurrence: (p marked at a^e) and its
    view from the other side, (p^-1 marked at a^-e), are not equal.
    """
    trail: Trail
    codes: tuple[int, ...]
    index: int

    def __init__(self, trail, codes, index):
        self.__dict__.update(trail=trail, codes=codes, index=index, _key=(trail, codes, index))

    @cached_property
    def walk(self) -> Walk:
        return tuple(map(self.trail.universe.signed.__getitem__, self.codes))

    def marked(self) -> SignedArrow:
        return self.trail.universe.signed[self.codes[self.index]]

    def at(self, j: int) -> "MarkedTrail":
        """The marking of the same traversal at its position j."""
        if isinstance(self.trail, Band):
            return MarkedTrail(self.trail, self.codes[j:] + self.codes[:j], 0)
        return MarkedTrail(self.trail, self.codes, j)

    def inverse(self) -> "MarkedTrail":
        """The same occurrence, walked the other way."""
        w, i = self.codes, self.index
        if isinstance(self.trail, Band):
            return MarkedTrail(self.trail, _inverse_codes(w[i + 1:] + w[:i + 1]), 0)
        return MarkedTrail(self.trail, _inverse_codes(w), len(w) - 1 - i)

    def viewed_at(self, a: str, eps: int) -> "MarkedTrail":
        c, m = self.trail.universe.code.get((a, eps)), self.codes[self.index]
        if m == c:
            return self
        if c is not None and m == c ^ 1:
            return self.inverse()
        raise DomainError(f"trail is not marked at {a}^{eps}")


def markings_at(t: Trail, a: str, eps: int) -> list[MarkedTrail]:
    """All markings of t^{±1} at the signed arrow a^eps, one per occurrence."""
    whole = MarkedTrail(t, t.codes, 0)
    return [whole.at(i).viewed_at(a, eps) for i, (x, _e) in enumerate(t.walk) if x == a]


def _in_universe(calc: TrailCalculus, m: MarkedTrail) -> MarkedTrail:
    """m in the universe of calc; one of another universe has its trail read
    through calc.codes and its traversal through its walk, once."""
    u = calc.universe
    if m.trail.universe is not u:
        trail = (u.band if isinstance(m.trail, Band) else u.route)(calc.codes(m.trail))
        m = MarkedTrail(trail, u.word(m.walk), m.index)
    if not 0 <= m.index < len(m.codes):
        raise DomainError(f"marked position {m.index} is outside the trail")
    return m


def _post_sequence(m: MarkedTrail, length: int) -> tuple[int, ...]:
    w = m.codes * (length // len(m.codes) + 2) if isinstance(m.trail, Band) else m.codes
    return w[m.index + 1:m.index + 1 + length]


def _cmp_post(p: MarkedTrail, q: MarkedTrail) -> int:
    horizon = 2 * (len(p.codes) + len(q.codes)) + 4
    sp, sq = _post_sequence(p, horizon), _post_sequence(q, horizon)
    for x, y in zip(sp, sq):
        if x != y:
            # after the common prefix one walk turns forward (an even code), the other back
            return 1 if x & 1 else -1
    if len(sp) == len(sq):
        return 0
    # one route ended while the other continues: impossible through a fringe
    # vertex, so the shorter one ended at a fringe vertex the longer re-enters
    raise DomainError("not comparable")


def countercurrent_compare(f: FringedQuiver, p: MarkedTrail, q: MarkedTrail) -> int:
    """The order ≺ at the common marked signed arrow: -1, 0 or 1.

    Combines the post- and pre-orders, on the codes of f's universe; raises
    DomainError("not comparable") when they disagree (which cannot happen
    for compatible trails).
    """
    p, q = _in_universe(f.calculus, p), _in_universe(f.calculus, q)
    q = q.viewed_at(*p.marked())
    post = _cmp_post(p, q)
    # pre-order via inversion: the walk before the mark becomes the walk after
    # it with flipped signs, which also flips which trail counts as smaller
    pre = -_cmp_post(p.inverse(), q.inverse())
    if post and pre and post != pre:
        raise DomainError("not comparable")
    return post or pre

"""Strings, routes and bands on a fringed quiver, and their combinatorics.

A walk is a tuple of signed arrows (arrow id, +1/-1).  Routes are maximal
strings (fringe endpoint to fringe endpoint), bands are primitive cyclic
strings.  Substring classification (top/bottom, boosted, criss-crossed) drives
kissing/compatibility, the countercurrent order and g-vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .quiver import DomainError, FringedQuiver, cyclic_core

SignedArrow = tuple[str, int]
Walk = tuple[SignedArrow, ...]


def inverse_walk(w: Walk) -> Walk:
    return tuple((a, -e) for a, e in reversed(w))


def walk_head(f: FringedQuiver, w: Walk) -> str:
    a, e = w[-1]
    return f.signed_head(a, e)


def walk_tail(f: FringedQuiver, w: Walk) -> str:
    a, e = w[0]
    return f.signed_tail(a, e)


def format_walk(w: Walk) -> str:
    return " ".join(a if e == 1 else f"{a}^-1" for a, e in w)


def parse_walk(text: str) -> Walk:
    walk = []
    for token in text.split():
        if token.endswith("^-1"):
            walk.append((token[:-3], -1))
        else:
            walk.append((token, 1))
    return tuple(walk)


def is_string(f: FringedQuiver, w: Walk) -> bool:
    """The four string conditions: known arrows, composability, no relation
    crossing, no immediate backtrack."""
    for a, _e in w:
        if a not in f.arrows:
            raise DomainError(f"unknown arrow id {a}")
    for (a, e), (b, z) in zip(w, w[1:]):
        if f.signed_head(a, e) != f.signed_tail(b, z):
            return False
        if (b, z) not in f.string_continuations(a, e):
            return False
    return True


def _walk_key(w: Walk):
    # +1 sorts before -1 so that "e1" < "e1^-1" as in the serialized form
    return tuple((a, 0 if e == 1 else 1) for a, e in w)


# -- Routes and bands ---------------------------------------------------------

_route_cache: dict[Walk, "Route"] = {}
_band_cache: dict[Walk, "Band"] = {}


@dataclass(frozen=True)
class Route:
    walk: Walk  # canonical representative among {p, p^-1}

    @staticmethod
    def of(w: Walk) -> "Route":
        hit = _route_cache.get(w)
        if hit is None:
            inv = inverse_walk(w)
            hit = Route(w if _walk_key(w) <= _walk_key(inv) else inv)
            _route_cache[w] = hit
            _route_cache[inv] = hit
        return hit

    @cached_property
    def sort_key(self):
        return (False, _walk_key(self.walk))

    def __str__(self) -> str:
        return format_walk(self.walk)

    def __len__(self) -> int:
        return len(self.walk)


@dataclass(frozen=True)
class Band:
    walk: Walk  # lex-min over all rotations of B and B^-1

    @staticmethod
    def of(w: Walk) -> "Band":
        hit = _band_cache.get(w)
        if hit is None:
            best = None
            for cand in (w, inverse_walk(w)):
                for i in range(len(cand)):
                    rot = cand[i:] + cand[:i]
                    if best is None or _walk_key(rot) < _walk_key(best):
                        best = rot
            hit = Band(best)
            _band_cache[w] = hit
        return hit

    @cached_property
    def sort_key(self):
        return (True, _walk_key(self.walk))

    def __str__(self) -> str:
        return "band: " + format_walk(self.walk)

    def __len__(self) -> int:
        return len(self.walk)


Trail = Route | Band


def trail_key(t: Trail):
    """Deterministic sort key: routes before bands, then lexicographic."""
    return t.sort_key


def parse_trail(text: str) -> Trail:
    text = text.strip()
    if text.startswith("band:"):
        return Band.of(parse_walk(text[len("band:"):]))
    return Route.of(parse_walk(text))


def is_route_walk(f: FringedQuiver, w: Walk) -> bool:
    return (is_string(f, w)
            and not f.is_internal(walk_tail(f, w))
            and not f.is_internal(walk_head(f, w)))


def _is_primitive(w: Walk) -> bool:
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w == w[d:] + w[:d]:
            return False
    return True


def is_band_walk(f: FringedQuiver, w: Walk) -> bool:
    if not w or not is_string(f, w):
        return False
    if walk_head(f, w) != walk_tail(f, w):
        return False
    a, e = w[-1]
    if w[0] not in f.string_continuations(a, e):
        return False
    return _is_primitive(w)


def enumerate_routes(f: FringedQuiver, max_arrows: int) -> set[Route]:
    """All routes with at most max_arrows arrows, up to equivalence.

    Complete when f is representation-finite and the bound is at least |E|.
    Depth-first with an explicit stack of continuation iterators, so no
    recursion limit applies.
    """
    if max_arrows < 1:
        raise DomainError("max_arrows must be >= 1")
    starts = []
    for a in f.arrows:
        if not f.is_internal(f.tail(a)):
            starts.append((a, 1))
        if not f.is_internal(f.head(a)):
            starts.append((a, -1))
    found: set[Route] = set()
    walk: list[SignedArrow] = []
    stack = [iter(starts)]
    while stack:
        x = next(stack[-1], None)
        if x is None:
            stack.pop()
            if stack:
                walk.pop()
            continue
        walk.append(x)
        if not f.is_internal(f.signed_head(*x)):
            found.add(Route.of(tuple(walk)))
        elif len(walk) < max_arrows:
            stack.append(iter(f.string_continuations(*x)))
            continue
        walk.pop()
    return found


def enumerate_bands(f: FringedQuiver, max_arrows: int) -> set[Band]:
    """All bands with at most max_arrows arrows, up to rotation and inversion."""
    if max_arrows < 1:
        raise DomainError("max_arrows must be >= 1")
    # Restrict to signed arrows lying on cycles of the transition graph.
    nodes = [(a, e) for a in sorted(f.arrows) for e in (1, -1)]
    on_cycle = cyclic_core(nodes, lambda n: f.string_continuations(*n))
    found: set[Band] = set()
    order = {n: i for i, n in enumerate(nodes)}

    for start in nodes:
        if start not in on_cycle:
            continue
        walk = [start]
        stack = [iter(f.string_continuations(*start))]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                walk.pop()
                continue
            if nxt not in on_cycle or order[nxt] < order[start]:
                continue
            if nxt == start:
                w = tuple(walk)
                if _is_primitive(w):
                    found.add(Band.of(w))
            if len(walk) < max_arrows:
                walk.append(nxt)
                stack.append(iter(f.string_continuations(*nxt)))
    return found


# -- substrings: tops, bottoms, boosted, criss-crossed -------------------------

# A substring witness is either a nonempty signed word or a lazy string at an
# internal vertex, carried as ("lazy", v).  Witnesses are canonical under
# inversion (lex-min of the two orientations).
#
# Kissing works on integer codes (FringedQuiver.signed_arrows): a word is a
# tuple of codes, its inverse the reversed tuple with every code XORed with 1,
# and its canonical form min(word, inverse).  The lazy string at the internal
# vertex of rank r in sorted order is (r - |V_int|,), which sorts before every
# word, so min() over witnesses picks lazy strings first, by vertex name, then
# words in serialized order.


def _canon_sub(s):
    if s[0] == "lazy":
        return s
    inv = inverse_walk(s)
    return s if _walk_key(s) <= _walk_key(inv) else inv


def _junctions(f: FringedQuiver, t: Trail):
    """Occurrences of internal lazy substrings with both flank signs.

    Yields (vertex, prev_sign, next_sign, junction_word); junctions at fringe
    vertices never occur (routes end there, bands never reach them).
    """
    w = t.walk
    if isinstance(t, Route):
        pairs = list(zip(w, w[1:]))
    else:
        pairs = list(zip(w, w[1:] + w[:1]))
    for (a, e), (b, z) in pairs:
        yield f.signed_head(a, e), e, z, ((a, e), (b, z))


def _inverse_codes(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(c ^ 1 for c in reversed(w))


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


class TrailCalculus:
    """Per-quiver cache of substring data, kissing and compatibility."""

    def __init__(self, f: FringedQuiver):
        self.f = f
        self._inner = sorted(f.internal_vertices)
        rank = {v: r - len(self._inner) for r, v in enumerate(self._inner)}
        # lazy[c]: the lazy witness at the head of the signed arrow with code
        # c, None when that head is a fringe vertex
        heads = (f.signed_head(a, e) for a, e in f.signed_arrows)
        self.lazy = [(rank[v],) if v in rank else None for v in heads]
        self._tb: dict = {}
        self._kiss: dict[tuple[Trail, Trail], object] = {}

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
            code = self.f.signed_code
            w = tuple(code[s] for s in t.walk)
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
        key = (p, q)
        if key in self._kiss:
            return self._kiss[key]
        cap = len(p.walk) + len(q.walk)
        tp, bp = self.tops_bottoms(p, cap)
        tq, bq = self.tops_bottoms(q, cap)
        hits = (tp & bq) | (tq & bp)
        witness = None
        if hits:
            s = min(hits)
            if s[0] < 0:
                witness = ("lazy", self._inner[s[0]])
            else:
                witness = tuple(self.f.signed_arrows[c] for c in s)
        self._kiss[key] = witness
        self._kiss[(q, p)] = witness
        return witness

    def compatible(self, p: Trail, q: Trail) -> bool:
        return self.kiss(p, q) is None

    def self_compatible(self, p: Trail) -> bool:
        return self.kiss(p, p) is None


def self_compatible_routes(f: FringedQuiver, max_arrows: int) -> set[Route]:
    """The routes of enumerate_routes(f, max_arrows) that do not kiss
    themselves, generated instead of filtered.

    The search keeps the tops and bottoms of the current prefix and cuts a
    branch as soon as a new top equals a known bottom or a new bottom a known
    top.  No self-compatible route is lost: a witness flanked inside a prefix
    stays flanked in every extension, and the witnesses of a route are all
    shorter than it, so no cap excludes one.  Appending a forward arrow adds
    only tops, a backward arrow only bottoms.
    """
    if max_arrows < 1:
        raise DomainError("max_arrows must be >= 1")
    calc = f.calculus
    lazy = calc.lazy
    cont = f.code_continuations
    signed = f.signed_arrows
    found: set[Route] = set()
    walk: tuple[int, ...] = ()
    inv: tuple[int, ...] = ()
    tops: set = set()
    bottoms: set = set()
    added = []  # per arrow of walk: (the set it added to, what it added)
    stack = [iter([c for c in range(len(signed)) if lazy[c ^ 1] is None])]
    while stack:
        c = next(stack[-1], None)
        if c is None:
            stack.pop()
            if stack:
                walk, inv = walk[:-1], inv[1:]
                mine, new = added.pop()
                mine -= new
            continue
        mine, other = (bottoms, tops) if c & 1 else (tops, bottoms)
        new = set(_closing_witnesses(walk, inv, lazy, c)) if walk else set()
        if not other.isdisjoint(new):
            continue  # the prefix kisses itself, and so does every extension
        new -= mine
        mine |= new
        walk, inv = walk + (c,), (c ^ 1,) + inv
        if lazy[c] is None:
            route = Route.of(tuple(signed[x] for x in walk))
            found.add(route)
            # the prefix witnesses are the route's: spare kiss computing them again
            calc._tb.setdefault(route, (set(tops), set(bottoms)))
        elif len(walk) < max_arrows:
            stack.append(iter(cont[c]))
            added.append((mine, new))
            continue
        walk, inv = walk[:-1], inv[1:]
        mine -= new
    return found


def calculus(f: FringedQuiver) -> TrailCalculus:
    return f.calculus


def is_self_compatible(f: FringedQuiver, p: Trail) -> bool:
    return calculus(f).self_compatible(p)


# -- boosted / criss-crossed ---------------------------------------------------

def _st_class(f: FringedQuiver, v: str, word) -> str:
    """Classify a length-two junction word through v into the S or T family.

    The eight length-two strings through v split into four and their inverses;
    a lazy substring is boosted when one family repeats and criss-crossed when
    both appear.
    """
    (a1, a2), (_b1, _b2) = f.relation_pairs[v]
    (x, ex), _ = word
    # S = walks whose first signed arrow enters v via a1 or backwards via a2
    if (x, ex) in ((a1, 1), (a2, -1)):
        return "S"
    return "T"


def _nonlazy_occurrence_counts(t: Trail):
    """Map word -> number of same-direction occurrences (band: per period)."""
    counts: dict[Walk, int] = {}
    w = t.walk
    n = len(w)
    if isinstance(t, Route):
        for i in range(n):
            for j in range(i, n):
                word = w[i:j + 1]
                counts[word] = counts.get(word, 0) + 1
    else:
        for i in range(n):
            for length in range(1, 2 * n + 1):
                word = tuple(w[(i + k) % n] for k in range(length))
                counts[word] = counts.get(word, 0) + 1
    return counts


def _word_vertices(f: FringedQuiver, word: Walk) -> set[str]:
    vs = {f.signed_tail(*word[0])}
    for a, e in word:
        vs.add(f.signed_head(a, e))
    return vs


def boosted_and_crisscrossed(f: FringedQuiver, t: Trail):
    """Maximal boosted and maximal criss-crossed substrings of t.

    Nonempty witnesses are canonical words; lazy witnesses are ("lazy", v).
    A lazy substring at an internal vertex occurring three or more times is
    automatically boosted (its S or T family must repeat).
    """
    counts = _nonlazy_occurrence_counts(t)
    boosted = set()
    criss = set()
    for word, c in counts.items():
        if c >= 2:
            boosted.add(_canon_sub(word))
        if inverse_walk(word) in counts:
            criss.add(_canon_sub(word))
    s_count: dict[str, int] = {}
    t_count: dict[str, int] = {}
    for v, _pe, _ne, word in _junctions(f, t):
        fam = _st_class(f, v, word)
        (s_count if fam == "S" else t_count)[v] = (s_count if fam == "S" else t_count).get(v, 0) + 1
    lazy_boosted = {("lazy", v) for v in set(s_count) | set(t_count)
                    if s_count.get(v, 0) >= 2 or t_count.get(v, 0) >= 2}
    lazy_criss = {("lazy", v) for v in set(s_count) & set(t_count)}
    boosted |= lazy_boosted
    criss |= lazy_criss
    return _maximal_only(f, boosted), _maximal_only(f, criss)


def _contains_sub(f: FringedQuiver, big, small) -> bool:
    if small == big:
        return False
    if big[0] == "lazy":
        return False
    if small[0] == "lazy":
        return small[1] in _word_vertices(f, big)
    for word in (big, inverse_walk(big)):
        n, m = len(word), len(small)
        for i in range(n - m + 1):
            if word[i:i + m] == small:
                return True
    return False


def _maximal_only(f: FringedQuiver, subs: set) -> set:
    return {s for s in subs if not any(_contains_sub(f, other, s) for other in subs)}


# -- elementary trails ---------------------------------------------------------

def is_elementary_route(f: FringedQuiver, p: Route) -> bool:
    """Simple routes and lollipops: no boosted substring, and any lone maximal
    criss-crossed substring must reach a fringe vertex."""
    if not is_self_compatible(f, p):
        return False
    boosted, criss = boosted_and_crisscrossed(f, p)
    if boosted:
        return False
    if not criss:
        return True
    if len(criss) > 1:
        return False
    (sub,) = criss
    if sub[0] == "lazy":
        return False  # internal lazy vertex: no fringe vertex inside
    fringe = set(f.fringe_vertices)
    return bool(_word_vertices(f, sub) & fringe)


def is_elementary_band(f: FringedQuiver, b: Band) -> bool:
    """Simple bands and barbells: no boosted substring, at most one maximal
    criss-crossed substring."""
    if not is_self_compatible(f, b):
        return False
    boosted, criss = boosted_and_crisscrossed(f, b)
    return not boosted and len(criss) <= 1


def elementary_trail_bound(f: FringedQuiver) -> int:
    # Vertex-counting on the simple/lollipop/barbell shapes gives 2|Vint|+2.
    return 2 * len(f.internal_vertices) + 2


def elementary_routes(f: FringedQuiver) -> list[Route]:
    bound = elementary_trail_bound(f)
    return sorted((p for p in self_compatible_routes(f, bound) if is_elementary_route(f, p)),
                  key=trail_key)


def elementary_bands(f: FringedQuiver) -> list[Band]:
    bound = elementary_trail_bound(f)
    return sorted((b for b in enumerate_bands(f, bound) if is_elementary_band(f, b)),
                  key=trail_key)


def is_straight(t: Trail) -> bool:
    if isinstance(t, Band):
        return False
    signs = {e for _a, e in t.walk}
    return len(signs) == 1


def straight_routes(f: FringedQuiver) -> list[Route]:
    routes = []
    for a in sorted(f.arrows):
        if f.is_internal(f.tail(a)):
            continue
        walk = [(a, 1)]
        while f.is_internal(f.signed_head(*walk[-1])):
            nxt = [x for x in f.string_continuations(*walk[-1]) if x[1] == 1]
            if len(nxt) != 1:
                raise DomainError("no unique oriented continuation (not a fringed quiver?)")
            walk.append(nxt[0])
        routes.append(Route.of(tuple(walk)))
    return sorted(set(routes), key=trail_key)


def straight_route_through(f: FringedQuiver, a: str) -> Route:
    for p in straight_routes(f):
        if any(x == a for x, _e in p.walk):
            return p
    raise DomainError(f"no straight route through {a}")


# -- g-vectors ------------------------------------------------------------------

def g_vector(f: FringedQuiver, t: Trail) -> dict[str, int]:
    """Top-minus-bottom counts of internal lazy substrings, indexed by V_int."""
    g = dict.fromkeys(f.internal_vertices, 0)
    for v, prev_e, next_e, _w in _junctions(f, t):
        if (prev_e, next_e) == (-1, 1):
            g[v] += 1
        elif (prev_e, next_e) == (1, -1):
            g[v] -= 1
    return g


# -- marked trails and the countercurrent order ----------------------------------

@dataclass(frozen=True)
class MarkedTrail:
    """A trail with one marked signed-arrow occurrence.

    walk is a concrete traversal (one period for a band); index points at the
    marked occurrence.  (p marked at a^e) == (p^-1 marked at a^-e).
    """
    trail: Trail
    walk: Walk
    index: int

    def marked(self) -> SignedArrow:
        return self.walk[self.index]

    def viewed_at(self, a: str, eps: int) -> "MarkedTrail":
        if self.marked() == (a, eps):
            return self
        if self.marked() == (a, -eps):
            inv = inverse_walk(self.walk)
            return MarkedTrail(self.trail, inv, len(self.walk) - 1 - self.index)
        raise DomainError(f"trail is not marked at {a}^{eps}")


def markings_at(t: Trail, a: str, eps: int) -> list[MarkedTrail]:
    """All markings of t^{±1} at the signed arrow a^eps, one per occurrence."""
    return [MarkedTrail(t, t.walk, i).viewed_at(a, eps)
            for i, (x, _e) in enumerate(t.walk) if x == a]


def _post_sequence(m: MarkedTrail, length: int) -> Walk:
    w, i = m.walk, m.index
    if isinstance(m.trail, Band):
        n = len(w)
        return tuple(w[(i + 1 + k) % n] for k in range(length))
    return w[i + 1:i + 1 + length]


def _cmp_post(f: FringedQuiver, p: MarkedTrail, q: MarkedTrail) -> int:
    horizon = 2 * (len(p.walk) + len(q.walk)) + 4
    sp = _post_sequence(p, horizon)
    sq = _post_sequence(q, horizon)
    for x, y in zip(sp, sq):
        if x != y:
            # after the common prefix one walk turns forward, the other back
            return -1 if x[1] == 1 else 1
    if len(sp) == len(sq):
        return 0
    # one route ended while the other continues: impossible through a fringe
    # vertex, so the shorter one ended at a fringe vertex the longer re-enters
    raise DomainError("not comparable")


def countercurrent_compare(f: FringedQuiver, p: MarkedTrail, q: MarkedTrail) -> int:
    """The order ≺ at the common marked signed arrow: -1, 0 or 1.

    Combines the post- and pre-orders; raises DomainError("not comparable")
    when they disagree (which cannot happen for compatible trails).
    """
    a, eps = p.marked()
    q = q.viewed_at(a, eps)
    post = _cmp_post(f, p, q)
    # pre-order via inversion: the walk before the mark becomes the walk after
    # it with flipped signs, which also flips which trail counts as smaller
    p_inv = p.viewed_at(a, -eps)
    q_inv = q.viewed_at(a, -eps)
    pre = -_cmp_post(f, p_inv, q_inv)
    if post == 0 and pre == 0:
        return 0
    if post == 0:
        return pre
    if pre == 0:
        return post
    if post != pre:
        raise DomainError("not comparable")
    return post

"""Strings, routes and bands on a fringed quiver, and their combinatorics.

A walk is a tuple of signed arrows (arrow id, +1/-1).  Routes are maximal
strings (fringe endpoint to fringe endpoint), bands are primitive cyclic
strings.  Substring classification (top/bottom, boosted, criss-crossed) drives
kissing/compatibility, the countercurrent order and g-vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def __str__(self) -> str:
        return "band: " + format_walk(self.walk)

    def __len__(self) -> int:
        return len(self.walk)


Trail = Route | Band


def trail_key(t: Trail):
    """Deterministic sort key: routes before bands, then lexicographic."""
    return (isinstance(t, Band), _walk_key(t.walk))


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

    def extend(walk: list[SignedArrow]):
        a, e = walk[-1]
        if not f.is_internal(f.signed_head(a, e)):
            found.add(Route.of(tuple(walk)))
            return
        if len(walk) == max_arrows:
            return
        for nxt in f.string_continuations(a, e):
            walk.append(nxt)
            extend(walk)
            walk.pop()

    for s in starts:
        extend([s])
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

    def extend(start, walk: list[SignedArrow]):
        a, e = walk[-1]
        for nxt in f.string_continuations(a, e):
            if nxt not in on_cycle or order[nxt] < order[start]:
                continue
            if nxt == start:
                w = tuple(walk)
                if _is_primitive(w):
                    found.add(Band.of(w))
            if len(walk) < max_arrows:
                walk.append(nxt)
                extend(start, walk)
                walk.pop()

    for s in nodes:
        if s in on_cycle:
            extend(s, [s])
    return found


# -- substrings: tops, bottoms, boosted, criss-crossed -------------------------

# A substring witness is either a nonempty signed word or a lazy string at an
# internal vertex, carried as ("lazy", v).  Witnesses are canonical under
# inversion (lex-min of the two orientations).

Lazy = tuple[str, str]


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


def _segment_occurrences(t: Trail, cap: int):
    """Nonempty substring occurrences with both flanking signed arrows.

    Yields (word, prev_signed, next_signed).  For a band the walk is read
    cyclically, windings up to `cap` arrows long.
    """
    w = t.walk
    n = len(w)
    if isinstance(t, Route):
        for i in range(1, n):
            for j in range(i, min(n - 1, i + cap - 1)):
                yield w[i:j + 1], w[i - 1], w[j + 1]
    else:
        for i in range(n):
            for length in range(1, cap + 1):
                word = tuple(w[(i + k) % n] for k in range(length))
                yield word, w[(i - 1) % n], w[(i + length) % n]


def _tops_bottoms(f: FringedQuiver, t: Trail, cap: int) -> tuple[frozenset, frozenset]:
    """Canonical top and bottom substrings of t^{±1} usable as kiss witnesses.

    Only occurrences flanked by actual arrows count: a kiss needs the walk to
    turn away (tops) or in (bottoms) on both sides of the witness.  Witnesses
    longer than `cap` arrows are not collected.
    """
    tops, bottoms = set(), set()
    for v, prev_e, next_e, _word in _junctions(f, t):
        if (prev_e, next_e) == (-1, 1):
            tops.add(("lazy", v))
        elif (prev_e, next_e) == (1, -1):
            bottoms.add(("lazy", v))
    for word, prev, nxt in _segment_occurrences(t, cap):
        if prev[1] == -1 and nxt[1] == 1:
            tops.add(_canon_sub(word))
        elif prev[1] == 1 and nxt[1] == -1:
            bottoms.add(_canon_sub(word))
    return frozenset(tops), frozenset(bottoms)


class TrailCalculus:
    """Per-quiver cache of substring data, kissing and compatibility."""

    def __init__(self, f: FringedQuiver):
        self.f = f
        self._tb: dict[tuple[Trail, int], tuple[frozenset, frozenset]] = {}
        self._kiss: dict[tuple[Trail, Trail], object] = {}

    def tops_bottoms(self, t: Trail, cap: int):
        key = (t, cap)
        if key not in self._tb:
            self._tb[key] = _tops_bottoms(self.f, t, cap)
        return self._tb[key]

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
            witness = min(hits, key=lambda s: (0, s[1]) if s[0] == "lazy" else (1, _walk_key(s)))
        self._kiss[key] = witness
        self._kiss[(q, p)] = witness
        return witness

    def compatible(self, p: Trail, q: Trail) -> bool:
        return self.kiss(p, q) is None

    def self_compatible(self, p: Trail) -> bool:
        return self.kiss(p, p) is None


def calculus(f: FringedQuiver) -> TrailCalculus:
    return f.calculus


def kiss(f: FringedQuiver, p: Trail, q: Trail):
    return calculus(f).kiss(p, q)


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
    return sorted((p for p in enumerate_routes(f, bound) if is_elementary_route(f, p)),
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

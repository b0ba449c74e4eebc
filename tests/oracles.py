"""Independent brute-force oracles, kept deliberately separate from the
library's own code paths."""

from fractions import Fraction as Q
from itertools import product
from math import lcm


def signed_head(f, a, eps):
    """The vertex a^eps ends at: the head of a, or the tail for eps = -1."""
    return f.head(a) if eps == 1 else f.tail(a)


def straight_route_count(f) -> int:
    """The number of straight routes of the fringed quiver f: 2 per internal
    vertex, less one per internal arrow."""
    return 2 * len(f.internal_vertices) - len(f.internal_arrows())


def oracle_is_string(f, walk) -> bool:
    """String axioms checked straight off the relation set."""
    rels = f.relations
    for (a, ea), (b, eb) in zip(walk, walk[1:]):
        ha = f.head(a) if ea == 1 else f.tail(a)
        tb = f.tail(b) if eb == 1 else f.head(b)
        if ha != tb:
            return False
        if ea == 1 and eb == 1 and (a, b) in rels:
            return False
        if ea == -1 and eb == -1 and (b, a) in rels:
            return False
        if a == b and ea == -eb:
            return False
    return True


def oracle_is_trail(f, walk, band: bool) -> bool:
    """A route: a nonempty string whose ends are fringe vertices.  A band: a
    nonempty string that is still one when walked once more around, and no
    proper rotation of which is itself.  The walk's arrows are f's."""
    if not walk:
        return False
    if band:
        return (oracle_is_string(f, walk + walk[:1])
                and all(walk[d:] + walk[:d] != walk for d in range(1, len(walk))))
    (a, ea), fringe = walk[0], set(f.fringe_vertices)
    return oracle_is_string(f, walk) and signed_head(f, a, -ea) in fringe and signed_head(f, *walk[-1]) in fringe


def oracle_bands(f, bound):
    """All bands with at most bound arrows, each once, in trail_key order:
    every string walk the trail oracle takes for a band, as the least code
    word of its rotations and their inverses, in f's universe."""
    from gentleflow.trails import Band, trail_key
    u = f.calculus.universe
    signed = [(a, e) for a in f.arrows for e in (1, -1)]
    after = {x: [y for y in signed if oracle_is_string(f, [x, y])] for x in signed}
    out = set()

    def ext(walk):
        if oracle_is_trail(f, walk, band=True):
            inverse = [(a, -e) for a, e in reversed(walk)]
            out.add(min(u.word(w[i:] + w[:i]) for w in (walk, inverse) for i in range(len(w))))
        if len(walk) < bound:
            for y in after[walk[-1]]:
                ext(walk + [y])

    for x in signed:
        ext([x])
    return sorted((Band(u, w) for w in out), key=trail_key)


def oracle_routes(f, bound):
    """All maximal strings between fringe vertices, as canonical walks."""
    from gentleflow.trails import Route
    fringe = set(f.fringe_vertices)
    starts = []
    for a in f.arrows:
        if f.tail(a) in fringe:
            starts.append((a, 1))
        if f.head(a) in fringe:
            starts.append((a, -1))
    out = set()

    def ext(walk):
        a, e = walk[-1]
        head = f.head(a) if e == 1 else f.tail(a)
        if head in fringe:
            out.add(Route.of(tuple(walk)))
            return
        if len(walk) == bound:
            return
        for b in f.arrows:
            for z in (1, -1):
                cand = walk + [(b, z)]
                if oracle_is_string(f, cand[-2:]):
                    ext(cand)

    for s in starts:
        ext([s])
    return out


def hull_edges_2d(points, rays):
    """Facet half-spaces of conv(points) + cone(rays) in the plane.

    Exact rational arithmetic; input vectors are (x, y) tuples.  Returns a set
    of normalized (a, b, c) with a*x + b*y <= c for all generators, tight at
    two or more of them, and with rays satisfying a*x + b*y <= 0.
    """
    from math import gcd

    out = set()
    gens = [(Q(x), Q(y), False) for x, y in points] + [(Q(x), Q(y), True) for x, y in rays]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            x1, y1, r1 = gens[i]
            x2, y2, r2 = gens[j]
            if r1 and r2:
                continue  # an edge needs at least one vertex on it
            if r1:  # make the point generator first
                (x1, y1, r1), (x2, y2, r2) = (x2, y2, r2), (x1, y1, r1)
            dx, dy = (x2, y2) if r2 else (x2 - x1, y2 - y1)
            if dx == 0 and dy == 0:
                continue
            for sign in (1, -1):
                a, b = sign * dy, -sign * dx
                c = a * x1 + b * y1
                ok = True
                tight = 0
                for (x, y, ray) in gens:
                    val = a * x + b * y
                    lim = Q(0) if ray else c
                    if val > lim:
                        ok = False
                        break
                    if val == lim:
                        tight += 1
                if ok and tight >= 2:
                    den = a.denominator * b.denominator * c.denominator
                    ai, bi, ci = int(a * den), int(b * den), int(c * den)
                    g = gcd(gcd(abs(ai), abs(bi)), abs(ci)) or 1
                    out.add((ai // g, bi // g, ci // g))
    return out


def lattice_points_of_unit_flows(f, denominator):
    """All rational points of the turbulence polyhedron with the given
    denominator, by brute force over the conservation system.

    Only usable on representation-finite quivers (the polytope is bounded by
    the max vertex coordinate).
    """
    from gentleflow.flows import indicator
    from gentleflow.trails import elementary_routes

    arrows = sorted(f.arrows)
    cap = 0
    for p in elementary_routes(f):
        cap = max(cap, max(indicator(f, p).values.values()))
    cap = int(cap) * denominator
    fringe = set(f.fringe_arrows())
    pairs = list(f.relation_pairs.values())
    points = set()
    for combo in product(range(cap + 1), repeat=len(arrows)):
        vals = dict(zip(arrows, combo))
        if sum(vals[a] for a in fringe) != 2 * denominator:
            continue
        if any(vals[a1] + vals[a2] != vals[b1] + vals[b2] for (a1, a2), (b1, b2) in pairs):
            continue
        points.add(tuple(Q(vals[a], denominator) for a in arrows))
    return points


def clique_simplex_points(f, cliques, denominator):
    """Rational points of the given clique simplices at a fixed denominator."""
    from gentleflow.flows import indicator

    arrows = sorted(f.arrows)
    points = set()
    for k in cliques:
        routes = k.members
        vecs = [indicator(f, p).values for p in routes]
        for split in _compositions(denominator, len(routes)):
            total = {a: Q(0) for a in arrows}
            for lam, vec in zip(split, vecs):
                for a in arrows:
                    total[a] += Q(lam, denominator) * vec[a]
            points.add(tuple(total[a] for a in arrows))
    return points


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def solve_nonneg_band_combination(f, bands, target):
    """All ways to write `target` (dict arrow -> value) as a nonnegative
    rational combination of the given band indicators, by exact elimination
    over every subset."""
    from gentleflow.flows import indicator
    from itertools import combinations

    arrows = sorted(f.arrows)
    vecs = {b: indicator(f, b).values for b in bands}
    solutions = []
    for r in range(len(bands) + 1):
        for subset in combinations(bands, r):
            sol = _solve_exact([[vecs[b][a] for b in subset] for a in arrows],
                               [target.get(a, Q(0)) for a in arrows])
            if sol is not None and all(x > 0 for x in sol):
                solutions.append(dict(zip(subset, sol)))
    return solutions


def _solve_exact(matrix, rhs):
    """Solve M x = rhs exactly; None if inconsistent, else the unique solution
    when the kernel is trivial (returns None on underdetermined systems)."""
    rows = [list(map(Q, row)) + [Q(v)] for row, v in zip(matrix, rhs)]
    cols = len(matrix[0]) if matrix and matrix[0] else 0
    if cols == 0:
        return [] if all(v == 0 for v in rhs) else None
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            return None  # free column: underdetermined
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    if r < cols:
        return None
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None
    return [rows[i][-1] for i in range(cols)]


def oracle_arrow_profile(trace, cap):
    """The tiling of [0, cap] by the marked-trail intervals of one start arrow,
    probing every uncovered gap, single points included, at its midpoint.

    `trace(c)` is the public trace of the start arrow at c.  Returns the
    (MarkedTrail, QInterval) tiles sorted along the interval, zero-length ones
    included: the reference for the one-trace-per-trail tiling.
    """
    from gentleflow.flows import QInterval

    tiles = []
    uncovered = [QInterval(Q(0), cap)]
    while uncovered:
        u = uncovered.pop()
        probe = u.lo if u.lo == u.hi else (u.lo + u.hi) / 2
        mt, interval, _ = trace(probe)
        if mt is not None:
            tiles.append((mt, interval))
        for piece in (QInterval(u.lo, interval.lo, u.lo_open, not interval.lo_open),
                      QInterval(interval.hi, u.hi, not interval.hi_open, u.hi_open)):
            if not piece.is_empty():
                uncovered.append(piece)
    tiles.sort(key=lambda ti: (ti[1].lo, ti[1].lo_open))
    return tiles


# -- the name-keyed tiling kernel: the reference for Flow.integer_tiles ---------------
#
# Steps look their (alpha', beta, beta') data up by signed arrow, decoded from
# the relation pairs apart from the calculus's code tables and step tables;
# flow values by arrow name, and interval ends are (bound, open) tuples met in
# tuple order.

def oracle_forward_data(f, a, eps):
    """The arrows (alpha', beta, beta') governing Forward at the head of a^eps."""
    from gentleflow.quiver import DomainError
    v = signed_head(f, a, eps)
    if not f.is_internal(v):
        raise DomainError("boundary reached")
    p1, p2 = f.relation_pairs[v]
    if eps == 1:
        mine, other = (p1, p2) if p1[0] == a else (p2, p1)
        beta_prime = mine[1]       # a . beta' is the relation through a
        beta, alpha_prime = other  # beta . alpha' is the other relation
    else:
        mine, other = (p1, p2) if p1[1] == a else (p2, p1)
        beta_prime = mine[0]       # beta' . a is the relation into a
        beta, alpha_prime = other
    return alpha_prime, beta, beta_prime


def oracle_backward_data(f, a, eps):
    """The arrows governing Back at the tail of a^eps: those of Forward at the
    head of a^-eps, the same vertex, with alpha' and beta swapped."""
    alpha_prime, beta, beta_prime = oracle_forward_data(f, a, -eps)
    return beta, alpha_prime, beta_prime


def _oracle_step_tables(F):
    f = F.quiver
    fwd, bwd = {}, {}
    for a in f.arrows:
        for eps in (1, -1):
            if f.is_internal(signed_head(f, a, eps)):
                fwd[(a, eps)] = oracle_forward_data(f, a, eps)
            if f.is_internal(signed_head(f, a, -eps)):
                bwd[(a, eps)] = oracle_backward_data(f, a, eps)
    return fwd, bwd


def oracle_step(F, sa, c, data_fn):
    """One Forward (data_fn = oracle_forward_data) or Back
    (oracle_backward_data) application on exact rationals, by arrow name."""
    nxt, val, *_ = _oracle_branch(F.values, data_fn(F.quiver, *sa), sa[1], c)
    return nxt, val


def _oracle_branch(iv, data, eps, value):
    """One Forward (or Back) step: (next signed arrow, next value, threshold,
    upper, strict) for the branch of values <=, <, > or >= the threshold."""
    alpha_prime, beta, beta_prime = data
    fa = iv[alpha_prime]
    if eps == 1:
        if value <= fa:
            return (alpha_prime, 1), value, fa, True, False
        return (beta, -1), value - fa, fa, False, True
    fb = iv[beta_prime]
    if value + fb < fa:
        return (alpha_prime, 1), value + fb, fa - fb, True, True
    return (beta, -1), value + fb - fa, fa - fb, False, False


def _oracle_sweep(iv, table, sa, start):
    """(signed arrows walked after sa, "route" | "band" | "rho", bounds on start)."""
    lo, lo_open, hi, hi_open = 0, False, iv[sa[0]], False
    walk = []
    state, value, shift = sa, start, 0
    visited = {(state, value)}
    while True:
        data = table.get(state)
        if data is None:
            return walk, "route", (lo, lo_open, hi, hi_open)
        nxt, val, b, upper, strict = _oracle_branch(iv, data, state[1], value)
        b -= shift
        if upper:
            if (b, not strict) < (hi, not hi_open):
                hi, hi_open = b, strict
        elif (b, strict) > (lo, lo_open):
            lo, lo_open = b, strict
        shift += val - value
        state, value = nxt, val
        if (state, value) == (sa, start):
            return walk, "band", (lo, lo_open, hi, hi_open)
        if (state, value) in visited:
            return walk, "rho", (lo, lo_open, hi, hi_open)
        visited.add((state, value))
        walk.append(state)


def _oracle_meet(x, y):
    hi, hi_closed = min((x[2], not x[3]), (y[2], not y[3]))
    return (*max(x[:2], y[:2]), hi, not hi_closed)


def _oracle_trace_ints(iv, tables, sa, c):
    """(walk, index of sa, kind, bounds on the start value); kind None when
    the walk never closes."""
    fwd, kind, bounds = _oracle_sweep(iv, tables[0], sa, c)
    if kind == "band":
        return (sa, *fwd), 0, "band", bounds
    if kind == "route":
        bwd, kind, back_bounds = _oracle_sweep(iv, tables[1], sa, c)
        bounds = _oracle_meet(bounds, back_bounds)
        if kind == "route":
            return (*reversed(bwd), sa, *fwd), len(bwd), "route", bounds
    return None, 0, None, bounds


def _oracle_marking_tiles(iv, tables, walk, index, band, tile, far, starts):
    """(j, tile) of the positive-length markings at a start arrow of one
    traced trail, re-walked at the midpoint of the tile of walk[index]."""
    n = len(walk)
    values = [None] * n
    values[index] = (tile[0] + tile[2]) // 2
    unbounded = (-far, False, far, False)

    def bound(table, k, j):
        nxt, val, b, upper, strict = _oracle_branch(iv, table[walk[k]], walk[k][1], values[k])
        if values[j] is None:
            values[j] = val
        assert (nxt, val) == (walk[j], values[j]), "re-walk leaves the traced trail"
        b -= values[k]
        return (-far, False, b, strict) if upper else (b, strict, far, False)

    if band:
        common = unbounded
        for k in range(n):
            common = _oracle_meet(common, bound(tables[0], k, (k + 1) % n))
        after = before = [common] * n
    else:
        forward_at, back_at = [unbounded] * n, [unbounded] * n
        for k in range(index, n - 1):
            forward_at[k] = bound(tables[0], k, k + 1)
        for k in range(index, 0, -1):
            back_at[k] = bound(tables[1], k, k - 1)
        for k in range(index):
            forward_at[k] = bound(tables[0], k, k + 1)
        for k in range(index + 1, n):
            back_at[k] = bound(tables[1], k, k - 1)
        after = forward_at[:]
        for k in range(n - 2, -1, -1):
            after[k] = _oracle_meet(forward_at[k], after[k + 1])
        before = back_at[:]
        for k in range(1, n):
            before[k] = _oracle_meet(before[k - 1], back_at[k])
    for j in range(n):
        if starts[walk[j][0]] != walk[j]:
            continue
        v = values[j]
        lo, lo_open, hi, hi_open = _oracle_meet(
            _oracle_meet((-v, False, iv[walk[j][0]] - v, False), after[j]), before[j])
        if hi > lo:
            yield j, (lo + v, lo_open, hi + v, hi_open)


def oracle_tile_markings(F):
    """Flow.integer_tiles by the name-keyed kernel: each gap probed at its
    midpoint on the flow in half units, every marking at a start arrow of a
    positive-length trail tiled from one re-walk."""
    from gentleflow.flows import _first_gap
    from gentleflow.trails import Band, MarkedTrail
    den = lcm(*(x.denominator for x in F.values.values()), 1)
    iv = {a: int(x * den) for a, x in F.values.items()}
    tables = _oracle_step_tables(F)
    universe = F.quiver.calculus.universe
    starts = {a: F.start(a) for a in sorted(iv)}
    iv2 = {a: 2 * v for a, v in iv.items()}
    far = max(iv2.values(), default=0) + 1
    found = {k: [] for k in starts}
    covered = {k: [] for k in starts}
    for k in starts:
        while (gap := _first_gap(covered[k], iv2[k])) is not None:
            mid = (gap[0] + gap[1]) // 2
            walk, index, kind, tile = _oracle_trace_ints(iv2, tables, starts[k], mid)
            if kind is None or tile[2] <= tile[0]:
                covered[k].append((mid, mid))
                continue
            word = universe.word(walk)
            trail = universe.band(word) if kind == "band" else universe.route(word)
            for j, t in _oracle_marking_tiles(iv2, tables, walk, index, kind == "band",
                                              tile, far, starts):
                assert j != index or t == tile, "re-walk disagrees with the traced tile"
                if isinstance(trail, Band):
                    marked = MarkedTrail(trail, word[j:] + word[:j], 0)
                else:
                    marked = MarkedTrail(trail, word, j)
                found[walk[j][0]].append((marked, t))
                covered[walk[j][0]].append((t[0], t[2]))
    return {k: sorted(ts, key=lambda x: x[1][:2]) for k, ts in found.items()}


def oracle_countercurrent_compare(p, q):
    """The countercurrent order on signed-arrow walks, each marking given as
    (walk, index, is_band): -1, 0 or 1, or the message of the DomainError."""
    def inverse(m):
        walk, i, band = m
        return tuple((a, -e) for a, e in reversed(walk)), len(walk) - 1 - i, band

    def post(m, length):
        walk, i, band = m
        if band:
            return tuple(walk[(i + 1 + k) % len(walk)] for k in range(length))
        return walk[i + 1:i + 1 + length]

    def cmp_post(m1, m2):
        horizon = 2 * (len(m1[0]) + len(m2[0])) + 4
        s1, s2 = post(m1, horizon), post(m2, horizon)
        for x, y in zip(s1, s2):
            if x != y:
                return -1 if x[1] == 1 else 1
        return 0 if len(s1) == len(s2) else "not comparable"

    mark = p[0][p[1]]
    if q[0][q[1]] != mark:
        if q[0][q[1]] != (mark[0], -mark[1]):
            return f"trail is not marked at {mark[0]}^{mark[1]}"
        q = inverse(q)
    orders = cmp_post(p, q), cmp_post(inverse(p), inverse(q))
    if "not comparable" in orders:
        return "not comparable"
    after, before = orders[0], -orders[1]
    if after and before and after != before:
        return "not comparable"
    return after or before


def _oracle_segment_occurrences(t, cap):
    """Nonempty substring occurrences of t with both flanking signed arrows,
    as (word, prev, next); a band is read cyclically, up to `cap` arrows."""
    from gentleflow.trails import Route
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


def oracle_walk_key(w):
    """The serialized order of walks on names: +1 sorts before -1, so that
    "e1" < "e1^-1" as in the serialized form."""
    return tuple((a, 0 if e == 1 else 1) for a, e in w)


def oracle_canon_sub(s):
    """The least of a word and its inverse under oracle_walk_key."""
    from gentleflow.trails import inverse_walk
    if s[0] == "lazy":
        return s
    inv = inverse_walk(s)
    return s if oracle_walk_key(s) <= oracle_walk_key(inv) else inv


def oracle_band_walk(w):
    """The canonical walk of a band: the least of all rotations of w and of
    its inverse under oracle_walk_key, each compared in full."""
    from gentleflow.trails import inverse_walk
    best = None
    for cand in (w, inverse_walk(w)):
        for i in range(len(cand)):
            rot = cand[i:] + cand[:i]
            if best is None or oracle_walk_key(rot) < oracle_walk_key(best):
                best = rot
    return best


def oracle_junctions(f, t):
    """Occurrences of internal lazy substrings with both flank signs, read
    off the walk: (vertex, prev_sign, next_sign, first signed arrow)."""
    from gentleflow.trails import Route
    w = t.walk
    pairs = zip(w, w[1:]) if isinstance(t, Route) else zip(w, w[1:] + w[:1])
    for (a, e), (_b, z) in pairs:
        yield (f.head(a) if e == 1 else f.tail(a)), e, z, (a, e)


def oracle_kiss(f, p, q):
    """The kiss witness of p and q on signed-arrow words: the smallest common
    top/bottom pair, lazy strings ("lazy", v) first, or None."""

    def tops_bottoms(t, cap):
        tops, bottoms = set(), set()
        for v, prev_e, next_e, _first in oracle_junctions(f, t):
            if (prev_e, next_e) == (-1, 1):
                tops.add(("lazy", v))
            elif (prev_e, next_e) == (1, -1):
                bottoms.add(("lazy", v))
        for word, prev, nxt in _oracle_segment_occurrences(t, cap):
            if prev[1] == -1 and nxt[1] == 1:
                tops.add(oracle_canon_sub(word))
            elif prev[1] == 1 and nxt[1] == -1:
                bottoms.add(oracle_canon_sub(word))
        return tops, bottoms

    cap = len(p.walk) + len(q.walk)
    tp, bp = tops_bottoms(p, cap)
    tq, bq = tops_bottoms(q, cap)
    hits = (tp & bq) | (tq & bp)
    if not hits:
        return None
    return min(hits, key=lambda s: (0, s[1]) if s[0] == "lazy" else (1, oracle_walk_key(s)))


def oracle_g_vector(f, t):
    """Top-minus-bottom counts of the lazy substrings at internal vertices,
    read off the walk."""
    g = dict.fromkeys(f.internal_vertices, 0)
    for v, prev_e, next_e, _first in oracle_junctions(f, t):
        if (prev_e, next_e) == (-1, 1):
            g[v] += 1
        elif (prev_e, next_e) == (1, -1):
            g[v] -= 1
    return g


def _oracle_word_vertices(f, word):
    vs = {f.tail(word[0][0]) if word[0][1] == 1 else f.head(word[0][0])}
    for a, e in word:
        vs.add(f.head(a) if e == 1 else f.tail(a))
    return vs


def oracle_boosted_and_crisscrossed(f, t):
    """Maximal boosted and criss-crossed substrings of t on walks: a word is
    boosted when it occurs twice in one direction and criss-crossed when it
    occurs in both; a lazy string at v is boosted when one of the S and T
    families of its junctions repeats, criss-crossed when both appear."""
    from gentleflow.trails import Route, inverse_walk
    w = t.walk
    n = len(w)
    u, longest = (w, n) if isinstance(t, Route) else (w * 3, 2 * n)
    counts = {}
    for i in range(n):
        for j in range(i + 1, min(i + longest, len(u)) + 1):
            counts[u[i:j]] = counts.get(u[i:j], 0) + 1
    boosted, criss = set(), set()
    for word, c in counts.items():
        crossed = inverse_walk(word) in counts
        if c >= 2 or crossed:
            canon = oracle_canon_sub(word)
            if c >= 2:
                boosted.add(canon)
            if crossed:
                criss.add(canon)
    families = {}
    for v, _pe, _ne, first in oracle_junctions(f, t):
        (a1, a2), _ = f.relation_pairs[v]
        families.setdefault(v, []).append("S" if first in ((a1, 1), (a2, -1)) else "T")
    for v, fams in families.items():
        if max(fams.count("S"), fams.count("T")) >= 2:
            boosted.add(("lazy", v))
        if len(set(fams)) == 2:
            criss.add(("lazy", v))

    def maximal(subs):
        words = [(o, inverse_walk(o), _oracle_word_vertices(f, o))
                 for o in subs if o[0] != "lazy"]

        def inside(s):
            if s[0] == "lazy":
                return any(s[1] in vs for _o, _inv, vs in words)
            m = len(s)
            return any(o != s and any(x[i:i + m] == s for x in (o, inv)
                                      for i in range(len(x) - m + 1))
                       for o, inv, _vs in words)

        return {s for s in subs if not inside(s)}

    return maximal(boosted), maximal(criss)


def oracle_is_elementary(f, t):
    """Elementarity of a self-compatible trail, on walks: nothing boosted,
    and at most one maximal criss-crossed substring, which for a route must
    be a word through a fringe vertex."""
    from gentleflow.trails import Band
    boosted, criss = oracle_boosted_and_crisscrossed(f, t)
    if boosted or len(criss) > 1:
        return False
    if isinstance(t, Band) or not criss:
        return True
    (sub,) = criss
    return sub[0] != "lazy" and bool(_oracle_word_vertices(f, sub) & set(f.fringe_vertices))


def oracle_closure(f, W):
    """The smallest closed arrow set containing W: E minus the arrows of the
    W-avoiding routes and bands, found by searching the signed arrows outside
    W (all of E when no W-avoiding route exists)."""
    allowed = set(f.arrows) - set(W)
    fringe = set(f.fringe_vertices)
    starts = [(a, 1) for a in allowed if f.tail(a) in fringe]
    starts += [(a, -1) for a in allowed if f.head(a) in fringe]
    reach, stack = set(starts), list(starts)
    while stack:
        for nxt in f.string_continuations(*stack.pop()):
            if nxt[0] in allowed and nxt not in reach:
                reach.add(nxt)
                stack.append(nxt)
    on_route = {a for a, e in reach if (a, -e) in reach}
    if not on_route:
        return set(f.arrows)
    nodes = [(a, e) for a in allowed for e in (1, -1)]
    succ = {n: [x for x in f.string_continuations(*n) if x[0] in allowed] for n in nodes}
    on_band = set()
    for n in nodes:  # n lies on a cycle when it can reach itself
        seen, stack = set(), list(succ[n])
        while stack:
            x = stack.pop()
            if x == n:
                on_band.add(n[0])
                break
            if x not in seen:
                seen.add(x)
                stack.extend(succ[x])
    return set(f.arrows) - (on_route | on_band)


def oracle_bron_kerbosch(nodes, adj):
    """Maximal cliques by pivoted Bron-Kerbosch on Python sets; adj maps a
    node to the set of its neighbours."""
    cliques = []

    def expand(r, p, x):
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in list(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    expand(set(), set(nodes), set())
    return cliques


def oracle_band_stable_cliques(f, route_bound, band_bound):
    """Band-stable cliques by testing every subset of every maximal clique of
    the bending graph, one compatibility question at a time."""
    from gentleflow.complexes import Clique, band_universe, bending_route_universe
    from gentleflow.trails import straight_routes

    calc = f.calculus
    straights = frozenset(straight_routes(f))
    bending = bending_route_universe(f, route_bound)
    bands = band_universe(f, band_bound)
    adj = {p: {q for q in bending if q != p and calc.compatible(p, q)} for p in bending}
    seen = set()
    for m in oracle_bron_kerbosch(bending, adj):
        members = sorted(m, key=bending.index)
        for mask in range(1 << len(members)):
            seen.add(frozenset(members[i] for i in range(len(members)) if mask >> i & 1))
    stable = set()
    for bend in seen:
        compat_bands = [b for b in bands if all(calc.compatible(b, p) for p in bend)]
        extensions = [q for q in bending if q not in bend
                      and all(calc.compatible(q, p) for p in bend)]
        if all(any(not calc.compatible(b, q) for b in compat_bands) for q in extensions):
            stable.add(Clique(straights | bend))
    return stable


def oracle_barely_crooked_sets(f):
    """The barely crooked arrow sets by brute force: every choice of one arrow
    on each straight route that oracle_closure leaves fixed, E excepted."""
    from gentleflow.trails import straight_routes
    choices = [[a for a, _e in s.walk] for s in straight_routes(f)]
    out = set()
    for combo in product(*choices):
        W = set(combo)
        if len(W) == len(choices) and W != set(f.arrows) and oracle_closure(f, W) == W:
            out.add(frozenset(W))
    return out


def _oracle_suffix_weight(f, W, y):
    """(#W-arrows weakly after y on its straight route, #W-arrows on the route)."""
    from gentleflow.trails import straight_routes
    s = next(s for s in straight_routes(f) if any(a == y for a, _e in s.walk))
    walk = s.walk if any(e == 1 for _a, e in s.walk) else tuple((a, -e) for a, e in reversed(s.walk))
    arrows = [a for a, _e in walk]
    i = arrows.index(y)
    return sum(1 for a in arrows[i:] if a in W), sum(1 for a in arrows if a in W)


def oracle_s_coefficients(f, W):
    """The S_v facet data of a crooked arrow set, one Fraction sum per arrow:
    over the arrows y leaving v, the share of the W-arrows of y's straight
    route sitting weakly after y, minus 1/2."""
    out = {}
    for v in f.internal_vertices:
        total = Q(0)
        for y in f.arrows_out(v):
            after, on_route = _oracle_suffix_weight(f, W, y)
            total += Q(after, on_route) - Q(1, 2)
        out[v] = total
    return out


def oracle_members_key(k):
    """The order of the lists of cliques and bundles: by the tuple of the
    sort keys of their members, in trail_key order."""
    return tuple(t.sort_key for t in k.members)


def oracle_lidskii_volume(g):
    """The normalized volume of the unit flow polytope of a framed DAG g, by
    the Lidskii formula (Baldoni-Vergne 2008; Meszaros-Morales 2019): the
    sources merge into s and the sinks into t, d_v = indeg(v) - 1 at each
    internal v (edges from s counted), and the volume is the number of
    nonnegative integer flows on G - s with outflow - inflow = d_v at each
    internal v, t taking the rest.  Counted by a memoized dynamic program
    over the internal vertices in topological order; nothing here reads the
    quiver side of the bridge."""
    from functools import lru_cache

    internal = [v for v, kind in sorted(g.vertices.items()) if kind == "internal"]
    preds = {v: {t for t, h in g.edges.values() if h == v and t in internal} for v in internal}
    order = []
    while len(order) < len(internal):
        ready = [v for v in internal if v not in order and preds[v] <= set(order)]
        if not ready:
            raise ValueError("the internal vertices lie on an oriented cycle")
        order += ready
    at = {v: i for i, v in enumerate(order)}
    d = [sum(1 for _t, h in g.edges.values() if h == v) - 1 for v in order]
    outs = [[at.get(h) for t, h in g.edges.values() if t == v] for v in order]  # None: into t

    @lru_cache(maxsize=None)
    def count(i, inflow):  # inflow: what order[i:] receive from order[:i]
        if i == len(order):
            return 1
        total = inflow[0] + d[i]
        n = 0
        for split in (_compositions(total, len(outs[i])) if total >= 0 else ()):
            rest = list(inflow[1:])
            for x, j in zip(split, outs[i]):
                if j is not None:
                    rest[j - i - 1] += x
            n += count(i + 1, tuple(rest))
        return n

    return count(0, (0,) * len(order))


def oracle_strip_comment(line):
    """The line up to its comment, scanned character by character: a '#'
    opens a comment at line start or after a space or tab."""
    if line.startswith("#"):
        return ""
    for i, ch in enumerate(line):
        if ch == "#" and line[i - 1] in " \t":
            return line[:i]
    return line

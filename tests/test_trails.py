import pytest

from gentleflow import cli, dag, trails
from gentleflow.fixtures import DAG_FIXTURES, fixture_quiver
from gentleflow.quiver import DomainError, FringedQuiver, fringe, parse_quiver_file
from gentleflow.trails import (
    Band,
    Route,
    boosted_and_crisscrossed,
    countercurrent_compare,
    enumerate_bands,
    enumerate_routes,
    g_vector,
    is_elementary_band,
    is_elementary_route,
    is_string,
    markings_at,
    parse_walk,
    straight_routes,
)

from oracles import (
    oracle_bands,
    oracle_boosted_and_crisscrossed,
    oracle_g_vector,
    oracle_is_elementary,
    oracle_is_string,
    oracle_kiss,
    oracle_routes,
    straight_route_count,
)


def R(text):
    return Route.of(parse_walk(text))


def B(text):
    return Band.of(parse_walk(text))


def test_is_string_examples():
    f = fixture_quiver("kronecker")
    assert is_string(f, parse_walk("e1 e2 e3"))
    assert not is_string(f, parse_walk("e1 f2"))     # relation at v1
    assert not is_string(f, parse_walk("e2 e2^-1"))  # immediate backtrack
    with pytest.raises(DomainError):
        is_string(f, parse_walk("nope"))


def test_is_string_matches_oracle(quiver_pool):
    import random
    rng = random.Random(5)
    for pool in quiver_pool[:12]:
        f = pool.quiver
        arrows = sorted(f.arrows)
        for _ in range(40):
            walk = tuple((rng.choice(arrows), rng.choice((1, -1)))
                         for _ in range(rng.randint(1, 4)))
            assert is_string(f, walk) == oracle_is_string(f, walk)


def test_string_continuations_match_oracle_on_every_pair(quiver_pool, doubled_a5, perfbench_gen):
    # y continues x exactly when x y is a string, read off the relation set
    quivers = [pool.quiver for pool in quiver_pool] + [doubled_a5]
    quivers.append(fringe(parse_quiver_file(perfbench_gen.random_gentle_quiver(1, 300))))
    quivers += [dag.to_fringed_quiver(dag.parse_framed_graph(text))[0]
                for text in (perfbench_gen.doubled_path_dag(3), DAG_FIXTURES["difdagc-dag"])]
    for f in quivers:
        signed = [(a, e) for a in f.arrows for e in (1, -1)]
        for x in signed:
            nxt = f.string_continuations(*x)
            assert len(set(nxt)) == len(nxt)
            assert set(nxt) == {y for y in signed if oracle_is_string(f, (x, y))}


def test_enumerate_routes_kronecker_bound4():
    f = fixture_quiver("kronecker")
    got = {str(p) for p in enumerate_routes(f, 4)}
    assert got == {"e1 e2 e3", "f1 f2 f3", "e1 f1^-1", "e3^-1 f3",
                   "e1 e2 f2^-1 f1^-1", "e3^-1 e2^-1 f2 f3"}


def test_enumerate_routes_matches_oracle(quiver_pool):
    for pool in quiver_pool[:10]:
        f = pool.quiver
        bound = min(pool.route_bound, 6)
        assert enumerate_routes(f, bound) == oracle_routes(f, bound)


def test_enumerate_routes_single_vertex():
    f = fixture_quiver("single-vertex")
    got = enumerate_routes(f, 2)
    assert len(got) == 4
    straight = [p for p in got if trails.is_straight(p)]
    assert len(straight) == 2


def test_enumerate_bands():
    kron = fixture_quiver("kronecker")
    assert {str(b) for b in enumerate_bands(kron, 2)} == {"band: e2 f2^-1"}
    # powers of the unique band are not bands
    assert {str(b) for b in enumerate_bands(kron, 8)} == {"band: e2 f2^-1"}
    assert enumerate_bands(fixture_quiver("shard"), 10) == []


def test_bands_come_once_in_trail_key_order(quiver_pool, doubled_a5, perfbench_gen):
    # the search meets each band's canonical word once, in lexicographic
    # order, and keeps only that word; the free mode keeps the words that
    # repeat no code
    for pool in quiver_pool:
        f = pool.quiver
        assert enumerate_bands(f, pool.band_bound) == oracle_bands(f, pool.band_bound)
    a6 = parse_quiver_file(perfbench_gen.doubled_path(6))
    cases = [(pool.quiver, pool.band_bound) for pool in quiver_pool]
    cases += [(doubled_a5, cli.default_band_bound(doubled_a5)), (a6, 14)]
    for f, bound in cases:
        listed = list(trails.band_words(f, bound, "list"))
        assert listed == [b.codes for b in oracle_bands(f, bound)]
        assert list(trails.band_words(f, bound, "free")) == [w for w in listed if len(set(w)) == len(w)]
    for f, bound in cases[-2:]:
        keys = [b.sort_key for b in enumerate_bands(f, bound)]
        assert all(x < y for x, y in zip(keys, keys[1:]))
    assert len(keys) == 855
    # one intern entry per band, none per rotation the search met
    assert len(a6.calculus.universe._bands) == 855


def test_enumeration_has_no_depth_limit():
    # one stack frame per arrow would pass the interpreter's recursion limit
    f = fixture_quiver("kronecker")
    assert len(enumerate_routes(f, 1200)) == 2 * 1200 - 2
    assert {str(b) for b in enumerate_bands(f, 1200)} == {"band: e2 f2^-1"}


def test_self_compatible_routes_match_filter(quiver_pool):
    # the pool holds triple-kronecker (the doubled A4 path) at index 4
    for pool in quiver_pool:
        g = pool.quiver
        default = len(g.arrows) + 2 * len(g.internal_vertices)
        for bound in range(1, default + 1):  # the cuts lose no route at any bound
            # a fresh copy, so no witness in its calculus predates the generator
            f = FringedQuiver(g.internal_vertices, g.fringe_vertices, g.arrows, g.relation_pairs)
            calc = trails.TrailCalculus(f)
            kept = {p for p in enumerate_routes(f, bound) if calc.self_compatible(p)}
            found = trails.self_compatible_routes(f, bound)
            assert set(found) == kept
            assert len(found) == len(kept)  # no duplicates
            assert found == sorted(found, key=trails.trail_key)
            # the generator leaves each route's witnesses in the quiver's calculus
            for p in kept:
                assert f.calculus.tops_bottoms(p, 0) == calc.tops_bottoms(p, 0)


def test_the_routes_listing_keeps_no_witnesses():
    # only the cut mode feeds kiss, so only it leaves witnesses behind
    g = fixture_quiver("triple-kronecker")
    f = FringedQuiver(g.internal_vertices, g.fringe_vertices, g.arrows, g.relation_pairs)
    flags = [ok for _w, ok in trails.route_words(f, 18, "flag")]
    assert flags.count(True) == 90 and f.calculus._tb == {}
    assert len(trails.self_compatible_routes(f, 18)) == len(f.calculus._tb) == 90


def test_self_compatible_search_is_pruned(monkeypatch):
    # without the distance and lesser-start cuts it is 3424 calls: 392
    # prefixes die at the bound, and each route is reached from both ends;
    # 1778 is one call per node of the tree the cuts leave
    g = fixture_quiver("triple-kronecker")
    f = FringedQuiver(g.internal_vertices, g.fringe_vertices, g.arrows, g.relation_pairs)
    calls = []
    real = trails._closing_witnesses

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(trails, "_closing_witnesses", counted)
    assert len(trails.self_compatible_routes(f, 18)) == 90
    assert len(calls) == 1778


def _oracle_words(f, bound):
    """Per bound b up to bound, the (code word, self-compatible) pairs of the
    oracle's routes with at most b arrows, in trail_key order.  A calculus of
    its own, so no witness the search left in f's calculus is read back."""
    calc = trails.TrailCalculus(f)
    routes = sorted((calc.universe.route(calc.codes(t)) for t in oracle_routes(f, bound)),
                    key=trails.trail_key)
    pairs = [(t.codes, calc.self_compatible(t)) for t in routes]
    return {b: [(w, ok) for w, ok in pairs if len(w) <= b] for b in range(1, bound + 1)}


def test_route_words_match_the_sorted_oracle(quiver_pool, doubled_a5, perfbench_gen):
    # each route once, in trail_key order, with its self-kiss flag; the cut
    # mode keeps the self-compatible part, the list mode drops the flags,
    # and the free mode keeps the words that repeat no code
    cases = [(pool.quiver, cli.default_route_bound(pool.quiver)) for pool in quiver_pool]
    cases += [(doubled_a5, 14), (parse_quiver_file(perfbench_gen.doubled_path(6)), 14)]
    for f, default in cases:
        for bound, want in _oracle_words(f, default).items():
            assert list(trails.route_words(f, bound, "flag")) == want
            assert list(trails.route_words(f, bound, "cut")) == [(w, ok) for w, ok in want if ok]
            assert list(trails.route_words(f, bound, "list")) == [(w, None) for w, _ok in want]
            assert list(trails.route_words(f, bound, "free")) == [(w, None) for w, _ok in want
                                                                  if len(set(w)) == len(w)]


def test_self_compatible_routes_bound_error():
    with pytest.raises(DomainError):
        trails.self_compatible_routes(fixture_quiver("kronecker"), 0)


def test_kiss_matches_oracle(quiver_pool):
    for pool in quiver_pool[:16]:
        f = pool.quiver
        calc = trails.TrailCalculus(f)
        ts = pool.routes[:20] + sorted(enumerate_bands(f, 6), key=trails.trail_key)[:6]
        for p in ts:
            for q in ts:
                assert calc.kiss(p, q) == oracle_kiss(f, p, q)


def test_kissing_examples():
    f = fixture_quiver("kronecker")
    calc = f.calculus
    band = B("e2 f2^-1")
    assert calc.kiss(band, R("e1 e2 f2^-1 f1^-1")) == tuple(parse_walk("e2 f2^-1"))
    for p in enumerate_routes(f, 8):
        if trails.is_straight(p):
            assert calc.compatible(p, band)
            for q in enumerate_routes(f, 8):
                assert calc.compatible(p, q)


def test_kiss_symmetry_and_equivalence_invariance(quiver_pool):
    for pool in quiver_pool[:8]:
        f = pool.quiver
        calc = f.calculus
        ts = pool.trails[:8]
        for p in ts:
            for q in ts:
                assert calc.kiss(p, q) == calc.kiss(q, p)


def test_band_winding_witness():
    # a route wrapping the band three times still kisses it: the witness needs
    # more than two windings of the band
    f = fixture_quiver("kronecker")
    calc = f.calculus
    band = B("e2 f2^-1")
    r3 = R("e1 e2 f2^-1 e2 f2^-1 e2 f2^-1 f1^-1")
    assert not calc.compatible(band, r3)


def test_boosted_crisscrossed_examples():
    shard = fixture_quiver("shard")
    boosted, criss = boosted_and_crisscrossed(shard, R("e1 e2 e3 e1^-1"))
    assert boosted == set()
    assert criss == {(("e1", 1),)}

    kron = fixture_quiver("kronecker")
    boosted, criss = boosted_and_crisscrossed(kron, R("e1 e2 f2^-1 e2 e3"))
    assert boosted == {(("e2", 1),)}
    assert criss == set()

    boosted, criss = boosted_and_crisscrossed(kron, R("e1 f1^-1"))
    assert boosted == set() and criss == set()


def test_substrings_and_g_vectors_match_oracles(quiver_pool):
    # every route and band at the command line's default bounds
    for pool in quiver_pool:
        f = pool.quiver
        ts = (sorted(enumerate_routes(f, cli.default_route_bound(f)), key=trails.trail_key)
              + sorted(enumerate_bands(f, cli.default_band_bound(f)), key=trails.trail_key))
        for t in ts:
            assert boosted_and_crisscrossed(f, t) == oracle_boosted_and_crisscrossed(f, t)
            assert g_vector(f, t) == oracle_g_vector(f, t)
            # self-compatibility is the kiss, checked against its oracle above
            elementary = (is_elementary_band if isinstance(t, Band) else is_elementary_route)
            assert elementary(f, t) == (f.calculus.self_compatible(t)
                                        and oracle_is_elementary(f, t))


def test_elementary_routes_kronecker():
    f = fixture_quiver("kronecker")
    elem = {str(p) for p in trails.elementary_routes(f)}
    assert elem == {"e1 e2 e3", "f1 f2 f3", "e1 f1^-1", "e3^-1 f3"}
    assert is_elementary_band(f, B("e2 f2^-1"))


def test_elementary_shard():
    f = fixture_quiver("shard")
    assert not is_elementary_route(f, R("e1 e2 e3 e4"))
    assert is_elementary_route(f, R("e1 e2 e3 e1^-1"))
    # not self-compatible, hence not elementary
    assert not is_elementary_route(f, R("e1 e3^-1 e2^-1 e4"))


def test_elementary_bound_holds(quiver_pool):
    for pool in quiver_pool:
        f = pool.quiver
        bound = trails.elementary_trail_bound(f)
        for p in pool.routes:
            if is_elementary_route(f, p):
                assert len(p.walk) <= bound
        for b in pool.bands:
            if is_elementary_band(f, b):
                assert len(b.walk) <= bound


def test_no_elementary_trail_lies_just_past_the_bound(quiver_pool):
    # the elementary trails are searched only up to elementary_trail_bound
    checked = [0, 0]
    for pool in quiver_pool:
        f = pool.quiver
        bound = trails.elementary_trail_bound(f)
        routes = [p for p in trails.self_compatible_routes(f, bound + 6) if len(p) > bound]
        bands = [b for b in enumerate_bands(f, bound + 4) if len(b) > bound]
        assert not any(is_elementary_route(f, p) for p in routes)
        assert not any(is_elementary_band(f, b) for b in bands)
        checked[0] += len(routes)
        checked[1] += len(bands)
    assert checked == [159, 213]


def test_elementary_trails_stop_at_the_bound(doubled_a5, seven_vertex_quivers):
    # a search far past elementary_trail_bound finds no longer elementary
    # trail and no other one, so searching up to the bound is complete
    cases = [(fixture_quiver("kronecker"), 24)] + [(f, 24) for f in seven_vertex_quivers]
    cases.append((doubled_a5, trails.elementary_trail_bound(doubled_a5) + 4))
    for f, far in cases:
        bound = trails.elementary_trail_bound(f)
        routes = {p for p in trails.self_compatible_routes(f, far) if is_elementary_route(f, p)}
        bands = {b for b in enumerate_bands(f, far) if is_elementary_band(f, b)}
        assert all(len(t) <= bound for t in routes | bands)
        assert routes == set(trails.elementary_routes(f))
        assert bands == set(trails.elementary_bands(f))


def _elementary_case(f, t):
    """Which case of trails._elementary_word a trail with no repeated signed
    arrow falls in, read off its walk: 1 when its junction vertices are
    distinct, 2 when one repeats but no arrow does, 3 when an arrow does."""
    w = t.walk
    heads = [f.head(a) if e == 1 else f.tail(a) for a, e in (w if isinstance(t, Band) else w[:-1])]
    if len(set(heads)) == len(heads):
        return 1
    return 2 if len({a for a, _e in w}) == len(w) else 3


def test_elementary_cases_match_the_oracles(quiver_pool, doubled_a5, seven_vertex_quivers, perfbench_gen):
    # every route and band up to elementary_trail_bound, classified in O(L),
    # against the kiss and elementarity oracles; every case and answer occurs
    draws = [(8, 1), (8, 2), (8, 4), (9, 0), (9, 4), (9, 5), (10, 3), (10, 4), (10, 7), (10, 14)]
    fs = [pool.quiver for pool in quiver_pool] + [doubled_a5] + seven_vertex_quivers
    fs += [fringe(parse_quiver_file(perfbench_gen.random_gentle_quiver(s, n))) for n, s in draws]
    seen = {}
    for f in fs:
        bound = trails.elementary_trail_bound(f)
        route = f.calculus.universe.route
        for t in [route(w) for w, _ok in trails.route_words(f, bound, "list")] + enumerate_bands(f, bound):
            band = isinstance(t, Band)
            got = (is_elementary_band if band else is_elementary_route)(f, t)
            assert got == (oracle_kiss(f, t, t) is None and oracle_is_elementary(f, t)), str(t)
            if len(set(t.walk)) == len(t.walk):
                key = (band, _elementary_case(f, t), got)
                seen[key] = seen.get(key, 0) + 1
    # routes: case 1 always elementary, case 2 never, case 3 either way;
    # bands: case 1 always, cases 2 and 3 either way
    assert set(seen) == {(False, 1, True), (False, 2, False), (False, 3, True), (False, 3, False),
                         (True, 1, True), (True, 2, True), (True, 2, False),
                         (True, 3, True), (True, 3, False)}, seen


def test_the_elementary_bound_loses_nothing(quiver_pool, doubled_a5, perfbench_gen):
    # a repeat-free code word has at most 2|E| codes, so the repeat-free
    # search at 2|E| meets every elementary trail: none lies past the bound
    fs = [fixture_quiver(name) for name in
          ("kronecker", "shard", "double-kronecker", "triple-kronecker", "single-vertex")]
    fs.append(doubled_a5)
    fs += [fringe(parse_quiver_file(perfbench_gen.random_gentle_quiver(s, n)))
           for n in range(3, 8) for s in range(12)]
    fs += [fringe(parse_quiver_file(perfbench_gen.random_gentle_quiver(s, n)))
           for n, s in ((8, 1), (8, 2), (8, 4), (8, 5), (8, 6), (9, 0), (9, 4), (10, 3), (10, 4), (10, 7))]
    assert len(fs) == 76
    for f in fs:
        calc = f.calculus
        everything = 2 * len(f.arrows)
        routes = [calc.universe.route(w) for w, _ok in trails.route_words(f, everything, "free")
                  if trails._elementary_word(calc, w, False)]
        bands = [calc.universe.band(w) for w in trails.band_words(f, everything, "free")
                 if trails._elementary_word(calc, w, True)]
        assert (routes, bands) == calc.elementary


def test_the_elementary_search_interns_only_what_it_keeps(perfbench_gen, monkeypatch):
    # each kept trail is built once, and no word the search meets is interned
    built = []
    init = trails.Trail.__init__
    monkeypatch.setattr(trails.Trail, "__init__", lambda self, *args: built.append(self) or init(self, *args))
    quivers = [parse_quiver_file(perfbench_gen.doubled_path(6))]
    quivers += [fringe(parse_quiver_file(perfbench_gen.random_gentle_quiver(s, 8))) for s in (1, 2, 4)]
    for f in quivers:
        built.clear()
        routes, bands = f.calculus.elementary
        assert routes and len(built) == len(routes) + len(bands)


def test_a_band_with_two_lazy_crossings_is_not_elementary():
    # case 2 with two vertices met by both families: two maximal lazy
    # criss-crossed strings, so not elementary though self-compatible
    text = ("vertex u0\nvertex u1\nvertex u2\nvertex u3\n"
            "arrow a0: u0 -> u2\narrow a1: u1 -> u3\narrow a2: u2 -> u1\n"
            "arrow a3: u0 -> u3\narrow a5: u2 -> u2\narrow a6: u1 -> u1\n"
            "relation a0 a2\nrelation a2 a1\nrelation a5 a5\nrelation a6 a6\n")
    f = fringe(parse_quiver_file(text))
    b = B("a0 a5 a2 a6 a1 a3^-1")
    _boosted, criss = oracle_boosted_and_crisscrossed(f, b)
    assert criss == {("lazy", "u1"), ("lazy", "u2")}
    assert f.calculus.self_compatible(b) and oracle_kiss(f, b, b) is None
    assert not is_elementary_band(f, b) and not oracle_is_elementary(f, b)


def test_g_vector_examples():
    f = fixture_quiver("kronecker")
    assert g_vector(f, R("e1 e2 f2^-1 e2 f2^-1 f1^-1")) == {"v1": 1, "v2": -2}
    assert g_vector(f, B("e2 f2^-1")) == {"v1": 1, "v2": -1}
    assert g_vector(f, R("e1 e2 e3")) == {"v1": 0, "v2": 0}


def test_countercurrent_examples():
    f = fixture_quiver("kronecker")
    straight = markings_at(R("e1 e2 e3"), "e2", 1)[0]
    bend = markings_at(R("e1 e2 f2^-1 f1^-1"), "e2", 1)[0]
    assert countercurrent_compare(f, straight, bend) == -1
    assert countercurrent_compare(f, bend, straight) == 1
    assert countercurrent_compare(f, bend, bend) == 0

    # divergence rule: the walk continuing forward after the shared prefix is
    # smaller (hand application of the pre/post order definition)
    a = markings_at(R("e3^-1 e2^-1 f2 f3"), "e2", -1)[0]
    b = markings_at(R("e3^-1 e2^-1 f2 e2^-1 f2 f3"), "e2", -1)[0]
    assert countercurrent_compare(f, a, b) == -1


def test_countercurrent_band_vs_straight():
    f = fixture_quiver("kronecker")
    band_mark = markings_at(B("e2 f2^-1"), "e2", 1)[0]
    straight = markings_at(R("e1 e2 e3"), "e2", 1)[0]
    assert countercurrent_compare(f, straight, band_mark) == -1


def test_countercurrent_on_an_unknown_arrow_is_a_domain_error():
    f = fixture_quiver("kronecker")
    known = markings_at(R("e1 e2 e3"), "e2", 1)[0]
    unknown = markings_at(R("zz e2 e3"), "e2", 1)[0]
    for p, q in ((known, unknown), (unknown, known)):
        with pytest.raises(DomainError, match="unknown arrow id zz"):
            countercurrent_compare(f, p, q)


def test_countercurrent_total_on_bundles(quiver_pool):
    for pool in quiver_pool[:10]:
        f = pool.quiver
        for bundle in pool.bundles[:3]:
            for a in sorted(f.arrows):
                marks = [m for t in bundle.sorted_trails()
                         for m in markings_at(t, a, 1)]
                for i, m1 in enumerate(marks):
                    for m2 in marks[i + 1:]:
                        c12 = countercurrent_compare(f, m1, m2)
                        c21 = countercurrent_compare(f, m2, m1)
                        assert c12 == -c21
                        assert c12 != 0 or (m1.trail == m2.trail)


def test_straight_routes(quiver_pool):
    for pool in quiver_pool:
        f = pool.quiver
        ss = straight_routes(f)
        assert len(ss) == straight_route_count(f)
        for s in ss:
            assert trails.is_straight(s)


def test_marked_trails_compare_by_trail_direction_and_occurrence():
    from fractions import Fraction as Q
    from gentleflow.flows import Flow, trace_interval

    # the two sides of one occurrence are two values, each the other's view
    f = fixture_quiver("kronecker")
    m = markings_at(R("e1 e2 f2^-1 f1^-1"), "e2", 1)[0]
    other = m.viewed_at("e2", -1)
    assert other != m and other == m.inverse()
    assert other.marked() == ("e2", -1) and other.viewed_at("e2", 1) == m
    # a band marking is read from its mark, whichever way it is made: by
    # markings_at, by at(j) of a traced marking, by viewed_at or by a trace
    f = fixture_quiver("double-kronecker")
    band = f.calculus.universe.band(f.calculus.codes(B("e2 e3 f3^-1 f2^-1")))
    F = Flow(f, dict.fromkeys(("e2", "e3", "f2", "f3"), 1))
    tiles = F.integer_tiles()
    for a, e in band.walk:
        traced = trace_interval(F, (a, e), Q(1, 2))[0]
        (marking,) = markings_at(band, a, e)
        assert traced == marking and marking.index == 0 and marking.walk[0] == (a, e)
        assert marking.viewed_at(a, -e).walk[0] == (a, -e)
        assert marking.viewed_at(a, -e).viewed_at(a, e) == marking
        if e == 1:
            assert [mt for mt, _t in tiles[a]] == [marking]
        for j in range(len(band)):
            assert traced.at(j) == markings_at(band, *traced.walk[j])[0]


def as_walk(m):
    return m.walk, m.index, isinstance(m.trail, Band)


def test_countercurrent_matches_the_walk_oracle(quiver_pool):
    # every pair of markings at each signed arrow of some bundles, also with
    # one side read into a universe of its own
    from oracles import oracle_countercurrent_compare

    compared = set()
    for pool in quiver_pool[::4]:
        f = pool.quiver
        for bundle in pool.bundles[:3]:
            for a in sorted(f.arrows):
                for eps in (1, -1):
                    marks = [m for t in bundle.sorted_trails() for m in markings_at(t, a, eps)]
                    for m1 in marks:
                        for m2 in marks:
                            foreign = markings_at(type(m2.trail).of(m2.trail.walk), a, -eps)
                            for q in [m2] + foreign[:1]:
                                want = oracle_countercurrent_compare(as_walk(m1), as_walk(q))
                                try:
                                    got = countercurrent_compare(f, m1, q)
                                except DomainError as err:
                                    got = str(err)
                                assert got == want
                                compared.add(got)
    assert compared >= {-1, 0, 1}

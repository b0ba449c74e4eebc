from math import gcd

import pytest

from gentleflow import complexes, trails
from gentleflow.complexes import (
    Bundle,
    Clique,
    avoided_arrows,
    band_stable_cliques,
    distinguished_arrows,
    maximal_bundles,
    maximal_cliques,
)
from gentleflow.fixtures import fixture_quiver
from gentleflow.flows import indicator
from gentleflow.quiver import DomainError
from gentleflow.trails import Band, Route, parse_walk


def R(text):
    return Route.of(parse_walk(text))


def B(text):
    return Band.of(parse_walk(text))


def kron_family_left(j):
    return R("e1 " + "e2 f2^-1 " * j + "f1^-1")


def kron_family_right(j):
    return R("e3^-1 " + "e2^-1 f2 " * j + "f3")


def kron_expected_bundles(m):
    straights = {R("e1 e2 e3"), R("f1 f2 f3")}
    expected = {frozenset(straights | {R("e1 f1^-1"), R("e3^-1 f3")}),
                frozenset(straights | {B("e2 f2^-1")})}
    for j in range(m + 1):
        expected.add(frozenset(straights | {kron_family_left(j), kron_family_left(j + 1)}))
        expected.add(frozenset(straights | {kron_family_right(j), kron_family_right(j + 1)}))
    return expected


def test_kronecker_bundle_families():
    f = fixture_quiver("kronecker")
    for m in range(4):
        got = {frozenset(b.trails) for b in maximal_bundles(f, 4 + 2 * m, 4)}
        assert got == kron_expected_bundles(m), f"m={m}"


def test_kronecker_unique_band_bundle():
    f = fixture_quiver("kronecker")
    with_bands = [b for b in maximal_bundles(f, 10, 6) if b.bands]
    assert len(with_bands) == 1
    assert with_bands[0].trails == frozenset(
        {R("e1 e2 e3"), R("f1 f2 f3"), B("e2 f2^-1")})


def test_kronecker_band_stable():
    f = fixture_quiver("kronecker")
    ks = band_stable_cliques(f, 8, 4)
    maximal = {frozenset(k.routes) for k in maximal_cliques(f, 8)}
    nonmax = [frozenset(k.routes) for k in ks if frozenset(k.routes) not in maximal]
    assert nonmax == [frozenset({R("e1 e2 e3"), R("f1 f2 f3")})]
    assert maximal <= {frozenset(k.routes) for k in ks}


def test_shard_cliques():
    f = fixture_quiver("shard")
    ks = maximal_cliques(f, 8)
    assert len(ks) == 6
    n, e_int = 2, 2
    for k in ks:
        assert len(k.routes) == 3 * n - e_int
        assert len(k.reduced().routes) == n
    # bundles coincide with cliques in the representation-finite case
    bs = maximal_bundles(f, 8, 6)
    assert {frozenset(b.trails) for b in bs} == {frozenset(k.routes) for k in ks}
    # band-stable = maximal only
    stable = band_stable_cliques(f, 8, 6)
    assert {frozenset(k.routes) for k in stable} == {frozenset(k.routes) for k in ks}


def test_single_vertex_cliques():
    f = fixture_quiver("single-vertex")
    ks = maximal_cliques(f, 2)
    assert len(ks) == 2
    assert all(len(k.routes) == 3 for k in ks)


def test_double_kronecker_band_bundles():
    f = fixture_quiver("double-kronecker")
    # bounds covering b+c <= 4: route arrows <= 2(b+c)+2 = 12? l_(b,c) has
    # 2(b+c)+4 arrows... use 12 for routes, 8 for bands
    bundles = maximal_bundles(f, 12, 8)
    with_bands = [b.reduced() for b in bundles if b.bands]

    def fvec(t):
        iv = indicator(f, t)
        return tuple(int(iv[a]) for a in ("e1", "e2", "e3", "e4"))

    got = {frozenset(fvec(t) for t in b.trails) for b in with_bands}
    expected = set()
    for b in range(5):
        for c in range(5):
            if 0 < b + c <= 4 and gcd(b, c) == 1:
                band = (0, b, c, 0)
                left = (1, 0, 0, 0) if (b, c) == (0, 1) else (1, b, c + 1, 0)
                right = (0, 0, 0, 1) if (b, c) == (1, 0) else (0, b + 1, c, 1)
                expected.add(frozenset({band, left}))
                expected.add(frozenset({band, right}))
    assert got == expected


def test_double_kronecker_band_stable():
    f = fixture_quiver("double-kronecker")
    ks = band_stable_cliques(f, 12, 8)
    maximal = {frozenset(k.routes) for k in maximal_cliques(f, 12)}
    nonmax = [k.reduced() for k in ks if frozenset(k.routes) not in maximal]

    def fvec(t):
        iv = indicator(f, t)
        return tuple(int(iv[a]) for a in ("e1", "e2", "e3", "e4"))

    got = {frozenset(fvec(t) for t in k.routes) for k in nonmax}
    expected = {frozenset()}
    for b in range(5):
        for c in range(5):
            if 0 < b + c <= 4 and gcd(b, c) == 1:
                left = (1, 0, 0, 0) if (b, c) == (0, 1) else (1, b, c + 1, 0)
                right = (0, 0, 0, 1) if (b, c) == (1, 0) else (0, b + 1, c, 1)
                expected.add(frozenset({left}))
                expected.add(frozenset({right}))
    assert got == expected


def test_reduced_keeps_the_parent_member_order(quiver_pool):
    # a reduced clique or bundle takes its parent's members, straight routes
    # left out, in the parent's order; that order is still trail_key order
    for pool in quiver_pool[:10]:
        f = pool.quiver
        for parent in maximal_cliques(f, pool.route_bound) + pool.bundles:
            red = parent.reduced()
            assert red.members == tuple(t for t in parent.members if not trails.is_straight(t))
            assert list(red.members) == sorted(red.members, key=trails.trail_key)
            assert red == type(parent)(frozenset(red.members))
        for p in pool.routes:  # straight: one sign along the walk
            assert trails.is_straight(p) == (len({e for _a, e in p.walk}) == 1)


def test_distinguished_arrows_examples():
    f = fixture_quiver("kronecker")
    se, sf, band = R("e1 e2 e3"), R("f1 f2 f3"), B("e2 f2^-1")
    bundle = Bundle(frozenset({se, sf, band}))
    assert distinguished_arrows(f, bundle, se) == {"e1", "e3"}
    assert distinguished_arrows(f, bundle, sf) == {"f1", "f3"}
    assert distinguished_arrows(f, bundle, band) == {"e2", "f2"}


def test_distinguished_counts_in_maximal_cliques(quiver_pool):
    # in a maximal clique: straight routes have exactly one distinguished
    # arrow, bending routes exactly two, and every arrow distinguishes one
    for pool in quiver_pool[:10]:
        f = pool.quiver
        for k in pool.bundles[:2]:
            if k.bands:
                continue
            bundle = Bundle(frozenset(k.trails))
            total = 0
            for p in bundle.sorted_trails():
                d = distinguished_arrows(f, bundle, p)
                if trails.is_straight(p):
                    assert len(d) == 1
                else:
                    assert len(d) == 2
                total += len(d)
            assert total == len(f.arrows)


def test_avoided_arrows_examples():
    f = fixture_quiver("shard")
    # the maximal reduced clique avoiding exactly {f2, e1}
    red = {R("e4^-1 e2 e3 e4"), R("e4^-1 e2 f1^-1")}
    assert avoided_arrows(f, red) == {"f2", "e1"}
    # a singleton bundle avoiding three arrows
    assert avoided_arrows(f, {R("e4^-1 e2 f1^-1")}) == {"f2", "e1", "e3"}
    # the full clique universe covers every arrow
    full = {R("e4^-1 e2 e3 e4"), R("e4^-1 e2 f1^-1"),
            R("e1 e2 e3 e4"), R("f1 f2")}
    assert avoided_arrows(f, full) == set()


def test_bundle_cardinality_bounds(quiver_pool):
    for pool in quiver_pool:
        f = pool.quiver
        n = len(f.internal_vertices)
        e_int = len(f.internal_arrows())
        cliques = [b for b in pool.bundles if not b.bands]
        for b in pool.bundles:
            assert len(b.trails) <= 3 * n - e_int
            if b.bands:
                assert len(b.trails) < 3 * n - e_int
                assert len(b.reduced().trails) <= n


def test_bron_kerbosch_matches_networkx():
    import random

    import networkx as nx

    assert complexes._bron_kerbosch([]) == [()]  # the empty graph has one, empty, clique
    rng = random.Random(11)
    graphs = [(n, [(i, j) for i in range(n) for j in range(i + 1, n)]) for n in (1, 2, 7)]
    for _ in range(200):
        n = rng.randint(1, 14)
        density = rng.random()
        graphs.append((n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < density]))
    for n, edges in graphs:
        adj = [0] * n
        for i, j in edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        g = nx.Graph()
        g.add_nodes_from(range(n))  # isolated nodes are cliques of their own
        g.add_edges_from(edges)
        # increasing position tuples, in tuple order: no sort on the result
        expected = sorted(sorted(c) for c in nx.find_cliques(g))
        assert [list(c) for c in complexes._bron_kerbosch(adj)] == expected
        # from a start node (r, p, x): a clique r, as positions in any order,
        # its common neighbours split into p and x, gives the maximal cliques
        # C with r ⊆ C ⊆ r | p
        r, common = (), (1 << n) - 1
        for v in rng.sample(range(n), rng.randint(0, n)):
            if common >> v & 1 and rng.random() < 0.5:
                r, common = r + (v,), common & adj[v]
        p = x = 0
        for v in complexes._bits(common):
            if rng.random() < 0.5:
                p |= 1 << v
            else:
                x |= 1 << v
        members, allowed = set(r), set(r) | set(complexes._bits(p))
        expected = sorted(sorted(c) for c in nx.find_cliques(g) if members <= set(c) <= allowed)
        assert [list(c) for c in complexes._bron_kerbosch(adj, r, p, x)] == expected
        if x:
            assert complexes._bron_kerbosch(adj, r, 0, x) == []
        assert complexes._bron_kerbosch(adj, r, 0, 0) == [tuple(sorted(r))]


def test_clique_lists_expand_no_bitset_and_call_no_str(monkeypatch, perfbench_gen):
    # Bron-Kerbosch hands over its cliques as sorted position tuples, and
    # as_json reads each trail's interned string
    from gentleflow.cli import default_band_bound, default_route_bound
    from gentleflow.quiver import fringe, parse_quiver_file

    calls = []
    bits, trail_str = complexes._bits, trails.Trail.__str__
    monkeypatch.setattr(complexes, "_bits", lambda mask: calls.append(mask) or bits(mask))
    monkeypatch.setattr(trails.Trail, "__str__", lambda self: calls.append(self) or trail_str(self))
    cases = [parse_quiver_file(perfbench_gen.doubled_path(5))]
    cases += [fringe(parse_quiver_file(perfbench_gen.random_gentle_quiver(seed, 6)))
              for seed in (8, 17, 24, 36, 38, 41)]  # the benchmark's MID_CLIQUE_POOL
    listed = 0
    for f in cases:
        rb, bb = default_route_bound(f), default_band_bound(f)
        for ks in (maximal_cliques(f, rb), maximal_bundles(f, rb, bb)):
            listed += sum(len(k.as_json()) for k in ks)
    assert listed > 0 and calls == []
    k = maximal_cliques(cases[1], 8)[0]  # the counters see calls made on purpose
    assert complexes._bits(5) == [0, 2] and str(k.members[0]) == k.as_json()[0]
    assert calls == [5, k.members[0]]


def test_band_stable_matches_subset_oracle(quiver_pool):
    from oracles import oracle_band_stable_cliques

    for pool in quiver_pool:
        f = pool.quiver
        got = band_stable_cliques(f, pool.route_bound, pool.band_bound)
        assert len(got) == len(set(got))
        assert set(got) == oracle_band_stable_cliques(f, pool.route_bound, pool.band_bound)


def test_cliques_come_in_member_order(quiver_pool):
    # each list is sorted by its members' sort keys, members in trail_key
    # order, also where one clique's members are a prefix of another's
    from oracles import oracle_members_key

    cases = [(pool.quiver, pool.route_bound, pool.band_bound) for pool in quiver_pool]
    cases += [(fixture_quiver("kronecker"), 8, 4), (fixture_quiver("double-kronecker"), 12, 8)]
    prefixes = 0
    for f, rb, bb in cases:
        for ks in (maximal_cliques(f, rb), maximal_bundles(f, rb, bb), band_stable_cliques(f, rb, bb)):
            assert ks == sorted(ks, key=oracle_members_key)
            for k in ks:
                assert k.members == tuple(sorted(k.routes if isinstance(k, Clique) else k.trails,
                                                 key=trails.trail_key))
            prefixes += sum(a.members == b.members[:len(a.members)] for a, b in zip(ks, ks[1:]))
    assert prefixes


def test_band_stable_rejects_bounds_below_one():
    f = fixture_quiver("kronecker")
    for rb, bb in ((0, 4), (4, 0), (-1, 4)):
        with pytest.raises(DomainError):
            band_stable_cliques(f, rb, bb)


def test_doubled_a5_clique_search():
    # The doubled A5 path enumerates 59050 routes up to the default bound,
    # of which 218 bend and are self-compatible: filtering them all out of
    # the enumeration takes about a minute, generating them under a second.
    import importlib.util
    from pathlib import Path

    from gentleflow.quiver import parse_quiver_file

    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    f = parse_quiver_file(gen.doubled_path(5))
    bound = len(f.arrows) + 2 * len(f.internal_vertices)
    assert len(complexes.bending_route_universe(f, bound)) == 218
    assert len(maximal_cliques(f, bound)) == 2084


def test_band_stable_without_bands_are_the_maximal_cliques(quiver_pool, perfbench_gen):
    # no band kills a route, so the search hands the root off to Bron-Kerbosch
    from gentleflow.cli import default_band_bound, default_route_bound
    from gentleflow.quiver import fringe, parse_quiver_file

    cases = [(pool.quiver, pool.route_bound, pool.band_bound) for pool in quiver_pool if not pool.bands]
    for seed in (8, 17, 24, 36, 38, 41):  # the benchmark's MID_CLIQUE_POOL
        f = fringe(parse_quiver_file(perfbench_gen.random_gentle_quiver(seed, 6)))
        assert not complexes.band_universe(f, default_band_bound(f))
        cases.append((f, default_route_bound(f), default_band_bound(f)))
    assert len(cases) == 32 + 6
    for f, rb, bb in cases:
        got = band_stable_cliques(f, rb, bb)
        assert [k.members for k in got] == [k.members for k in maximal_cliques(f, rb)]
        assert all(k.maximal is True and k.band_generators == () for k in got)

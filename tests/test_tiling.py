"""The one-trace-per-trail tiling against the per-gap probing oracle."""

import random
from collections import Counter
from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from gentleflow import dag, flows, quiver, trails
from gentleflow.dag import DagFlow
from gentleflow.fixtures import fixture_dag, fixture_quiver
from gentleflow.flows import Flow, QInterval, decompose_bundle, trace_interval

from oracles import oracle_arrow_profile, oracle_tile_markings


def positive(tiles):
    return [(mt.trail, mt.walk, mt.index, iv) for mt, iv in tiles if iv.length > 0]


def assert_quiver_tiles_exact(F):
    tiles = F.tiles()
    for a in sorted(F.quiver.arrows):
        oracle = oracle_arrow_profile(lambda c: trace_interval(F, (a, 1), c), F[a])
        assert positive(tiles[a]) == positive(oracle), a


def assert_dag_tiles_exact(F):
    tiles = F.tiles()
    for e in sorted(F.graph.edges):
        oracle = oracle_arrow_profile(lambda c: dag.dag_trace_interval(F, e, c), F[e])
        assert positive(tiles[e]) == positive(oracle), e


def winding(outer, inner):
    f = fixture_quiver("kronecker")
    return Flow(f, {"e1": outer, "f1": outer, "e2": inner, "f2": inner})


def test_tiles_match_oracle_on_pool(quiver_pool):
    rng = random.Random(2024)
    flows_checked = 0
    for pool in quiver_pool:
        for integral in (True, False):
            for _ in range(5):
                F, _coeffs = pool.random_bundle_combination(rng, integral=integral)
                assert_quiver_tiles_exact(F)
                flows_checked += 1
    assert flows_checked == 400


def test_tiles_match_oracle_on_windings():
    for outer, inner in (("1", "1001/7"), ("3/2", "2003/13"), ("2/3", "5/7")):
        assert_quiver_tiles_exact(winding(Q(outer), Q(inner)))


def test_band_markings_are_traced_not_mirrored():
    # mirroring the (a, +1) tiles onto (a, -1) would give [5, 9) at f2, but
    # the trace of f2 at 5 is a walk that never closes
    f = fixture_quiver("double-kronecker")
    F = Flow(f, {"e1": 4, "e2": 10, "e3": 9, "e4": 5, "f1": 4, "f2": 10, "f3": 9, "f4": 5})
    assert_quiver_tiles_exact(F)
    assert trace_interval(F, ("f2", 1), Q(5))[0] is None


def test_dag_tiles_match_oracle():
    cases = [
        DagFlow(fixture_dag("cube-dag"), {"e1": 1, "e2": 3, "f1": 3, "f2": 1}),
        DagFlow(fixture_dag("difdagc-dag"), {"p1": 1, "m1": 1, "r1": 1}),
    ]
    rng = random.Random(7)
    for name in ("kronecker", "double-kronecker", "triple-kronecker"):
        f = fixture_quiver(name)
        g = dag.from_paired(f, quiver.find_pairing(f))
        universe = sorted(trails.enumerate_routes(f, len(f.arrows) + 2), key=trails.trail_key)
        for _ in range(4):
            vals: dict[str, Q] = {}
            for t in rng.sample(universe, k=rng.randint(1, 4)):
                c = Q(rng.randint(1, 8), rng.randint(1, 5))
                for a, _e in t.walk:
                    vals[a] = vals.get(a, Q(0)) + c
            cases.append(DagFlow(g, vals))
    for F in cases:
        assert_dag_tiles_exact(F)


def test_winding_decomposition_traces_each_orientation_once(monkeypatch):
    calls = []
    traced = flows.trace_interval

    def counting(*args):
        calls.append(args)
        return traced(*args)

    monkeypatch.setattr(flows, "trace_interval", counting)
    combo = decompose_bundle(winding(Q(1), Q(400)))
    route = trails.Route.of(trails.parse_walk(" ".join(["e1"] + ["e2 f2^-1"] * 400 + ["f1^-1"])))
    assert combo.coefficients == {route: Q(1)}
    assert len(calls) <= 2


def test_long_route_needs_no_step_cap():
    # the route e1 (e2 f2^-1)^k f1^-1 has 2k + 2 = 1000004 arrows
    k = 500001
    mt, interval, length = trace_interval(winding(Q(1), Q(k)), ("e1", 1), Q(1, 2))
    assert isinstance(mt.trail, trails.Route)
    assert len(mt.walk) == 2 * k + 2 and mt.index == 0
    assert interval == QInterval(Q(0), Q(1), True, True)
    assert length == 1


def recorded_traces(monkeypatch):
    """Swap flows.trace_interval, the probe the benchmark tracer counts, for
    a wrapper that records what each call returns."""
    results = []
    traced = flows.trace_interval

    def recording(*args):
        out = traced(*args)
        results.append(out)
        return out

    monkeypatch.setattr(flows, "trace_interval", recording)
    return results


def test_only_kept_marking_tiles_are_built(monkeypatch):
    # a quiver flow keeps only the markings at (a, 1): 101 in each orientation
    # of the winding route e1 (e2 f2^-1)^100 f1^-1, out of its 202 arrows, and
    # one positive-length trace of the route yields both orientations
    results = recorded_traces(monkeypatch)
    tiles = winding(Q(1), Q(100)).integer_tiles()
    assert sum(map(len, tiles.values())) == 202
    assert len({mt.walk for ts in tiles.values() for mt, _t in ts}) == 2
    assert [mt.trail for mt, _iv, length in results if length > 0] == [tiles["e1"][0][0].trail]


def tiled_flows(quiver_pool):
    rng = random.Random(19)
    cases = [winding(Q(outer), Q(inner)) for outer, inner in
             ((1, 1), (1, 100), ("1", "1001/7"), ("3/2", "2003/13"), ("2/3", "5/7"))]
    for pool in quiver_pool:
        for integral in (True, False):
            cases.append(pool.random_bundle_combination(rng, integral=integral)[0])
    return cases


def test_each_route_is_traced_once(monkeypatch, quiver_pool):
    results = recorded_traces(monkeypatch)
    with_bands = 0
    for F in tiled_flows(quiver_pool):
        results.clear()
        coefficients = flows.trail_coefficients(F)
        found = Counter(mt.trail for mt, _iv, length in results if length > 0)
        assert set(found) == set(coefficients)
        assert all(n == 1 for t, n in found.items() if isinstance(t, trails.Route))
        assert all(n <= 2 for t, n in found.items() if isinstance(t, trails.Band))
        with_bands += any(isinstance(t, trails.Band) for t in found)
    assert with_bands > 0


def test_decomposition_builds_no_signed_arrow_walk(monkeypatch, quiver_pool):
    # traces and tiles stay on codes: no marked trail spells its walk out
    built = []
    walk = trails.MarkedTrail.walk

    def counting(self):
        built.append(self)
        return walk.func(self)

    monkeypatch.setattr(trails.MarkedTrail, "walk", property(counting))
    cases = tiled_flows(quiver_pool)
    for F in cases:
        flows.trail_coefficients(F)
    assert built == []
    mt = cases[0].markings["e1"][0][0]
    assert mt.walk == walk.func(mt) and built == [mt]


def test_every_probe_goes_through_trace_interval(monkeypatch, quiver_pool):
    # perfbench/tracer.py counts flows.trace_interval calls and steps: one per
    # route and one per band orientation with a marking at a start arrow,
    # since a band's inverse is traced, not mirrored
    results = recorded_traces(monkeypatch)
    for F in tiled_flows(quiver_pool):
        results.clear()
        found = {mt.trail for ts in F.integer_tiles().values() for mt, _t in ts}
        starts = {F.start(a) for a in F.values}
        routes = {t for t in found if isinstance(t, trails.Route)}
        band_orientations = sum(any(sa in starts for sa in b.walk)
                                + any((a, -e) in starts for a, e in b.walk)
                                for b in found - routes)
        assert sum(length == 0 for _mt, _iv, length in results) == 0
        assert len(results) == len(routes) + band_orientations > 0


def test_no_probe_lands_on_a_tile_end(monkeypatch):
    # the gap (5/4, 69/4) on e4 holds eight tiles of length 2; its midpoints
    # 37/4, 21/4 and 13/4 are tile ends, so probing them traced 7 times for 4 trails
    results = recorded_traces(monkeypatch)
    values = {"e1": "49/20", "e2": "73/20", "e3": "5/4", "e4": "69/4", "e5": "13/4",
              "f1": "2", "f2": "16/5", "f3": "4/5", "f4": "84/5", "f5": "14/5"}
    F = Flow(fixture_quiver("triple-kronecker"), {a: Q(x) for a, x in values.items()})
    assert sum(len(ts) for ts in F.integer_tiles().values()) > 0
    assert len(results) == 4
    assert all(length > 0 for _mt, _iv, length in results)


def assert_tiles_match_name_keyed_kernel(F):
    tiles = F.integer_tiles()
    assert tiles == oracle_tile_markings(F)
    assert all(type(t[1]) is bool and type(t[3]) is bool
               for ts in tiles.values() for _mt, t in ts)


def test_integer_tiles_match_name_keyed_kernel_on_pool(quiver_pool):
    rng = random.Random(14)
    with_bands = 0
    for pool in quiver_pool:
        for integral in (True, False):
            for _ in range(2):
                F, coeffs = pool.random_bundle_combination(rng, integral=integral)
                assert_tiles_match_name_keyed_kernel(F)
                with_bands += any(isinstance(t, trails.Band) for t in coeffs)
    assert with_bands > 0


def test_integer_tiles_match_name_keyed_kernel_on_windings():
    for outer, inner in ((1, 1), (1, 100), (1, 400), ("3/2", "2003/13"),
                         (2**64 + 1, 3 * 2**64 + 5), (2**70, 2**70)):
        assert_tiles_match_name_keyed_kernel(winding(Q(outer), Q(inner)))


def test_integer_tiles_match_name_keyed_kernel_on_dags(perfbench_gen):
    for n in (3, 8):
        g = dag.parse_framed_graph(perfbench_gen.doubled_path_dag(n))
        for seed in range(3):
            F = DagFlow(g, flows.flow_values(perfbench_gen.dag_flow(seed, n)))
            assert_tiles_match_name_keyed_kernel(F)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=50, max_denominator=12), min_size=4, max_size=4))
def test_integer_tiles_match_name_keyed_kernel_on_rational_flows(coeffs):
    # the trails of a maximal bundle of double-kronecker, one a band
    f = fixture_quiver("double-kronecker")
    vals: dict[str, Q] = {}
    for c, text in zip(coeffs, ("e1 e2 e3 e4", "e1 e2 e3 f3^-1 e3 f3^-1 f2^-1 f1^-1",
                                "f1 f2 f3 f4", "band: e2 e3 f3^-1 f2^-1")):
        for a, _e in trails.parse_trail(text).walk:
            vals[a] = vals.get(a, Q(0)) + c
    assert_tiles_match_name_keyed_kernel(Flow(f, vals))


def test_blank_space_proper_is_positive_length(quiver_pool):
    rng = random.Random(15)
    cases = [winding(Q(outer), Q(inner))
             for outer, inner in (("1", "1001/7"), ("3/2", "2003/13"), ("2/3", "5/7"))]
    cases += [pool.random_bundle_combination(rng, integral=integral)[0]
              for pool in quiver_pool for integral in (True, False)]
    seen = set()
    for F in cases:
        for b in flows.blank_spaces(F):
            assert b.proper == (b.interval.length > 0)
            seen.add(b.proper)
    assert seen == {True, False}

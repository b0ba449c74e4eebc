from fractions import Fraction as Q

import pytest

from gentleflow import complexes, polyhedra, quiver, trails
from gentleflow.fixtures import fixture_quiver
from gentleflow.flows import indicator
from gentleflow.polyhedra import (
    barely_crooked_sets,
    closure,
    crookedness,
    g_face,
    g_facet,
    g_facets,
    g_polyhedron_presentation,
    is_closed,
    phi,
    s_coefficients,
    turbulence_dimension,
    turbulence_presentation,
    unimodularity_check,
)
from gentleflow.quiver import DomainError, fringe, GentleQuiver
from gentleflow.trails import Band, Route, g_vector, parse_walk

from oracles import (
    hull_edges_2d,
    oracle_barely_crooked_sets,
    oracle_closure,
    oracle_is_elementary,
    oracle_kiss,
    oracle_s_coefficients,
    straight_route_count,
)


def R(text):
    return Route.of(parse_walk(text))


def B(text):
    return Band.of(parse_walk(text))


def test_turbulence_dimension():
    assert turbulence_dimension(fixture_quiver("kronecker")) == 3
    assert turbulence_dimension(fixture_quiver("shard")) == 3
    assert turbulence_dimension(fixture_quiver("single-vertex")) == 2
    for name in ("kronecker", "shard", "double-kronecker"):
        f = fixture_quiver(name)
        assert turbulence_dimension(f) == \
            len(f.internal_vertices) + straight_route_count(f) - 1


def test_kronecker_presentation():
    f = fixture_quiver("kronecker")
    pres = turbulence_presentation(f)
    verts = {t for t, _v in pres.vertices}
    assert verts == {R("e1 f1^-1"), R("e3^-1 f3"), R("e1 e2 e3"), R("f1 f2 f3")}
    assert [t for t, _v in pres.rays] == [B("e2 f2^-1")]
    assert pres.dimension == 3


def test_double_kronecker_presentation():
    f = fixture_quiver("double-kronecker")
    pres = turbulence_presentation(f)
    assert len(pres.vertices) == 4
    rays = {t for t, _v in pres.rays}
    assert rays == {B("e2 f2^-1"), B("e3 f3^-1")}


def test_single_vertex_vertex_count():
    # cross-check the dimension formula by enumerating: 4 elementary routes in
    # a 2-dimensional polytope
    f = fixture_quiver("single-vertex")
    pres = turbulence_presentation(f)
    assert len(pres.vertices) == 4
    assert pres.rays == []
    assert pres.dimension == 2


def test_phi_examples():
    f = fixture_quiver("kronecker")
    assert phi(f, indicator(f, R("e1 e2 e3")).values) == {"v1": 0, "v2": 0}
    assert phi(f, indicator(f, R("e1 f1^-1")).values) == {"v1": -1, "v2": 0}
    assert phi(f, indicator(f, B("e2 f2^-1")).values) == {"v1": 1, "v2": -1}


@pytest.mark.parametrize("x", [0.1, True, "x", "1/0"], ids=repr)
def test_phi_and_evaluate_take_exact_rationals_only(x):
    # a float would read as its binary expansion, a boolean as 0 or 1, and bad
    # text as a bare ValueError or ZeroDivisionError
    f = fixture_quiver("kronecker")
    with pytest.raises(DomainError, match="not an exact rational"):
        phi(f, {"e1": x})
    _W, facet = g_facets(f)[0]
    with pytest.raises(DomainError, match="not an exact rational"):
        facet.evaluate(dict.fromkeys(facet.coeffs, x))
    assert phi(f, {"e1": "1/3"})["v1"] == Q(-1, 6)
    assert facet.evaluate(dict.fromkeys(facet.coeffs, "1/3")) == sum(facet.coeffs.values()) / 3


def test_phi_equals_g_vector(quiver_pool):
    for pool in quiver_pool[:12]:
        f = pool.quiver
        for t in pool.trails[:10]:
            g = {v: Q(x) for v, x in g_vector(f, t).items()}
            assert phi(f, indicator(f, t).values) == g


def test_g_polyhedron_kronecker():
    f = fixture_quiver("kronecker")
    pres = g_polyhedron_presentation(f)
    vecs = {tuple(int(v[k]) for k in sorted(v)) for _t, v in pres.vertices}
    assert vecs == {(-1, 0), (0, 1)}
    rays = {tuple(int(v[k]) for k in sorted(v)) for _t, v in pres.rays}
    assert rays == {(1, -1)}


def test_g_polyhedron_double_kronecker_rays():
    f = fixture_quiver("double-kronecker")
    pres = g_polyhedron_presentation(f)
    rays = {t for t, _v in pres.rays}
    assert rays == {B("e2 f2^-1"), B("e3 f3^-1")}


def test_rep_finite_polytope_has_no_rays():
    assert g_polyhedron_presentation(fixture_quiver("shard")).rays == []


def test_closed_sets_shard():
    f = fixture_quiver("shard")
    assert is_closed(f, {"f2", "e1"})
    assert is_closed(f, {"f2", "e1", "e3"})
    assert is_closed(f, {"f1", "f2"})
    assert crookedness(f, {"f2", "e1"}) == "barely-crooked"
    assert crookedness(f, {"f2", "e1", "e3"}) == "crooked"
    assert crookedness(f, {"f1", "f2"}) == "not-crooked"
    with pytest.raises(DomainError):
        crookedness(f, {"e2", "e3"})  # not closed: e1 and e4 get starved


def test_closure_fixpoint():
    q = GentleQuiver(("1", "2"), {"a": ("1", "2")}, frozenset())
    f = fringe(q)
    # killing `a` forces nothing else: parallel routes cover the rest
    assert closure(f, {"a"}) == {"a"}
    shard = fixture_quiver("shard")
    assert closure(shard, {"e1"}) == {"e1"}
    # zeroing the internal corridor forces both e-fringe arrows to zero
    cl = closure(shard, {"e2", "e3"})
    assert cl == {"e1", "e2", "e3", "e4"}
    assert is_closed(shard, cl)


def test_closure_matches_oracle(quiver_pool):
    import random
    rng = random.Random(13)
    for pool in quiver_pool:
        f = pool.quiver
        arrows = sorted(f.arrows)
        for _ in range(25):
            W = set(rng.sample(arrows, rng.randint(0, len(arrows))))
            assert closure(f, W) == oracle_closure(f, W)


def test_elementary_trails_match_the_filter_oracle(quiver_pool, doubled_a5):
    # the one search per quiver and its O(L) short-cuts against filtering
    # every self-compatible trail up to the bound by the oracle
    for f in [pool.quiver for pool in quiver_pool] + [doubled_a5]:
        bound = trails.elementary_trail_bound(f)
        routes = [p for p in trails.self_compatible_routes(f, bound)
                  if oracle_is_elementary(f, p)]
        bands = [b for b in trails.enumerate_bands(f, bound)
                 if oracle_kiss(f, b, b) is None and oracle_is_elementary(f, b)]
        assert trails.elementary_routes(f) == sorted(routes, key=trails.trail_key)
        assert trails.elementary_bands(f) == sorted(bands, key=trails.trail_key)


def test_barely_crooked_sets_match_brute_force(quiver_pool, seven_vertex_quivers):
    for f in [pool.quiver for pool in quiver_pool] + seven_vertex_quivers:
        assert barely_crooked_sets(f) == sorted(oracle_barely_crooked_sets(f), key=sorted)


def _count_closure_calls(monkeypatch):
    calls = []
    real = polyhedra.closure

    def counted(f, W):
        calls.append(1)
        return real(f, W)

    monkeypatch.setattr(polyhedra, "closure", counted)
    return calls


def test_barely_crooked_search_is_pruned(monkeypatch, perfbench_gen):
    # the product of one arrow per straight route is 82944 candidates here,
    # one closure each; the pruned search stays well under that
    f = fringe(quiver.parse_quiver_file(perfbench_gen.random_gentle_quiver(15, 10)))
    calls = _count_closure_calls(monkeypatch)
    sets = barely_crooked_sets(f)
    assert len(calls) < 20000
    assert len(sets) == 3168  # as many as the product finds


def test_g_facets_close_no_set_twice(monkeypatch, quiver_pool, seven_vertex_quivers):
    calls = _count_closure_calls(monkeypatch)
    for f in [pool.quiver for pool in quiver_pool] + seven_vertex_quivers:
        del calls[:]
        sets = barely_crooked_sets(f)
        searched = len(calls)
        del calls[:]
        facets = g_facets(f)
        assert len(calls) == searched
        assert [W for W, _hs in facets] == sets
        assert [hs for _W, hs in facets] == [g_facet(f, set(W)) for W in sets]


def test_barely_crooked_sets_edge_cases():
    empty = fringe(GentleQuiver((), {}, frozenset()))
    assert barely_crooked_sets(empty) == [] and g_facets(empty) == []
    f = fringe(GentleQuiver(("u",), {}, frozenset()))
    facets = g_facets(f)
    assert [sorted(W) for W, _hs in facets] == [["u#i1", "u#i2"], ["u#o1", "u#o2"]]
    assert [hs.coeffs for _W, hs in facets] == [{"u": 1}, {"u": -1}]


def test_s_coefficients_match_oracle(quiver_pool):
    # on the barely crooked sets and the crooked closures of random arrow sets
    import random
    rng = random.Random(29)
    checked = 0
    for pool in quiver_pool:
        f = pool.quiver
        arrows = sorted(f.arrows)
        sets = [set(W) for W in barely_crooked_sets(f)]
        for _ in range(25):
            cl = closure(f, set(rng.sample(arrows, rng.randint(0, len(arrows)))))
            if cl != set(arrows) and crookedness(f, cl) != "not-crooked":
                sets.append(cl)
        for W in sets:
            assert s_coefficients(f, W) == oracle_s_coefficients(f, W)
            checked += 1
    assert checked > 100


def test_facet_examples_shard():
    f = fixture_quiver("shard")
    hs = g_facet(f, {"f2", "e1"})
    assert hs.coeffs == {"v1": Q(0), "v2": Q(1)}
    assert hs.relation == "<=" and hs.rhs == 1
    face = g_face(f, {"f2", "e1", "e3"})
    assert face.coeffs == {"v1": Q(1, 2), "v2": Q(-1, 2)}
    assert face.relation == ">=" and face.rhs == -1
    # the face supports exactly the vertex (-1, 1)
    pres = g_polyhedron_presentation(f)
    tight = [t for t, v in pres.vertices if face.evaluate(v) == face.rhs]
    assert [g_vector(f, t) for t in tight] == [{"v1": -1, "v2": 1}]


def test_facets_against_hull_oracle():
    # brute-force 2d hull over the g-presentation agrees with the barely
    # crooked arrow-set pipeline, for both 2-internal-vertex fixtures
    for name in ("kronecker", "shard"):
        f = fixture_quiver(name)
        pres = g_polyhedron_presentation(f)
        order = sorted(f.internal_vertices)
        pts = [tuple(v[k] for k in order) for _t, v in pres.vertices]
        pts.append((Q(0), Q(0)))  # origin: image of the straight routes
        rays = [tuple(v[k] for k in order) for _t, v in pres.rays]
        expected = hull_edges_2d(pts, rays)
        got = set()
        for _W, hs in g_facets(f):
            a, b = (hs.coeffs[k] for k in order)
            got.add((int(a), int(b), int(hs.rhs)))
        assert got == expected, name


def test_facet_halfspaces_valid_on_presentation(quiver_pool):
    for pool in quiver_pool[:10]:
        f = pool.quiver
        pres = g_polyhedron_presentation(f)
        for _W, hs in g_facets(f):
            for _t, v in pres.vertices:
                assert hs.evaluate(v) <= hs.rhs
            for _t, v in pres.rays:
                assert hs.evaluate(v) <= 0


def test_unimodularity():
    f = fixture_quiver("shard")
    for k in complexes.maximal_cliques(f, 8):
        assert unimodularity_check(f, k.reduced().members)
    kron = fixture_quiver("kronecker")
    assert unimodularity_check(
        kron, [R("e1 f1^-1"), R("e3^-1 f3")])


def test_closed_face_bijection_rep_finite():
    # distinct closed sets give distinct faces: check injectivity of W -> Q_W
    # on the shard by comparing the sets of vertices they kill
    f = fixture_quiver("shard")
    pres = turbulence_presentation(f)
    arrows = sorted(f.arrows)
    from itertools import combinations
    closed_sets = []
    for r in range(len(arrows)):
        for combo in combinations(arrows, r):
            if is_closed(f, set(combo)):
                closed_sets.append(frozenset(combo))
    faces = {}
    for W in closed_sets:
        surviving = frozenset(str(t) for t, v in pres.vertices
                              if all(v.get(a, 0) == 0 for a in W))
        assert surviving not in faces.values() or True
        faces[W] = surviving
    assert len(set(faces.values())) == len(closed_sets)

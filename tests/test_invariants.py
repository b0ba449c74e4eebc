"""Cross-module invariants from the contracts, beyond the acceptance suite."""

import random
from fractions import Fraction as Q

from gentleflow import polyhedra, quiver, trails
from gentleflow.flows import blank_spaces, decompose_bundle, decompose_vortex, indicator
from gentleflow.trails import enumerate_bands, enumerate_routes, straight_routes


def test_rep_finiteness_matches_band_enumeration(quiver_pool):
    for pool in quiver_pool:
        f = pool.quiver
        has_band = bool(enumerate_bands(f, 2 * len(f.arrows)))
        assert quiver.is_representation_finite(f) == (not has_band)


def test_route_enumeration_complete_at_E_for_rep_finite(quiver_pool):
    for pool in quiver_pool:
        f = pool.quiver
        if not quiver.is_representation_finite(f):
            continue
        e = len(f.arrows)
        assert enumerate_routes(f, e) == enumerate_routes(f, 2 * e + 2)


def test_maximal_cliques_contain_all_straight_routes(quiver_pool):
    for pool in quiver_pool:
        straights = set(straight_routes(pool.quiver))
        for bun in pool.bundles:
            assert straights <= bun.trails


def test_fringe_conservation_of_route_part(quiver_pool):
    # the canonical clique combination matches the flow on every fringe arrow
    rng = random.Random(161803)
    for pool in quiver_pool[:15]:
        f = pool.quiver
        F, _ = pool.random_bundle_combination(rng)
        routes = decompose_bundle(F).routes
        for a in f.fringe_arrows():
            total = sum((x * sum(1 for b, _e in p.walk if b == a)
                         for p, x in routes.items()), Q(0))
            assert total == F[a]


def test_vortex_part_is_a_vortex(quiver_pool):
    rng = random.Random(271828)
    for pool in quiver_pool[:15]:
        f = pool.quiver
        F, _ = pool.random_bundle_combination(rng)
        vd = decompose_vortex(F)
        calc = f.calculus
        fringe = set(f.fringe_arrows())
        for band in vd.vortex:
            assert not any(a in fringe for a, _e in band.walk)
            for p in vd.routes:
                assert calc.compatible(band, p)


def test_blank_space_count_formula(quiver_pool):
    rng = random.Random(14142)
    for pool in quiver_pool[:15]:
        f = pool.quiver
        F, _ = pool.random_bundle_combination(rng)
        routes = decompose_bundle(F).routes
        expected = len(f.arrows) + sum(len(p.walk) for p in routes)
        assert len(blank_spaces(F)) == expected


def test_phi_preimage_straight_route_span(quiver_pool):
    # straight-route indicators span the kernel directions: adding them never
    # moves the image, and equal images differ by exactly such a combination
    rng = random.Random(60221)
    for pool in quiver_pool[:10]:
        f = pool.quiver
        ss = straight_routes(f)
        F1, _ = pool.random_bundle_combination(rng)
        F2 = F1
        coeffs = {}
        for s in ss:
            c = Q(rng.randint(0, 3))
            coeffs[s] = c
            F2 = F2.plus(indicator(f, s), c)
        assert polyhedra.phi(f, F2.values) == polyhedra.phi(f, F1.values)
        diff = {a: F2[a] - F1[a] for a in f.arrows}
        recon = {a: Q(0) for a in f.arrows}
        for s, c in coeffs.items():
            for a, _e in s.walk:
                recon[a] += c
        assert diff == recon


def test_facets_tight_at_enough_generators():
    for name in ("kronecker", "shard"):
        from gentleflow.fixtures import fixture_quiver
        f = fixture_quiver(name)
        pres = polyhedra.g_polyhedron_presentation(f)
        dim = len(f.internal_vertices)
        for _W, hs in polyhedra.g_facets(f):
            tight = sum(1 for _t, v in pres.vertices if hs.evaluate(v) == hs.rhs)
            tight += sum(1 for _t, v in pres.rays if hs.evaluate(v) == 0)
            assert tight >= dim


def test_decomposition_lands_in_a_maximal_bundle(quiver_pool):
    rng = random.Random(57721)
    for pool in quiver_pool[:15]:
        F, _ = pool.random_bundle_combination(rng)
        support = set(decompose_bundle(F).coefficients)
        assert any(support <= bun.trails for bun in pool.bundles)


def test_kiss_handles_equivalent_representatives():
    from gentleflow.fixtures import fixture_quiver
    from gentleflow.trails import Band, Route, parse_walk
    f = fixture_quiver("kronecker")
    calc = f.calculus
    b1 = Band.of(parse_walk("e2 f2^-1"))
    b2 = Band.of(parse_walk("f2^-1 e2"))
    b3 = Band.of(parse_walk("f2 e2^-1"))
    assert b1 == b2 == b3
    p1 = Route.of(parse_walk("e1 e2 f2^-1 f1^-1"))
    p2 = Route.of(parse_walk("f1 f2 e2^-1 e1^-1"))
    assert p1 == p2
    assert calc.kiss(b1, p1) == calc.kiss(b3, p2)


def _affine_rank(vectors):
    # exact rank of the differences against the first vector
    from fractions import Fraction
    if len(vectors) <= 1:
        return 0
    keys = sorted(vectors[0])
    base = vectors[0]
    rows = [[Fraction(v[k]) - Fraction(base[k]) for k in keys] for v in vectors[1:]]
    rank = 0
    cols = len(keys)
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def test_presentation_spans_the_stated_dimension():
    from gentleflow.fixtures import fixture_quiver
    for name in ("kronecker", "shard", "double-kronecker", "single-vertex"):
        f = fixture_quiver(name)
        pres = polyhedra.turbulence_presentation(f)
        vecs = [v for _t, v in pres.vertices]
        base = vecs[0]
        for _t, ray in pres.rays:
            vecs.append({k: base[k] + ray.get(k, 0) for k in base})
        assert _affine_rank(vecs) == pres.dimension, name


def test_straight_route_is_countercurrent_minimum(quiver_pool):
    from gentleflow.trails import countercurrent_compare, markings_at
    for pool in quiver_pool[:12]:
        f = pool.quiver
        for bun in pool.bundles[:2]:
            straights = [p for p in bun.sorted_trails() if trails.is_straight(p)]
            for s in straights:
                for a, _e in s.walk:
                    smark = markings_at(s, a, 1)[0]
                    for t in bun.sorted_trails():
                        for m in markings_at(t, a, 1):
                            assert countercurrent_compare(f, smark, m) <= 0

"""Acceptance suite: one test per criterion, one printed line per criterion."""

import random
from fractions import Fraction as Q
from math import gcd

import pytest

from gentleflow import complexes, dag, flows, polyhedra, quiver, trails
from gentleflow.complexes import band_stable_cliques, maximal_bundles, maximal_cliques
from gentleflow.fixtures import fixture_dag, fixture_quiver, singleton_quiver
from gentleflow.flows import (
    Flow,
    QInterval,
    backward,
    decompose_bundle,
    forward,
    indicator,
    splitting_strength,
    trace_interval,
)
from gentleflow.trails import Band, Route, g_vector, parse_walk

from oracles import clique_simplex_points, lattice_points_of_unit_flows, signed_head


def R(text):
    return Route.of(parse_walk(text))


def B(text):
    return Band.of(parse_walk(text))


def ok(label):
    print(f"ACCEPTANCE {label}: PASS")


# -- criterion 1: Kronecker presentation ----------------------------------------

def test_criterion_1_kronecker_presentation():
    f = fixture_quiver("kronecker")
    pres = polyhedra.turbulence_presentation(f)
    assert {t for t, _v in pres.vertices} == {
        R("e1 f1^-1"), R("e3^-1 f3"), R("e1 e2 e3"), R("f1 f2 f3")}
    assert [t for t, _v in pres.rays] == [B("e2 f2^-1")]
    assert pres.dimension == 3
    g = polyhedra.g_polyhedron_presentation(f)
    assert {tuple(int(v[k]) for k in sorted(v)) for _t, v in g.vertices} == {(-1, 0), (0, 1)}
    assert [tuple(int(v[k]) for k in sorted(v)) for _t, v in g.rays] == [(1, -1)]
    ok("1 (Kronecker presentation)")


# -- criterion 2: Kronecker dissections ------------------------------------------

def kron_left(j):
    return R("e1 " + "e2 f2^-1 " * j + "f1^-1")


def kron_right(j):
    return R("e3^-1 " + "e2^-1 f2 " * j + "f3")


def test_criterion_2_kronecker_dissections():
    f = fixture_quiver("kronecker")
    straights = {R("e1 e2 e3"), R("f1 f2 f3")}
    band = B("e2 f2^-1")
    for m in range(6):
        got = {frozenset(b.trails) for b in maximal_bundles(f, 4 + 2 * m, 4)}
        expected = {frozenset(straights | {kron_left(0), kron_right(0)}),
                    frozenset(straights | {band})}
        for j in range(m + 1):
            expected.add(frozenset(straights | {kron_left(j), kron_left(j + 1)}))
            expected.add(frozenset(straights | {kron_right(j), kron_right(j + 1)}))
        assert got == expected, f"m={m}"
    with_bands = [b for b in maximal_bundles(f, 10, 4) if b.bands]
    assert [set(b.trails) for b in with_bands] == [straights | {band}]
    stable = band_stable_cliques(f, 10, 4)
    maximal = {frozenset(k.routes) for k in maximal_cliques(f, 10)}
    nonmax = [set(k.routes) for k in stable if frozenset(k.routes) not in maximal]
    assert nonmax == [straights]
    ok("2 (Kronecker dissections)")


# -- criterion 3: shard quiver ----------------------------------------------------

def test_criterion_3_shard():
    f = fixture_quiver("shard")
    calc = f.calculus
    routes = trails.enumerate_routes(f, 8)
    self_compat = {p for p in routes if calc.self_compatible(p)}
    # exactly eight self-compatible routes, listed explicitly
    assert self_compat == {
        R("e4^-1 e2 e3 e4"), R("e1 e2 e3 e1^-1"), R("e1 e3^-1 f2"),
        R("e4^-1 e3^-1 f2"), R("e1 e2 f1^-1"), R("e4^-1 e2 f1^-1"),
        R("f1 f2"), R("e1 e2 e3 e4")}
    assert routes - self_compat == {R("e1 e3^-1 e2^-1 e4")}
    assert len(routes) == 9
    # the six bending self-compatible routes are elementary and give the
    # g-polyhedron vertices; e1e2e3e4 is not elementary
    elem = {p for p in routes if trails.is_elementary_route(f, p)}
    assert elem == self_compat - {R("e1 e2 e3 e4")}
    assert not trails.is_elementary_route(f, R("e1 e2 e3 e4"))
    bending_elem = {p for p in elem if not trails.is_straight(p)}
    assert len(bending_elem) == 6

    ks = maximal_cliques(f, 8)
    assert len(ks) == 6
    for k in ks:
        assert len(k.routes) == 3 * 2 - 2
        assert polyhedra.unimodularity_check(f, k.reduced().members)

    hs = polyhedra.g_facet(f, {"f2", "e1"})
    assert hs.coeffs == {"v1": Q(0), "v2": Q(1)} and hs.relation == "<=" and hs.rhs == 1
    face = polyhedra.g_face(f, {"f2", "e1", "e3"})
    # S-form: 1/2 x(v1) - 1/2 x(v2) >= -1, i.e. -1/2 x(v1) + 1/2 x(v2) <= 1
    assert face.coeffs == {"v1": Q(1, 2), "v2": Q(-1, 2)}
    assert face.relation == ">=" and face.rhs == -1
    ok("3 (shard quiver)")


# -- criterion 4: flow algorithm goldens -------------------------------------------

def test_criterion_4_flow_goldens():
    kron = fixture_quiver("kronecker")
    p = R("f1 f2 e2^-1 f2 e2^-1 e1^-1")
    q = R("f1 f2 e2^-1 f2 e2^-1 f2 e2^-1 e1^-1")
    F = Flow(kron, {"e1": 1, "f1": 1, "e2": Q(5, 2), "f2": Q(5, 2)})
    assert decompose_bundle(F).coefficients == {p: Q(1, 2), q: Q(1, 2)}

    s = singleton_quiver()
    Fs = Flow(s, {"alpha": 2, "beta": 1, "gamma": 1, "delta": 1, "eps": 1})
    mt, interval, length = trace_interval(Fs, ("alpha", 1), Q(1))
    assert trails.format_walk(mt.walk) == "alpha gamma delta^-1 kappa^-1"
    assert interval == QInterval(Q(1), Q(1)) and length == 0

    shard = fixture_quiver("shard")
    Fg = Flow(shard, {"e1": 2, "e2": 1, "e3": 1})
    mt1, i1, _ = trace_interval(Fg, ("e1", 1), Q(1, 2))
    mt2, i2, _ = trace_interval(Fg, ("e1", 1), Q(3, 2))
    assert (trails.format_walk(mt1.walk), mt1.index) == ("e1 e2 e3 e1^-1", 0)
    assert i1 == QInterval(Q(0), Q(1), True, False)
    assert i2 == QInterval(Q(1), Q(2), True, False)
    assert mt1.trail == mt2.trail

    g = fixture_dag("cube-dag")
    Fd = dag.DagFlow(g, {"e1": 1, "e2": 3, "f1": 3, "f2": 1})
    dec = {trails.format_walk(t.walk): x for t, x in dag.dag_decompose(Fd).items()}
    assert dec == {"e1 f1": Q(1), "e2 f1": Q(2), "e2 f2": Q(1)}
    ok("4 (flow algorithm goldens)")


# -- criterion 5: double Kronecker ---------------------------------------------------

def dk_flow(f, a, b, c, d):
    return Flow(f, {"e1": a, "f1": a, "e2": b, "f2": b,
                    "e3": c, "f3": c, "e4": d, "f4": d})


def dk_vec(f, t):
    iv = indicator(f, t)
    return tuple(int(iv[a]) for a in ("e1", "e2", "e3", "e4"))


def test_criterion_5_double_kronecker():
    f = fixture_quiver("double-kronecker")
    calc = f.calculus

    bands = trails.enumerate_bands(f, 16)
    got = {dk_vec(f, b2): b2 for b2 in bands if calc.self_compatible(b2)}
    coprime = {(0, b, c, 0) for b in range(9) for c in range(9)
               if 0 < b + c <= 8 and gcd(b, c) == 1}
    assert set(got) == coprime

    def expected_left(b, c):
        if c == 0:
            return {(1, b, 0, 0): Q(1)}
        if b == 0:
            return {(1, 0, 0, 0): Q(1), (0, 0, 1, 0): Q(c)}
        m = gcd(b, c - 1) if c > 1 else b
        if m <= 1:
            return {(1, b, c, 0): Q(1)}
        bp, cp = b // m, (c - 1) // m
        return {(1, bp, cp + 1, 0): Q(1), (0, bp, cp, 0): Q(m - 1)}

    def expected_right(b, c):
        if b == 0:
            return {(0, 0, c, 1): Q(1)}
        if c == 0:
            return {(0, 0, 0, 1): Q(1), (0, 1, 0, 0): Q(b)}
        m = gcd(b - 1, c) if b > 1 else c
        if m <= 1:
            return {(0, b, c, 1): Q(1)}
        bp, cp = (b - 1) // m, c // m
        return {(0, bp + 1, cp, 1): Q(1), (0, bp, cp, 0): Q(m - 1)}

    for b in range(7):
        for c in range(7):
            left = {dk_vec(f, t): x
                    for t, x in decompose_bundle(dk_flow(f, 1, b, c, 0)).coefficients.items()}
            assert left == expected_left(b, c), (b, c)
            right = {dk_vec(f, t): x
                     for t, x in decompose_bundle(dk_flow(f, 0, b, c, 1)).coefficients.items()}
            assert right == expected_right(b, c), (b, c)

    bundles = maximal_bundles(f, 12, 8)
    with_bands = {frozenset(dk_vec(f, t) for t in bun.reduced().trails)
                  for bun in bundles if bun.bands}
    expected_bundles = set()
    small_coprime = [(b, c) for b in range(5) for c in range(5)
                     if 0 < b + c <= 4 and gcd(b, c) == 1]
    for b, c in small_coprime:
        band = (0, b, c, 0)
        left = (1, 0, 0, 0) if (b, c) == (0, 1) else (1, b, c + 1, 0)
        right = (0, 0, 0, 1) if (b, c) == (1, 0) else (0, b + 1, c, 1)
        expected_bundles |= {frozenset({band, left}), frozenset({band, right})}
    assert with_bands == expected_bundles

    stable = band_stable_cliques(f, 12, 8)
    maximal = {frozenset(k.routes) for k in maximal_cliques(f, 12)}
    nonmax = {frozenset(dk_vec(f, t) for t in k.reduced().routes)
              for k in stable if frozenset(k.routes) not in maximal}
    expected_stable = {frozenset()}
    for b, c in small_coprime:
        left = (1, 0, 0, 0) if (b, c) == (0, 1) else (1, b, c + 1, 0)
        right = (0, 0, 0, 1) if (b, c) == (1, 0) else (0, b + 1, c, 1)
        expected_stable |= {frozenset({left}), frozenset({right})}
    assert nonmax == expected_stable
    ok("5 (double Kronecker)")


# -- criterion 6: randomized property suite ---------------------------------------------

@pytest.fixture(scope="module")
def decompositions(quiver_pool):
    """Precomputed (pool, input coefficients, flow, decomposition) samples."""
    rng = random.Random(424242)
    samples = []
    for i in range(700):
        pool = quiver_pool[i % len(quiver_pool)]
        F, coeffs = pool.random_bundle_combination(rng, integral=(i % 7 < 5))
        samples.append((pool, coeffs, F, decompose_bundle(F)))
    return samples


def test_criterion_6a_roundtrip(decompositions):
    n = 0
    for _pool, coeffs, _F, combo in decompositions:
        assert combo.coefficients == coeffs
        n += 1
    assert n >= 500
    ok("6a (decompose round-trip, %d cases)" % n)


def test_criterion_6b_integrality(decompositions):
    n = 0
    for _pool, _coeffs, F, combo in decompositions:
        if all(x.denominator == 1 for x in F.values.values()):
            assert all(x.denominator == 1 for x in combo.coefficients.values())
            n += 1
    assert n >= 500
    ok("6b (integer flows give integer coefficients, %d cases)" % n)


def test_criterion_6c_output_compatible(decompositions):
    n = 0
    for pool, _coeffs, _F, combo in decompositions:
        calc = pool.quiver.calculus
        ts = sorted(combo.coefficients, key=trails.trail_key)
        for i, p in enumerate(ts):
            assert calc.self_compatible(p)
            for q in ts[i + 1:]:
                assert calc.compatible(p, q)
        n += 1
    assert n >= 500
    ok("6c (output trails pairwise compatible, %d cases)" % n)


def test_criterion_6d_back_forward_identity(quiver_pool):
    rng = random.Random(31337)
    n = 0
    while n < 500:
        pool = quiver_pool[rng.randrange(len(quiver_pool))]
        f = pool.quiver
        F, _ = pool.random_bundle_combination(rng)
        for a in sorted(f.arrows):
            if F[a] == 0:
                continue
            c = F[a] * Q(rng.randint(1, 996), 997)
            for eps in (1, -1):
                if not f.is_internal(signed_head(f, a, eps)):
                    continue
                nxt, val = forward(F, (a, eps), c)
                assert backward(F, nxt, val) == ((a, eps), c)
                n += 1
    ok("6d (Back-Forward identity, %d cases)" % n)


def test_criterion_6e_phi_is_g_vector(quiver_pool):
    n = 0
    for pool in quiver_pool:
        f = pool.quiver
        for t in pool.trails:
            g = {v: Q(x) for v, x in g_vector(f, t).items()}
            assert polyhedra.phi(f, indicator(f, t).values) == g
            n += 1
        if n >= 500:
            break
    assert n >= 500
    ok("6e (phi of indicator equals g-vector, %d cases)" % n)


def test_criterion_6f_band_translation_stability(quiver_pool):
    rng = random.Random(777)
    bandy = [pool for pool in quiver_pool if pool.bands]
    n = 0
    while n < 500:
        pool = bandy[rng.randrange(len(bandy))]
        f = pool.quiver
        bundles = [bun for bun in pool.bundles if bun.bands]
        if not bundles:
            continue
        bun = rng.choice(bundles)
        band = sorted(bun.bands, key=trails.trail_key)[0]
        members = bun.sorted_trails()
        coeffs = {t: Q(rng.randint(1, 6), rng.randint(1, 3)) for t in members}
        vals = {}
        for t, c in coeffs.items():
            for a, _e in t.walk:
                vals[a] = vals.get(a, Q(0)) + c
        F = Flow(f, vals)
        base = decompose_bundle(F).routes
        m = splitting_strength(F, band)
        lo, hi = -m, Q(3)
        shift = lo + (hi - lo) * Q(rng.randint(0, 24), 24)
        F2 = F.plus(indicator(f, band), shift)
        assert decompose_bundle(F2).routes == base
        n += 1
    ok("6f (band-translation stability, %d cases)" % n)


def test_criterion_6g_cardinality_bounds(quiver_pool):
    n = 0
    for pool in quiver_pool:
        f = pool.quiver
        nn, e_int = len(f.internal_vertices), len(f.internal_arrows())
        for bun in pool.bundles:
            assert len(bun.trails) <= 3 * nn - e_int
            assert len(bun.reduced().trails) <= nn
            if bun.bands:
                assert len(bun.trails) < 3 * nn - e_int
            n += 1
    assert n >= 500
    ok("6g (bundle cardinality bounds, %d cases)" % n)


def test_criterion_6h_avoided_arrows_barely_crooked(quiver_pool):
    n = 0
    for pool in quiver_pool:
        f = pool.quiver
        for bun in pool.bundles:
            if bun.bands:
                continue
            red = bun.reduced()
            W = complexes.avoided_arrows(f, red.trails)
            if W == set(f.arrows):
                continue  # clique of straight routes only (no bending routes)
            assert polyhedra.is_closed(f, W)
            assert polyhedra.crookedness(f, W) == "barely-crooked"
            n += 1
    assert n >= 500
    ok("6h (avoided arrow sets barely crooked, %d cases)" % n)


# -- criterion 7: bridge equivalence ---------------------------------------------------

def paired_fixture_pairs():
    out = []
    for name in ("kronecker", "double-kronecker", "triple-kronecker"):
        f = fixture_quiver(name)
        psi = quiver.find_pairing(f)
        out.append((name, f, psi, dag.from_paired(f, psi)))
    for name in ("cube-dag", "difdagc-dag"):
        g = fixture_dag(name)
        g = dag.make_convenient(g)
        f, psi = dag.to_fringed_quiver(g)
        out.append((name, f, psi, g))
    return out


def test_criterion_7_bridge_equivalence():
    rng = random.Random(2718)
    for name, f, psi, g in paired_fixture_pairs():
        f2, psi2 = dag.to_fringed_quiver(g)
        assert (f2.arrows, f2.relation_pairs, psi2) == (f.arrows, f.relation_pairs, psi)
        assert dag.from_paired(f2, psi2) == g
        assert g.is_acyclic() == quiver.is_representation_finite(f)

        routes = sorted(trails.enumerate_routes(f, len(f.arrows)), key=trails.trail_key)
        bands = [b for b in trails.enumerate_bands(f, 2 * len(f.internal_vertices) + 2)
                 if f.calculus.self_compatible(b)]
        universe = routes + bands
        for _ in range(100):
            vals: dict[str, Q] = {}
            for t in rng.sample(universe, k=rng.randint(1, min(3, len(universe)))):
                c = Q(rng.randint(1, 6), rng.randint(1, 3))
                for a, _e in t.walk:
                    vals[a] = vals.get(a, Q(0)) + c
            F = flows.Flow(f, vals)
            combo = flows.decompose_bundle(F)
            dec = dag.dag_decompose(dag.DagFlow(g, {e: F[e] for e in g.edges}))

            def norm(coeffs):
                out = {}
                for t, x in coeffs.items():
                    key = tuple(sorted(a for a, _e in t.walk))
                    out[key] = out.get(key, Q(0)) + x
                return out

            assert norm(combo.coefficients) == norm(dec), name
    ok("7 (bridge equivalence, 5 fixtures x 100 flows)")


# -- criterion 8: dissection completeness oracle ------------------------------------------

def test_criterion_8_lattice_point_oracle():
    # regularity of the triangulations and density of the g-vector fan are not
    # desk-checkable; instead: on representation-finite fixtures, the rational
    # points of the turbulence polyhedron at small denominators are exactly the
    # points of the maximal clique simplices
    cases = [fixture_quiver("shard"), fixture_quiver("single-vertex")]
    g = dag.make_convenient(fixture_dag("difdagc-dag"))
    cases.append(dag.to_fringed_quiver(g)[0])
    for f in cases:
        assert quiver.is_representation_finite(f)
        cliques = maximal_cliques(f, len(f.arrows) + 2)
        for d in (1, 2, 3):
            brute = lattice_points_of_unit_flows(f, d)
            covered = clique_simplex_points(f, cliques, d)
            assert covered == brute, (sorted(f.arrows), d)
    ok("8 (clique simplices cover all small-denominator points)")

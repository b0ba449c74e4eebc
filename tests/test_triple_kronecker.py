"""The triple Kronecker quiver: two disjoint compatible bands coexist, so a
bundle wall sits strictly inside a vortex wall."""

from gentleflow import complexes, dag, polyhedra, quiver, trails
from gentleflow.fixtures import fixture_quiver
from gentleflow.trails import Band, parse_walk


def B(text):
    return Band.of(parse_walk(text))


def test_outer_bands_compatible_middle_band_not():
    f = fixture_quiver("triple-kronecker")
    calc = f.calculus
    b2, b3, b4 = B("e2 f2^-1"), B("e3 f3^-1"), B("e4 f4^-1")
    assert calc.compatible(b2, b4)
    assert not calc.compatible(b2, b3)
    assert not calc.compatible(b3, b4)
    for b in (b2, b3, b4):
        assert calc.self_compatible(b)
        assert trails.is_elementary_band(f, b)


def test_two_band_maximal_bundle_exists():
    f = fixture_quiver("triple-kronecker")
    straights = frozenset(trails.straight_routes(f))
    bundles = complexes.maximal_bundles(f, 10, 8)
    two_band = [bun for bun in bundles if len(bun.bands) == 2]
    assert any(bun.trails == straights | {B("e2 f2^-1"), B("e4 f4^-1")}
               for bun in two_band)


def test_two_band_wall_inside_empty_vortex_wall():
    # every band is compatible with the empty clique, so the vortex space of
    # the straights-only clique contains the two-band bundle wall strictly
    # (it also holds the middle band the wall lacks)
    f = fixture_quiver("triple-kronecker")
    calc = f.calculus
    stable = complexes.band_stable_cliques(f, 10, 8)
    straights = frozenset(trails.straight_routes(f))
    assert any(k.routes == straights for k in stable)
    bands = complexes.band_universe(f, 8)
    empt_generators = {b for b in bands}  # all bands are straights-compatible
    wall_generators = {b for b in bands
                       if calc.compatible(b, B("e2 f2^-1"))
                       and calc.compatible(b, B("e4 f4^-1"))}
    assert B("e3 f3^-1") in empt_generators - wall_generators


def test_g_vectors_of_bands():
    f = fixture_quiver("triple-kronecker")
    order = sorted(f.internal_vertices)
    assert [trails.g_vector(f, B("e2 f2^-1"))[v] for v in order] == [1, -1, 0, 0]
    assert [trails.g_vector(f, B("e3 f3^-1"))[v] for v in order] == [0, 1, -1, 0]
    assert [trails.g_vector(f, B("e4 f4^-1"))[v] for v in order] == [0, 0, 1, -1]


def test_dimension_matches_through_bridge():
    for name in ("kronecker", "double-kronecker", "triple-kronecker"):
        f = fixture_quiver(name)
        g = dag.from_paired(f, quiver.find_pairing(f))
        internal = sum(1 for _v, k in g.vertices.items() if k == "internal")
        assert polyhedra.turbulence_dimension(f) == len(g.edges) - internal - 1

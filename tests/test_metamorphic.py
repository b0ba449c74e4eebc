"""Renaming arrows and vertices changes every integer code and the canonical
orientation of trails, but no answer: the complexes, decompositions,
g-vectors, elementary trails, polyhedron presentations and barely crooked
arrow sets of a renamed quiver are the originals renamed."""

import random
from fractions import Fraction

from gentleflow import cli
from gentleflow.complexes import band_stable_cliques, maximal_bundles, maximal_cliques
from gentleflow.flows import Flow, decompose_bundle
from gentleflow.polyhedra import (
    barely_crooked_sets,
    g_polyhedron_presentation,
    turbulence_presentation,
)
from gentleflow.quiver import parse_quiver_file, serialize_fringed
from gentleflow.trails import elementary_bands, elementary_routes, g_vector, trail_key


class Renaming:
    """A copy of f whose arrows become e0, e1, ... and vertices v0, v1, ...
    in a random order, so that e10 sorts before e2: codes and the serialized
    order of walks change."""

    def __init__(self, f, rng):
        arrows = sorted(f.arrows)
        vertices = sorted(f.internal_vertices + f.fringe_vertices)
        new_arrows = [f"e{i}" for i in range(len(arrows))]
        new_vertices = [f"v{i}" for i in range(len(vertices))]
        rng.shuffle(new_arrows)
        rng.shuffle(new_vertices)
        self.arrow = dict(zip(arrows, new_arrows))
        self.vertex = dict(zip(vertices, new_vertices))
        names = {**self.arrow, **self.vertex}

        def rename(token):  # "a0:" in an arrow line keeps its colon
            name = token.rstrip(":")
            return names.get(name, name) + token[len(name):]

        lines = serialize_fringed(f).splitlines()
        self.quiver = parse_quiver_file("".join(" ".join(map(rename, line.split())) + "\n"
                                                for line in lines))
        self.back_arrow = {b: a for a, b in self.arrow.items()}
        self.back_vertex = {b: a for a, b in self.vertex.items()}
        self._back: dict = {}

    def to(self, t):
        return type(t).of(tuple((self.arrow[a], e) for a, e in t.walk))

    def back(self, t):
        hit = self._back.get(t)
        if hit is None:
            hit = self._back[t] = type(t).of(tuple((self.back_arrow[a], e) for a, e in t.walk))
        return hit

    def back_set(self, trails):
        return frozenset(self.back(t) for t in trails)


def _check_complexes(f, g: Renaming, rb, bb):
    """Cliques, bundles, and band-stable cliques with their maximal flags and
    vortex band generators agree up to the renaming; returns f's bundles."""
    h = g.quiver
    assert ({frozenset(k.routes) for k in maximal_cliques(f, rb)}
            == {g.back_set(k.routes) for k in maximal_cliques(h, rb)})
    bundles = maximal_bundles(f, rb, bb)
    assert ({frozenset(b.trails) for b in bundles}
            == {g.back_set(b.trails) for b in maximal_bundles(h, rb, bb)})
    assert ({(frozenset(k.routes), k.maximal, frozenset(k.band_generators))
             for k in band_stable_cliques(f, rb, bb)}
            == {(g.back_set(k.routes), k.maximal, g.back_set(k.band_generators))
                for k in band_stable_cliques(h, rb, bb)})
    return bundles


def _check_flows(f, g: Renaming, trails, flows):
    """Bundle decompositions of the flows and g-vectors of the trails agree
    up to the renaming."""
    for F in flows:
        renamed = Flow(g.quiver, {g.arrow[a]: x for a, x in F.values.items()})
        assert (decompose_bundle(F).coefficients
                == {g.back(t): x for t, x in decompose_bundle(renamed).coefficients.items()})
    for t in trails:
        assert g_vector(f, t) == {g.back_vertex[v]: x
                                  for v, x in g_vector(g.quiver, g.to(t)).items()}


def _generators(pres, trail, coordinate):
    """The vertices and rays of a presentation, trails and coordinates mapped."""
    return {(kind, trail(t), frozenset((coordinate[k], x) for k, x in v.items()))
            for kind, rows in (("vertex", pres.vertices), ("ray", pres.rays)) for t, v in rows}


def _check_polyhedra(f, g: Renaming):
    """Elementary routes and bands, the turbulence and g-polyhedron
    presentations and the barely crooked arrow sets agree up to the renaming."""
    h = g.quiver
    assert set(elementary_routes(f)) == g.back_set(elementary_routes(h))
    assert set(elementary_bands(f)) == g.back_set(elementary_bands(h))
    for present, coordinate in ((turbulence_presentation, g.back_arrow),
                                (g_polyhedron_presentation, g.back_vertex)):
        mine, theirs = present(f), present(h)
        assert sorted(mine.ambient) == sorted(coordinate[k] for k in theirs.ambient)
        assert mine.dimension == theirs.dimension
        same = {k: k for k in mine.ambient}
        assert _generators(mine, lambda t: t, same) == _generators(theirs, g.back, coordinate)
    assert (set(barely_crooked_sets(f))
            == {frozenset(g.back_arrow[a] for a in W) for W in barely_crooked_sets(h)})


def test_renaming_keeps_polyhedra(quiver_pool):
    rng = random.Random(303)
    for pool in quiver_pool:
        _check_polyhedra(pool.quiver, Renaming(pool.quiver, rng))


def test_renaming_keeps_complexes(quiver_pool):
    rng = random.Random(101)
    for pool in quiver_pool:
        _check_complexes(pool.quiver, Renaming(pool.quiver, rng), pool.route_bound,
                         pool.band_bound)


def test_renaming_keeps_decompositions_and_g_vectors(quiver_pool):
    rng = random.Random(202)
    for pool in quiver_pool:
        flows = [pool.random_bundle_combination(rng)[0] for _ in range(3)]
        _check_flows(pool.quiver, Renaming(pool.quiver, rng), pool.trails, flows)


def test_renaming_keeps_doubled_a5(doubled_a5):
    f = doubled_a5
    g = Renaming(f, random.Random(5))
    bundles = _check_complexes(f, g, cli.default_route_bound(f), cli.default_band_bound(f))
    _check_polyhedra(f, g)
    rng = random.Random(6)
    flows = []
    for bundle in rng.sample(bundles, 4):
        values: dict = {}
        for t in bundle.trails:
            c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            for a, _e in t.walk:
                values[a] = values.get(a, 0) + c
        flows.append(Flow(f, values))
    _check_flows(f, g, sorted(set().union(*(b.trails for b in bundles)), key=trail_key), flows)


def test_renaming_changes_the_codes(quiver_pool):
    # the renamings above do reorder: some trail's canonical orientation flips
    rng = random.Random(101)
    flipped = 0
    for pool in quiver_pool:
        g = Renaming(pool.quiver, rng)
        flipped += sum(g.to(p).walk != tuple((g.arrow[a], e) for a, e in p.walk)
                       for p in pool.routes)
    assert flipped > 0

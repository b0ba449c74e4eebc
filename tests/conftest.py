import random
from fractions import Fraction as Q

import pytest

from gentleflow import complexes, flows, quiver, trails
from gentleflow.fixtures import fixture_quiver
from gentleflow.quiver import fringe

from random_quivers import random_gentle_quiver


class TrailPool:
    """A fringed quiver with a precomputed modest trail universe."""

    def __init__(self, f, route_bound=None, band_bound=None):
        self.quiver = f
        rb = route_bound if route_bound is not None else min(len(f.arrows), 10)
        bb = band_bound if band_bound is not None else min(2 * len(f.internal_vertices) + 2, 8)
        self.route_bound = max(rb, 1)
        self.band_bound = max(bb, 2)
        self.routes = sorted(trails.enumerate_routes(f, self.route_bound), key=trails.trail_key)
        self.bands = complexes.band_universe(f, self.band_bound)
        self.trails = [p for p in self.routes
                       if f.calculus.self_compatible(p)] + list(self.bands)
        self.bundles = complexes.maximal_bundles(f, self.route_bound, self.band_bound)

    def random_bundle_combination(self, rng, integral=False, positive=True):
        """A random flow built from a subset of one maximal bundle."""
        bundle = rng.choice(self.bundles)
        members = bundle.sorted_trails()
        k = rng.randint(1, len(members))
        picks = rng.sample(members, k)
        coeffs = {}
        for t in picks:
            if integral:
                c = Q(rng.randint(1 if positive else 0, 4))
            else:
                c = Q(rng.randint(1 if positive else 0, 12), rng.randint(1, 6))
            if c > 0:
                coeffs[t] = c
        vals = {}
        for t, c in coeffs.items():
            for a, _e in t.walk:
                vals[a] = vals.get(a, Q(0)) + c
        return flows.Flow(self.quiver, vals), coeffs


@pytest.fixture(scope="session")
def quiver_pool():
    """Fixtures plus random small gentle quivers, with trail universes."""
    rng = random.Random(20240917)
    pool = [TrailPool(fixture_quiver(name))
            for name in ("kronecker", "shard", "double-kronecker", "single-vertex")]
    pool.append(TrailPool(fixture_quiver("triple-kronecker"), route_bound=8, band_bound=8))
    while len(pool) < 40:
        q = random_gentle_quiver(rng)
        pool.append(TrailPool(fringe(q)))
    return pool


@pytest.fixture(scope="session")
def perfbench_gen():
    """The benchmark's input generator, perfbench/gen.py."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


@pytest.fixture(scope="session")
def seven_vertex_quivers(perfbench_gen):
    """Two fringed 7-vertex random quivers of the benchmark's generator
    (seeds 1 and 5), of the shape its facet inputs have."""
    return [fringe(quiver.parse_quiver_file(perfbench_gen.random_gentle_quiver(s, 7)))
            for s in (1, 5)]


@pytest.fixture(scope="session")
def doubled_a5(perfbench_gen):
    """The fringed doubled A5 path of the benchmark's generator (218 bending
    self-compatible routes, 2084 maximal cliques at the default bound)."""
    return quiver.parse_quiver_file(perfbench_gen.doubled_path(5))

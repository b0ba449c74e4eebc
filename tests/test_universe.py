"""The per-quiver trail universe: interned integer trails, Booth
canonicalisation of bands, the facts band_stable_cliques hands back, and
the value classes that carry trails around."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from oracles import oracle_band_walk, oracle_walk_key

from gentleflow import cli
from gentleflow.complexes import (
    Bundle,
    Clique,
    band_stable_cliques,
    band_universe,
    maximal_bundles,
    maximal_cliques,
)
from gentleflow.dag import FramedDirectedGraph
from gentleflow.fixtures import FIXTURES, fixture_quiver
from gentleflow.flows import BlankSpace, BundleCombination, QInterval, VortexDecomposition
from gentleflow.polyhedra import HalfSpace, PolyhedronPresentation
from gentleflow.quiver import FringedQuiver, GentleQuiver, Record, Value, parse_quiver_file, serialize_fringed
from gentleflow.trails import (
    Band,
    MarkedTrail,
    Route,
    enumerate_bands,
    enumerate_routes,
    inverse_walk,
    least_rotation,
    trail_key,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_least_rotation_matches_all_rotations():
    rng = random.Random(3)
    for _ in range(3000):
        w = tuple(rng.randrange(rng.randint(1, 4)) for _ in range(rng.randint(0, 14)))
        assert least_rotation(w) == min((w[i:] + w[:i] for i in range(len(w))), default=())


def test_band_canonical_form_matches_all_rotations(quiver_pool):
    # every band at the default band bound, and random rotations and
    # inversions of it, against the least of all rotations under string keys
    rng = random.Random(11)
    for pool in quiver_pool:
        f = pool.quiver
        universe = f.calculus.universe
        for b in enumerate_bands(f, cli.default_band_bound(f)):
            assert b.walk == oracle_band_walk(b.walk)
            for _ in range(4):
                i = rng.randrange(len(b.walk))
                w = b.walk[i:] + b.walk[:i]
                if rng.random() < 0.5:
                    w = inverse_walk(w)
                assert universe.band(universe.word(w)) is b
                assert Band.of(w) == b and Band.of(w).walk == oracle_band_walk(w)


def test_route_canonical_form_matches_string_order(quiver_pool):
    for pool in quiver_pool:
        universe = pool.quiver.calculus.universe
        for p in pool.routes:
            inv = inverse_walk(p.walk)
            assert p.walk == min(p.walk, inv, key=oracle_walk_key)
            assert universe.route(universe.word(inv)) is p
            assert Route.of(inv) == p and hash(Route.of(inv)) == hash(p)


def value_cases():
    """(class, fields by keyword in order, a change to a compared field, a
    change to fields == ignores, frozen?, a cached property or None)."""
    f = fixture_quiver("kronecker")
    r1, r2 = sorted(enumerate_routes(f, 3), key=trail_key)[:2]
    band = min(enumerate_bands(f, 4), key=trail_key)
    iv = QInterval(Q(0), Q(1, 2))
    return [
        (GentleQuiver, {"vertices": ("1", "2"), "arrows": {"a": ("1", "2")}, "relations": frozenset()},
         {"vertices": ("1",)}, {}, True, None),
        (FringedQuiver, {"internal_vertices": f.internal_vertices, "fringe_vertices": f.fringe_vertices,
                         "arrows": f.arrows, "relation_pairs": f.relation_pairs},
         {"arrows": {}}, {}, True, "relations"),
        (MarkedTrail, {"trail": r1, "codes": r1.codes, "index": 0}, {"index": 1}, {}, True, "walk"),
        (QInterval, {"lo": Q(0), "hi": Q(1, 2), "lo_open": False, "hi_open": True},
         {"lo_open": True}, {}, True, None),
        (BundleCombination, {"coefficients": {r1: Q(1)}}, {"coefficients": {r1: Q(2)}}, {}, False, None),
        (VortexDecomposition, {"routes": {r1: Q(1)}, "vortex": {band: Q(1)}}, {"vortex": {}}, {}, False, None),
        (BlankSpace, {"arrow": "a", "interval": iv, "below": None, "above": r1},
         {"below": r1}, {}, False, None),
        (Clique, {"routes": frozenset({r1, r2}), "maximal": None, "band_generators": ()},
         {"routes": frozenset({r1})}, {"maximal": True, "band_generators": (band,)}, True, "members"),
        (Bundle, {"trails": frozenset({r1, band})}, {"trails": frozenset({r1})}, {}, True, "members"),
        (FramedDirectedGraph, {"vertices": {"s": "source", "t": "sink"}, "edges": {"e": ("s", "t")},
                               "labels": {"e": 1}}, {"labels": {"e": 2}}, {}, True, "trail_universe"),
        (PolyhedronPresentation, {"ambient": ["a"], "vertices": [(r1, {"a": 1})], "rays": [],
                                  "dimension": 1}, {"dimension": 2}, {}, False, None),
        (HalfSpace, {"coeffs": {"1": Q(1)}, "relation": "<=", "rhs": Q(0), "form": "S"},
         {"rhs": Q(1)}, {}, False, None),
    ]


@pytest.mark.parametrize("case", value_cases(), ids=lambda case: case[0].__name__)
def test_value_classes_keep_their_record_semantics(case):
    # Each class behaves as the frozen (or eq-only) record it replaces,
    # rebuilt here as `old` with the same fields; Clique compares its routes only.
    cls, kw, changed, ignored, frozen, cached = case
    old = dataclasses.make_dataclass(cls.__name__, [
        (n, object, dataclasses.field(compare=n not in ignored)) for n in kw], frozen=frozen)
    x, ref = cls(**kw), old(**kw)
    assert all(getattr(x, n) is v for n, v in kw.items())
    assert cls(*kw.values()) == x
    assert repr(x) == repr(ref)
    assert x == cls(**kw) and x != cls(**{**kw, **changed})
    assert x == cls(**{**kw, **ignored}) and x != ref and x.__eq__(ref) is NotImplemented
    name = next(iter(changed))
    try:
        expected = hash(ref)
    except TypeError:  # a dict field, or a mutable record
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected == hash(cls(**{**kw, **ignored}))
    if frozen:
        with pytest.raises(AttributeError):
            setattr(x, name, changed[name])
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is kw[name]
    else:
        setattr(x, name, changed[name])
        assert x == cls(**{**kw, **changed})
    if cached:
        assert getattr(x, cached) is getattr(x, cached) and cached in vars(x)


def value_classes(base=Value):
    for cls in base.__subclasses__():
        yield cls
        yield from value_classes(cls)


def test_every_value_class_keys_on_its_fields():
    # A frozen class's __init__ writes its == and hash key by hand: it must
    # take every annotated field, in order, but the ones a class leaves out
    # (Clique: maximal, band_generators), and the parameters must be the fields
    uncompared = {Clique: {"maximal", "band_generators"}}
    classes = set(value_classes()) - {Record}
    assert classes == {case[0] for case in value_cases()}
    for cls in classes:
        kw = {n: object() for n in cls.__annotations__}
        x = cls(**kw)
        assert vars(x).keys() - {"_key"} == kw.keys()
        assert x._key == tuple(v for n, v in kw.items() if n not in uncompared.get(cls, ()))


def assert_stable_facts_match_two_passes(f, rb, bb, stable):
    # the maximal flag against a second maximal_cliques search, and the
    # band generators against kissing every band with every route
    calc = f.calculus
    maximal = {frozenset(k.routes) for k in maximal_cliques(f, rb)}
    bands = band_universe(f, bb)
    for k in stable:
        assert k.maximal == (frozenset(k.routes) in maximal)
        assert list(k.band_generators) == [
            b for b in bands if all(calc.compatible(b, p) for p in k.routes)]


def test_stable_clique_facts_match_two_passes(quiver_pool):
    for pool in quiver_pool:
        f = pool.quiver
        rb, bb = pool.route_bound, pool.band_bound
        assert_stable_facts_match_two_passes(f, rb, bb, band_stable_cliques(f, rb, bb))


def test_band_stable_where_bands_kill_routes():
    # triple-kronecker at the CLI's default bounds: bands kill routes, so the
    # search tries unstable candidates (1436 for 420 stable cliques), and the
    # kill sets decide which of them are stable
    from oracles import oracle_band_stable_cliques

    f = fixture_quiver("triple-kronecker")
    rb, bb = cli.default_route_bound(f), cli.default_band_bound(f)
    assert (rb, bb) == (18, 10)
    stable = band_stable_cliques(f, rb, bb)
    assert len(stable) == len(set(stable)) == 420
    assert set(stable) == oracle_band_stable_cliques(f, rb, bb)
    assert_stable_facts_match_two_passes(f, rb, bb, stable)
    assert any(not k.maximal for k in stable)


def test_searched_values_build_their_sets_on_first_use(quiver_pool):
    # a search hands back its members only; the set field and the key come
    # on first use, cached, and equal, and hash like, the hand-built value
    for pool in quiver_pool:
        f = pool.quiver
        rb, bb = pool.route_bound, pool.band_bound
        searched = (maximal_cliques(f, rb) + band_stable_cliques(f, rb, bb)
                    + maximal_bundles(f, rb, bb))
        for k in searched + [k.reduced() for k in searched]:
            field = "routes" if isinstance(k, Clique) else "trails"
            assert field not in vars(k) and "_key" not in vars(k)
            built = type(k)(frozenset(k.members))
            assert k == built and hash(k) == hash(built)
            assert getattr(k, field) is getattr(k, field) and field in vars(k)
            assert getattr(k, field) == frozenset(k.members)


def test_kiss_reads_foreign_trails_by_walk(quiver_pool):
    # trails interned outside a quiver are read by their walks, and kiss as
    # the quiver's own trails do (in a fresh calculus, so no cache answers)
    for pool in quiver_pool[:12]:
        own = pool.trails[:12]
        foreign = [(Band if isinstance(t, Band) else Route).of(t.walk) for t in own]
        assert foreign == own
        fresh = parse_quiver_file(serialize_fringed(pool.quiver)).calculus
        assert all(u.universe is not fresh.universe for u in foreign)
        for t, u in zip(own, foreign):
            for s, v in zip(own, foreign):
                assert fresh.kiss(u, v) == pool.quiver.calculus.kiss(t, s)


COMMANDS = [("routes", "--max-arrows", "8"), ("bands",), ("cliques", "--max-arrows", "8"),
            ("bundles", "--max-arrows", "8"), ("band-stable", "--max-arrows", "8"),
            ("cells", "--kind", "vortex", "--max-arrows", "8"), ("facets",)]


def test_interning_is_per_quiver(tmp_path, capsys):
    # triple-kronecker and a copy whose arrows take the names one before
    # theirs (e1 -> d9, e2 -> e1, ..., f5 -> f4) share nine arrow names, and
    # each code word spells one walk of both quivers in two different ways:
    # run in one process, interleaved, their reports equal those of fresh
    # processes
    text = FIXTURES["triple-kronecker"]
    names = sorted({line.split()[1].rstrip(":") for line in text.splitlines()
                    if line.startswith("arrow")})
    shift = dict(zip(names, ["d9"] + names[:-1]))
    shifted = "".join(" ".join(shift.get(t.rstrip(":"), t.rstrip(":")) + t[len(t.rstrip(":")):]
                               for t in line.split()) + "\n" for line in text.splitlines())
    files = []
    for name, body in (("tk", text), ("tk-shifted", shifted)):
        path = tmp_path / f"{name}.qv"
        path.write_text(body)
        files.append(str(path))
    argvs = [(cmd[0], path, *cmd[1:]) for cmd in COMMANDS for path in files]
    same_process = []
    for argv in argvs:
        assert cli.main(list(argv)) == 0
        same_process.append(capsys.readouterr().out)
    assert json.loads(same_process[0])["payload"] != json.loads(same_process[1])["payload"]
    for argv, out in zip(argvs, same_process):
        fresh = subprocess.run([sys.executable, "-m", "gentleflow.cli", *argv],
                               capture_output=True, text=True, check=True,
                               env={**os.environ, "PYTHONPATH": str(SRC)})
        assert json.loads(fresh.stdout) == json.loads(out), argv

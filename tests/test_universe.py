"""The per-quiver trail universe: interned integer trails, Booth
canonicalisation of bands, and the facts band_stable_cliques hands back."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from oracles import oracle_band_walk, oracle_walk_key

from gentleflow import cli
from gentleflow.complexes import band_stable_cliques, band_universe, maximal_cliques
from gentleflow.fixtures import FIXTURES
from gentleflow.quiver import parse_quiver_file, serialize_fringed
from gentleflow.trails import (
    Band,
    Route,
    enumerate_bands,
    inverse_walk,
    least_rotation,
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


def test_stable_clique_facts_match_two_passes(quiver_pool):
    # the maximal flag against a second maximal_cliques search, and the
    # band generators against kissing every band with every route
    for pool in quiver_pool:
        f = pool.quiver
        rb, bb = pool.route_bound, pool.band_bound
        calc = f.calculus
        maximal = {frozenset(k.routes) for k in maximal_cliques(f, rb)}
        bands = band_universe(f, bb)
        for k in band_stable_cliques(f, rb, bb):
            assert k.maximal == (frozenset(k.routes) in maximal)
            assert list(k.band_generators) == [
                b for b in bands if all(calc.compatible(b, p) for p in k.routes)]


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

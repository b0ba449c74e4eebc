import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from gentleflow import dag, fixtures, flows, quiver, trails
from gentleflow.dag import (
    DagFlow,
    FramedDirectedGraph,
    dag_decompose,
    from_paired,
    is_convenient,
    is_gently_framed,
    make_convenient,
    parse_framed_graph,
    serialize_framed_graph,
    to_fringed_quiver,
    validate_framed,
)
from gentleflow.fixtures import fixture_dag, fixture_quiver
from gentleflow.quiver import DomainError
from gentleflow.trails import format_walk


def test_validate_cube():
    g = fixture_dag("cube-dag")
    assert validate_framed(g) == []
    assert g.is_acyclic()
    assert not is_convenient(g)
    assert is_gently_framed(g)


def test_validate_kron_graph():
    f = fixture_quiver("kronecker")
    psi = quiver.find_pairing(f)
    g = from_paired(f, psi)
    assert validate_framed(g) == []
    assert not g.is_acyclic()
    assert is_convenient(g) and is_gently_framed(g)


def test_monolabelled_cycle_rejected():
    g = FramedDirectedGraph(
        vertices={"u": "internal", "v": "internal",
                  "s1": "source", "s2": "source", "t1": "sink", "t2": "sink"},
        edges={"a": ("u", "v"), "b": ("v", "u"),
               "p": ("s1", "u"), "q": ("s2", "v"),
               "r": ("u", "t1"), "w": ("v", "t2")},
        labels={"a": 1, "b": 1, "p": 2, "q": 2, "r": 2, "w": 2},
    )
    assert any("cycle" in v for v in validate_framed(g))
    with pytest.raises(DomainError, match="oriented cycle using only 1-edges"):
        DagFlow(g, {})


def drawn_framed_graph(rng: random.Random, n: int) -> FramedDirectedGraph:
    """n internal vertices, each with one in- and one out-edge of each label.

    The k-edges between internal vertices run forward in a random order of
    them, so no cycle uses one label only; the other ends go to sources and
    sinks, often shared (so g need not be convenient).  Sometimes a
    source-to-sink edge and an isolated source are added.
    """
    vertices = {f"m{i}": "internal" for i in range(n)}
    edges: dict[str, tuple[str, str]] = {}
    labels: dict[str, int] = {}

    def edge(t, h, k):
        e = f"e{len(edges)}"
        edges[e], labels[e] = (t, h), k

    def end(kind):
        v = f"{kind}{rng.randint(0, n)}"
        vertices[v] = kind
        return v

    for k in (1, 2):
        order = rng.sample([f"m{i}" for i in range(n)], n)
        fed = set()
        for i, v in enumerate(order):
            later = [w for w in order[i + 1:] if w not in fed]
            if later and rng.random() < 0.7:
                fed.add(w := rng.choice(later))
                edge(v, w, k)
            else:
                edge(v, end("sink"), k)
        for v in order:
            if v not in fed:
                edge(end("source"), v, k)
    if rng.random() < 0.3:
        edge(end("source"), end("sink"), rng.choice((1, 2)))
    if rng.random() < 0.3:
        vertices["lone"] = "source"
    return FramedDirectedGraph(vertices, edges, labels)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.integers(0, 7))
def test_fringed_quiver_of_drawn_framed_graphs_is_valid(rng, n):
    # fringed_quiver does not validate the quiver it builds; on amply
    # framed graphs, the only ones DagFlow and to_fringed_quiver pass it,
    # the construction guarantees it
    g = drawn_framed_graph(rng, n)
    assert validate_framed(g) == []
    dag.fringed_quiver(make_convenient(g)).validate()


def test_bridge_round_trips():
    for name in ("kronecker", "double-kronecker", "triple-kronecker"):
        f = fixture_quiver(name)
        psi = quiver.find_pairing(f)
        g = from_paired(f, psi)
        f2, psi2 = to_fringed_quiver(g)
        assert f2.arrows == f.arrows
        assert f2.relation_pairs == f.relation_pairs
        assert psi2 == psi
        assert from_paired(f2, psi2) == g


def test_bridge_difdagc():
    g = fixture_dag("difdagc-dag")
    assert validate_framed(g) == []
    f, psi = to_fringed_quiver(g)
    f.validate()
    assert quiver.is_representation_finite(f) == g.is_acyclic() is True
    assert from_paired(f, psi) == g


def test_acyclicity_iff_rep_finite():
    for name in ("kronecker", "double-kronecker", "triple-kronecker"):
        f = fixture_quiver(name)
        g = from_paired(f, quiver.find_pairing(f))
        assert g.is_acyclic() == quiver.is_representation_finite(f)


def test_bridge_rejects_unpaired():
    f = fixture_quiver("shard")
    assert quiver.find_pairing(f) is None
    with pytest.raises(DomainError):
        from_paired(f, {a: 1 for a in f.arrows})


def test_make_convenient():
    g = fixture_dag("cube-dag")
    g2 = make_convenient(g)
    assert is_convenient(g2)
    assert validate_framed(g2) == []
    f, _psi = to_fringed_quiver(g2)
    f.validate()
    assert set(f.arrows) == set(g.edges)


def test_make_convenient_avoids_taken_names():
    # the internal vertex already bears the name a split of s would get
    g = parse_framed_graph(fixtures.CUBE_DAG.replace(" m", " s@e1"))
    assert validate_framed(g) == []
    g2 = make_convenient(g)
    assert validate_framed(g2) == [] and is_convenient(g2)
    assert sorted(g2.vertices) == ["s@@e1", "s@e1", "s@e2", "t@f1", "t@f2"]
    dec = dag_decompose(DagFlow(g, {"e1": 1, "e2": 3, "f1": 3, "f2": 1}))
    assert {format_walk(t.walk): x for t, x in dec.items()} == {"e1 f1": Q(1), "e2 f1": Q(2), "e2 f2": Q(1)}


def test_cube_decomposition_golden():
    g = fixture_dag("cube-dag")
    F = DagFlow(g, {"e1": 1, "e2": 3, "f1": 3, "f2": 1})
    dec = dag_decompose(F)
    named = {format_walk(t.walk): x for t, x in dec.items()}
    assert named == {"e1 f1": Q(1), "e2 f1": Q(2), "e2 f2": Q(1)}


def test_single_route_decomposition():
    g = fixture_dag("difdagc-dag")
    F = DagFlow(g, {"p1": 1, "m1": 1, "r1": 1})
    dec = dag_decompose(F)
    assert {format_walk(t.walk): x for t, x in dec.items()} == {"p1 m1 r1": Q(1)}


def test_source_to_sink_edge():
    g = FramedDirectedGraph(
        vertices={"s": "source", "t": "sink"},
        edges={"a": ("s", "t")},
        labels={"a": 1},
    )
    assert validate_framed(g) == []
    assert not is_gently_framed(g)
    with pytest.raises(DomainError):
        to_fringed_quiver(g)
    dec = dag_decompose(DagFlow(g, {"a": Q(7, 2)}))
    assert {format_walk(t.walk): x for t, x in dec.items()} == {"a": Q(7, 2)}


def test_dag_decompose_cyclic_graph_bands():
    f = fixture_quiver("kronecker")
    g = from_paired(f, quiver.find_pairing(f))
    F = DagFlow(g, {"e2": 2, "f2": 2})
    dec = dag_decompose(F)
    assert len(dec) == 1
    ((band, coeff),) = dec.items()
    assert isinstance(band, trails.Band)
    assert coeff == 2
    assert {a for a, _e in band.walk} == {"e2", "f2"}


def test_dag_agrees_with_quiver_decompose():
    rng = random.Random(99)
    for name in ("kronecker", "double-kronecker", "triple-kronecker"):
        f = fixture_quiver(name)
        psi = quiver.find_pairing(f)
        g = from_paired(f, psi)
        routes = sorted(trails.enumerate_routes(f, len(f.arrows) + 2),
                        key=trails.trail_key)
        bands = sorted(trails.enumerate_bands(f, 2 * len(f.internal_vertices) + 2),
                       key=trails.trail_key)
        universe = routes + [b for b in bands
                             if f.calculus.self_compatible(b)]
        for _ in range(25):
            vals: dict[str, Q] = {}
            for t in rng.sample(universe, k=rng.randint(1, 4)):
                c = Q(rng.randint(1, 8), rng.randint(1, 5))
                for a, _e in t.walk:
                    vals[a] = vals.get(a, Q(0)) + c
            F = flows.Flow(f, vals)
            combo = flows.decompose_bundle(F)
            dec = dag_decompose(DagFlow(g, {e: F[e] for e in g.edges}))

            def norm(coeffs):
                out = {}
                for t, x in coeffs.items():
                    key = tuple(sorted(a for a, _e in t.walk))
                    out[key] = out.get(key, Q(0)) + x
                return out

            assert norm(combo.coefficients) == norm(dec)


# -- DAG trails read along g ---------------------------------------------------------

NON_CONVENIENT = FramedDirectedGraph(
    vertices={"s": "source", "m": "internal", "t1": "sink", "t2": "sink"},
    edges={"a": ("s", "m"), "b": ("s", "m"), "c": ("m", "t1"), "d": ("m", "t2")},
    labels={"a": 1, "b": 2, "c": 1, "d": 2},
)
SOURCE_TO_SINK = FramedDirectedGraph(
    vertices={"s": "source", "t": "sink"}, edges={"a": ("s", "t")}, labels={"a": 1})


def shuffled_doubled_path(n: int, rng: random.Random) -> FramedDirectedGraph:
    """s1, s2 -> m1 => m2 => ... => mn -> t1, t2, edges named x0, x1, ... at random."""
    ends = [("s1", "m1", 1), ("s2", "m1", 2)]
    ends += [(f"m{i}", f"m{i + 1}", k) for i in range(1, n) for k in (1, 2)]
    ends += [(f"m{n}", "t1", 1), (f"m{n}", "t2", 2)]
    names = [f"x{i}" for i in range(len(ends))]
    rng.shuffle(names)
    vertices = {"s1": "source", "s2": "source", "t1": "sink", "t2": "sink"}
    vertices.update({f"m{i}": "internal" for i in range(1, n + 1)})
    return FramedDirectedGraph(vertices, {x: (t, h) for x, (t, h, _k) in zip(names, ends)},
                               {x: k for x, (_t, _h, k) in zip(names, ends)})


def path_flow(g: FramedDirectedGraph, rng: random.Random) -> dict[str, Q]:
    """A positive combination of a few random source-to-sink paths of an acyclic g."""
    vals = dict.fromkeys(g.edges, Q(0))
    sources = sorted(v for v, kind in g.vertices.items() if kind == "source")
    for _ in range(rng.randint(1, 4)):
        v, c = rng.choice(sources), Q(rng.randint(1, 9), rng.randint(1, 4))
        while g.edges_out(v):
            e = rng.choice(g.edges_out(v))
            vals[e] += c
            v = g.edges[e][1]
    return vals


def trail_flow(f, rng: random.Random) -> dict[str, Q]:
    """A positive combination of a few routes and self-compatible bands of f."""
    universe = sorted(trails.enumerate_routes(f, len(f.arrows) + 2), key=trails.trail_key)
    universe += [b for b in sorted(trails.enumerate_bands(f, 2 * len(f.internal_vertices) + 2),
                                   key=trails.trail_key) if f.calculus.self_compatible(b)]
    vals: dict[str, Q] = {}
    for t in rng.sample(universe, k=rng.randint(1, min(4, len(universe)))):
        c = Q(rng.randint(1, 8), rng.randint(1, 5))
        for a, _e in t.walk:
            vals[a] = vals.get(a, Q(0)) + c
    return vals


def dag_cases():
    rng = random.Random(31)
    cases = [(fixture_dag("cube-dag"), {"e1": 1, "e2": 3, "f1": 3, "f2": 1}),
             (fixture_dag("difdagc-dag"), {"p1": 1, "m1": 1, "r1": 1}),
             (SOURCE_TO_SINK, {"a": Q(7, 2)})]
    for g in (fixture_dag("cube-dag"), fixture_dag("difdagc-dag"), NON_CONVENIENT):
        cases += [(g, path_flow(g, rng)) for _ in range(5)]
    for name in ("kronecker", "double-kronecker", "triple-kronecker", "single-vertex"):
        f = fixture_quiver(name)
        g = from_paired(f, quiver.find_pairing(f))
        cases += [(g, trail_flow(f, rng)) for _ in range(5)]
    for n in (1, 2, 5, 5, 5, 8):
        g = shuffled_doubled_path(n, rng)
        cases += [(g, path_flow(g, rng)) for _ in range(2)]
    return cases


def along_g(g: FramedDirectedGraph, t: trails.Trail) -> tuple[str, ...]:
    """The edges of t in the orientation whose signs are all +1."""
    walk = t.walk
    if all(s == -1 for _e, s in walk):
        walk = tuple((e, -s) for e, s in reversed(walk))
    assert all(s == 1 for _e, s in walk), t
    return tuple(e for e, _s in walk)


def test_dag_trails_are_directed_paths_and_cycles():
    inverted = 0
    for g, vals in dag_cases():
        dec = dag_decompose(DagFlow(g, vals))
        assert dec and all(x > 0 for x in dec.values())
        for t in dec:
            edges = along_g(g, t)
            tails = [g.edges[e][0] for e in edges]
            heads = [g.edges[e][1] for e in edges]
            assert heads[:-1] == tails[1:], t
            if isinstance(t, trails.Band):
                assert heads[-1] == tails[0], t
                assert all(g.vertices[v] == "internal" for v in tails), t
            else:
                assert (g.vertices[tails[0]], g.vertices[heads[-1]]) == ("source", "sink"), t
            inverted += "^-1" in str(t)
    assert inverted  # some trails print against g's orientation


def test_dag_traces_each_trail_once(monkeypatch):
    found = []
    traced = flows.trace_interval

    def recording(*args):
        out = traced(*args)
        if out[2] > 0:
            found.append(out[0].trail)
        return out

    monkeypatch.setattr(flows, "trace_interval", recording)
    for g, vals in dag_cases():
        found.clear()
        dec = dag_decompose(DagFlow(g, vals))
        assert len(found) == len(set(found)) == len(dec)


def test_framed_graph_file_roundtrip():
    g = fixture_dag("difdagc-dag")
    assert parse_framed_graph(serialize_framed_graph(g)) == g


@pytest.mark.parametrize("text", [
    "vertex s source\nvertex s sink\n",
    "vertex s source\nvertex t sink\nedge e: s -> t label 1\nedge e: s -> t label 2\n",
    "vertex m internal junk\n",
    "vertex s source\nvertex t sink\nedge e: s -> t label 1 extra\n",
    "vertex s source\nvertex t sink\nedge e: s -> t label one\n",
    # ids that trail text misreads: an inverse arrow, a band
    "vertex s source\nvertex t sink\nedge e^-1: s -> t label 1\n",
    "vertex s source\nvertex t sink\nedge band:e: s -> t label 1\n",
])
def test_parse_framed_graph_errors(text):
    with pytest.raises(quiver.StructuralError, match=r"line \d+: "):
        parse_framed_graph(text)


def test_long_framed_chain():
    # sources s1, s2 -> v0 => v1 => ... => v2999 -> sinks t1, t2, parallel edges labelled 1, 2
    n = 3000
    vertices = {"s1": "source", "s2": "source", "t1": "sink", "t2": "sink"}
    vertices.update({f"v{i}": "internal" for i in range(n)})
    edges = {"p1": ("s1", "v0"), "p2": ("s2", "v0"),
             "q1": (f"v{n - 1}", "t1"), "q2": (f"v{n - 1}", "t2")}
    edges.update({f"e{i}_{k}": (f"v{i}", f"v{i + 1}") for i in range(n - 1) for k in (1, 2)})
    g = FramedDirectedGraph(vertices, edges, {e: int(e[-1]) for e in edges})
    assert validate_framed(g) == []
    assert g.is_acyclic()

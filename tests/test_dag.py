import random
from fractions import Fraction as Q

import pytest

from gentleflow import dag, flows, quiver, trails
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
                             if trails.calculus(f).self_compatible(b)]
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


def test_framed_graph_file_roundtrip():
    g = fixture_dag("difdagc-dag")
    assert parse_framed_graph(serialize_framed_graph(g)) == g


@pytest.mark.parametrize("text", [
    "vertex s source\nvertex s sink\n",
    "vertex s source\nvertex t sink\nedge e: s -> t label 1\nedge e: s -> t label 2\n",
    "vertex m internal junk\n",
    "vertex s source\nvertex t sink\nedge e: s -> t label 1 extra\n",
    "vertex s source\nvertex t sink\nedge e: s -> t label one\n",
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

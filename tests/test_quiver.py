import os
import random
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import gentleflow
from gentleflow import dag, quiver, trails
from gentleflow.fixtures import DAG_FIXTURES, QUIVER_FIXTURES, fixture_quiver
from gentleflow.quiver import (
    DomainError,
    GentleQuiver,
    StructuralError,
    find_pairing,
    fringe,
    is_representation_finite,
    parse_quiver_file,
    serialize_fringed,
    validate_gentle,
)

from oracles import oracle_strip_comment, straight_route_count


def kronecker_base():
    return GentleQuiver(("1", "2"), {"a": ("1", "2"), "b": ("1", "2")}, frozenset())


def shard_base():
    # two vertices on a 2-cycle with a single relation: fringes to the shard shape
    return GentleQuiver(("u", "w"),
                        {"x": ("u", "w"), "y": ("w", "u")},
                        frozenset({("x", "y")}))


def nonpaired_infinite_base():
    # three parallel-ish arrows: fringes to a quiver that is neither
    # representation-finite nor paired (5 arrows, one straight route)
    return GentleQuiver(("u", "w"),
                        {"x": ("u", "w"), "y": ("w", "u"), "z": ("u", "w")},
                        frozenset({("x", "y"), ("y", "z")}))


def test_validate_gentle_examples():
    assert validate_gentle(kronecker_base()) == []
    assert validate_gentle(GentleQuiver((), {}, frozenset())) == []
    loop = GentleQuiver(("v",), {"a": ("v", "v")}, frozenset())
    assert any("cycle" in msg for msg in validate_gentle(loop))
    # the same loop bound by a relation is fine
    bound_loop = GentleQuiver(("v",), {"a": ("v", "v")}, frozenset({("a", "a")}))
    assert validate_gentle(bound_loop) == []


def test_validate_structural_errors():
    with pytest.raises(StructuralError):
        validate_gentle(GentleQuiver(("v",), {"a": ("v", "nowhere")}, frozenset()))
    with pytest.raises(StructuralError):
        validate_gentle(GentleQuiver(("v", "w"),
                                     {"a": ("v", "w"), "b": ("v", "w")},
                                     frozenset({("a", "b")})))  # non-composable relation


def test_validate_overfull_vertex():
    q = GentleQuiver(("v", "w"),
                     {"a": ("v", "w"), "b": ("v", "w"), "c": ("v", "w")},
                     frozenset())
    assert any("out-degree" in m for m in validate_gentle(q))


def test_fringe_kronecker_counts():
    f = fringe(kronecker_base())
    assert len(f.internal_vertices) == 2
    assert len(f.internal_arrows()) == 2
    assert len(f.arrows) == 6
    assert len(trails.straight_routes(f)) == straight_route_count(f) == 2
    f.validate()


def test_fringe_single_vertex():
    f = fringe(GentleQuiver(("v",), {}, frozenset()))
    assert len(f.arrows) == 4
    assert len(f.fringe_vertices) == 4
    assert len(trails.straight_routes(f)) == straight_route_count(f) == 2


def test_fringe_shard_base_counts():
    f = fringe(shard_base())
    assert len(f.arrows) == 4 * 2 - 2
    assert len(trails.straight_routes(f)) == straight_route_count(f) == 2
    f.validate()


def test_fringe_matches_equation_on_random_quivers(quiver_pool):
    for pool in quiver_pool:
        f = pool.quiver
        assert len(f.arrows) == 4 * len(f.internal_vertices) - len(f.internal_arrows())
        assert len(trails.straight_routes(f)) == 2 * len(f.internal_vertices) - len(f.internal_arrows())


def base_quiver(f):
    """The gentle quiver that f fringes: its internal vertices and arrows."""
    inner = f.internal_arrows()
    return GentleQuiver(tuple(f.internal_vertices), {a: f.arrows[a] for a in inner},
                        frozenset((a, b) for a, b in f.relations if a in inner and b in inner))


def test_fringe_gives_valid_fringed_quivers(quiver_pool, perfbench_gen):
    # fringe does not validate its result; the construction guarantees it
    bases = [base_quiver(pool.quiver) for pool in quiver_pool]
    bases += [base_quiver(fixture_quiver(name)) for name in QUIVER_FIXTURES]
    bases += [base_quiver(dag.fringed_quiver(dag.make_convenient(dag.parse_framed_graph(t))))
              for t in DAG_FIXTURES.values()]
    bases += [base_quiver(parse_quiver_file(perfbench_gen.doubled_path(6)))]
    bases += [parse_quiver_file(text) for text in (
        perfbench_gen.path_quiver(40), perfbench_gen.random_gentle_quiver(0, 48),
        perfbench_gen.random_gentle_quiver(1, 300, acyclic=True))]
    for q in bases:
        fringe(q).validate()
    for pool in quiver_pool[5:]:  # fringed by fringe itself, so base_quiver inverts it
        f = fringe(base_quiver(pool.quiver))
        assert f.arrows == pool.quiver.arrows
        assert f.relation_pairs == pool.quiver.relation_pairs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.integers(1, 7))
def test_fringe_of_drawn_quivers_is_valid(rng, n):
    from conftest import random_gentle_quiver
    fringe(random_gentle_quiver(rng, n)).validate()


def test_find_pairing_examples():
    assert find_pairing(fixture_quiver("kronecker")) is not None
    assert find_pairing(fixture_quiver("shard")) is None
    assert find_pairing(fringe(nonpaired_infinite_base())) is None


def test_pairing_invariant():
    f = fixture_quiver("kronecker")
    psi = find_pairing(f)
    for a in f.arrows:
        for b in f.arrows:
            if f.head(a) == f.tail(b):
                assert ((a, b) in f.relations) == (psi[a] != psi[b])
    # canonical: first arrow labelled 1
    assert psi[sorted(f.arrows)[0]] == 1


def test_is_representation_finite():
    assert is_representation_finite(fixture_quiver("shard"))
    assert not is_representation_finite(fixture_quiver("kronecker"))
    assert not is_representation_finite(fixture_quiver("double-kronecker"))
    assert not is_representation_finite(fringe(nonpaired_infinite_base()))


def _finite_and_cycle_free_agree(f):
    # Kahn's peel of cont against the Tarjan core that the band search reads
    assert is_representation_finite(f) == (not f.calculus.on_cycle)


def test_representation_finite_iff_no_code_on_a_cycle(quiver_pool, perfbench_gen):
    for pool in quiver_pool:
        _finite_and_cycle_free_agree(pool.quiver)
    big = [perfbench_gen.path_quiver(600), perfbench_gen.random_gentle_quiver(0, 300, acyclic=True),
           perfbench_gen.random_gentle_quiver(0, 300)]
    for text in big:
        _finite_and_cycle_free_agree(fringe(parse_quiver_file(text)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.integers(1, 7))
def test_representation_finite_iff_no_code_on_a_cycle_on_drawn_quivers(rng, n):
    from conftest import random_gentle_quiver
    _finite_and_cycle_free_agree(fringe(random_gentle_quiver(rng, n)))


def test_quiver_file_roundtrip():
    f = fixture_quiver("kronecker")
    again = parse_quiver_file(serialize_fringed(f))
    assert again.arrows == f.arrows
    assert again.relation_pairs == f.relation_pairs


def test_parse_base_quiver():
    q = parse_quiver_file("vertex a\nvertex b\narrow x: a -> b\n")
    assert isinstance(q, GentleQuiver)
    assert q.arrows == {"x": ("a", "b")}


def test_parse_errors():
    with pytest.raises(StructuralError):
        parse_quiver_file("arrow x a -> b\n")
    with pytest.raises(StructuralError):
        parse_quiver_file("fringe-vertex w\n")  # outside a fringed file
    with pytest.raises(StructuralError):
        parse_quiver_file("vertex v\narrow x: v -> v\narrow x: v -> v\n")
    for extra_tokens in ("vertex v junk\n",
                         "vertex v\narrow a: v -> v extra tokens\nrelation a a\n",
                         "vertex v\narrow a: v -> v\nrelation a a zzz\n",
                         "fringed\nvertex v\nfringe-vertex w x\n"):
        with pytest.raises(StructuralError, match=r"line \d+: malformed line"):
            parse_quiver_file(extra_tokens)


@pytest.mark.parametrize("text, ln", [
    ("vertex 1\nvertex 2\narrow a: 1 -> 2\narrow a^-1: 1 -> 2\n", 4),
    ("vertex band:1\nvertex 2\narrow a: band:1 -> 2\n", 1),
    ("vertex 1\n# a comment\narrow band:a: 1 -> 1\n", 3),
    ("fringed\nvertex v\nfringe-vertex p^-1\n", 3),
    ("fringed\nvertex v\nfringe-vertex band:p\n", 3),
    ("vertex v^-1\n", 1),
], ids=["arrow-inverse", "vertex-band", "arrow-band", "fringe-vertex-inverse", "fringe-vertex-band",
        "vertex-inverse"])
def test_ids_that_trail_text_misreads_are_structural_errors(text, ln):
    # parse_walk reads a token ending in '^-1' as an inverse arrow and
    # parse_trail a leading 'band:' as a band; fringe arrow ids start with
    # their vertex id
    with pytest.raises(StructuralError, match=rf"^line {ln}: id '.*' ends in '\^-1' or starts with 'band:'"):
        parse_quiver_file(text)


def _random_digraphs(rng, count):
    """(successor lists on 0..n-1, the networkx graph), self-loops included."""
    for _ in range(count):
        n = rng.randint(0, 12)
        succ = [sorted({rng.randrange(n) for _ in range(rng.randint(0, 3))}) for _v in range(n)]
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from((v, w) for v, ws in enumerate(succ) for w in ws)
        yield succ, g


def _networkx_core(g):
    return {v for comp in nx.strongly_connected_components(g)
            for v in comp if len(comp) > 1 or g.has_edge(v, v)}


def test_cyclic_core_matches_networkx():
    # rooted at every node, at random subsets of the nodes, and on the graph
    # induced by a random mask of live nodes, as polyhedra._closure runs it
    rng = random.Random(7)
    for succ, g in _random_digraphs(rng, 300):
        n = len(succ)
        oracle = _networkx_core(g)
        core = quiver.cyclic_core(succ)
        assert sorted(core) == sorted(oracle)
        for _ in range(3):
            roots = rng.sample(range(n), rng.randint(0, n))
            reached = set(roots).union(*(nx.descendants(g, v) for v in roots))
            assert set(quiver.cyclic_core(succ, roots)) == oracle & reached, roots
            alive = rng.getrandbits(n)
            live = [v for v in range(n) if alive >> v & 1]
            assert set(quiver.cyclic_core(succ, live, alive)) == _networkx_core(g.subgraph(live)), alive


def test_acyclic_matches_networkx():
    rng = random.Random(11)
    for succ, g in _random_digraphs(rng, 300):
        assert quiver.acyclic(succ) == nx.is_directed_acyclic_graph(g)
    for n in (0, 1, 5000):  # a long path, and that path closed into a cycle
        path = [[v + 1] for v in range(n - 1)] + [[]] * (n > 0)
        assert quiver.acyclic(path)
        if n:
            assert not quiver.acyclic(path[:-1] + [[0]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet="#a \t!", max_size=12))
def test_strip_comment_matches_the_character_scan(line):
    assert quiver._strip_comment(line) == oracle_strip_comment(line)


def test_fringed_quiver_validation_errors():
    bad = quiver.FringedQuiver(("v",), ("w",), {"a": ("w", "v")}, {})
    with pytest.raises(DomainError):
        bad.validate()


def test_fringe_rejects_a_fringed_quiver():
    with pytest.raises(DomainError) as err:
        fringe(fixture_quiver("kronecker"))
    assert str(err.value) == "input is already fringed"


# Each input breaks one check in several places; the check names the first
# it meets, so it must meet them in an order that no hash seed changes.
FIRST_OFFENDER = """
from gentleflow import polyhedra
from gentleflow.fixtures import fixture_quiver
from gentleflow.quiver import DomainError, StructuralError, parse_quiver_file, serialize_fringed, validate_gentle

relations = "vertex 1\\nvertex 2\\narrow a: 1 -> 2\\n" + "".join(
    f"relation {r}\\n" for r in ("t u", "r s", "p q", "w x"))
fringed = serialize_fringed(fixture_quiver("kronecker")) + "fringe-vertex g1\\nfringe-vertex g2\\n"
for check in (lambda: validate_gentle(parse_quiver_file(relations)),
              lambda: parse_quiver_file(fringed),
              lambda: polyhedra.closure(fixture_quiver("kronecker"), {"zz", "yy", "xx"})):
    try:
        check()
    except (DomainError, StructuralError) as err:
        print(err)
"""


def test_the_first_offender_named_does_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(gentleflow.__file__))
    seen = set()
    for seed in range(1, 7):
        run = subprocess.run([sys.executable, "-c", FIRST_OFFENDER], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)})
        seen.add(run.stdout)
    assert seen == {"relation p q uses an unknown arrow\n"
                    "fringe vertex g1 has 0 incident arrows (want 1)\n"
                    "unknown arrow xx\n"}


def rematched(f, v):
    """f with the relation pairs at v matching its in- and out-arrows the other way."""
    (a1, a2), (b1, b2) = f.relation_pairs[v]
    return quiver.FringedQuiver(f.internal_vertices, f.fringe_vertices, f.arrows,
                                {**f.relation_pairs, v: ((a1, b2), (b1, a2))})


def test_fringed_validation_agrees_with_the_gentle_axioms(quiver_pool):
    # validate tests only the relation-free cycle of validate_gentle, since
    # its own checks imply the other axioms: on every rematching of one
    # vertex of the pool, it agrees with validate_gentle on the gentle quiver
    # of all the vertices, arrows and relations
    verdicts = set()
    for pool in quiver_pool:
        for v in pool.quiver.internal_vertices:
            f = rematched(pool.quiver, v)
            vertices = tuple(sorted(f.internal_vertices + f.fringe_vertices))
            problems = validate_gentle(GentleQuiver(vertices, f.arrows, f.relations))
            if problems:
                with pytest.raises(DomainError) as err:
                    f.validate()
                assert str(err.value) == "; ".join(problems)
            else:
                f.validate()
            verdicts.add(bool(problems))
    assert verdicts == {True, False}


def test_relation_data_off_the_internal_vertices_is_domain_error():
    f = fixture_quiver("kronecker")
    w = min(f.fringe_vertices)
    pairs = {**f.relation_pairs, w: f.relation_pairs[f.internal_vertices[0]]}
    bad = quiver.FringedQuiver(f.internal_vertices, f.fringe_vertices, f.arrows, pairs)
    with pytest.raises(DomainError) as err:
        bad.validate()
    assert str(err.value) == f"relation data at {w}, not an internal vertex"

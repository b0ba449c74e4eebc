"""The paper's main theorem, checked by oracles that share no code with the
kiss: maximal cliques index a unimodular triangulation of the flow polytope.
So each maximal clique's bending g-vectors form a unimodular basis, and on a
framed DAG the maximal cliques are as many as the polytope's normalized
volume, which the Lidskii formula counts."""

from itertools import product

import pytest

from gentleflow import dag, quiver
from gentleflow.cli import default_route_bound
from gentleflow.complexes import maximal_cliques
from gentleflow.fixtures import DAG_FIXTURES
from gentleflow.polyhedra import unimodularity_check

from oracles import oracle_lidskii_volume


def test_every_maximal_clique_is_unimodular(quiver_pool):
    checked = 0
    for pool in quiver_pool:
        f = pool.quiver
        if not quiver.is_representation_finite(f):
            continue
        for k in maximal_cliques(f, default_route_bound(f)):
            assert unimodularity_check(f, k.members), k.as_json()
            checked += 1
    assert checked == 483  # over 32 representation-finite quivers


# each framed DAG with its known volume: doubled_path_dag(n) has (n + 1)!
# maximal cliques, the square flow polytope of cube-dag 2
VOLUMES = [("doubled_path_dag", 2, 6), ("doubled_path_dag", 3, 24), ("doubled_path_dag", 4, 120),
           ("doubled_path_dag", 5, 720), ("cube-dag", None, 2), ("difdagc-dag", None, 5)]


@pytest.mark.parametrize("name, n, volume", VOLUMES, ids=[f"{name}-{n}" for name, n, _v in VOLUMES])
def test_maximal_cliques_count_the_lidskii_volume(perfbench_gen, name, n, volume):
    g = dag.parse_framed_graph(DAG_FIXTURES[name] if n is None else perfbench_gen.doubled_path_dag(n))
    assert oracle_lidskii_volume(g) == volume
    f, _psi = dag.to_fringed_quiver(g)
    assert len(maximal_cliques(f, default_route_bound(f))) == volume


# each framed DAG with the number of {1, 2} edge labellings that frame it amply
FRAMINGS = [("doubled_path_dag", 2, 8), ("doubled_path_dag", 3, 16), ("doubled_path_dag", 4, 32),
            ("cube-dag", None, 4), ("difdagc-dag", None, 8)]


@pytest.mark.parametrize("name, n, framings", FRAMINGS,
                         ids=[f"{name}-{n}" for name, n, _k in FRAMINGS])
def test_maximal_cliques_do_not_depend_on_the_framing(perfbench_gen, name, n, framings):
    # The flow polytope of a DAG does not depend on its framing
    # (Danilov-Karzanov-Koshevoy 2012), so every ample framing of it has as
    # many maximal cliques as the Lidskii volume.
    g = dag.parse_framed_graph(DAG_FIXTURES[name] if n is None else perfbench_gen.doubled_path_dag(n))
    volume = oracle_lidskii_volume(g)
    edges = sorted(g.edges)
    counted = 0
    for labels in product((1, 2), repeat=len(edges)):
        h = dag.FramedDirectedGraph(g.vertices, g.edges, dict(zip(edges, labels)))
        if dag.validate_framed(h):
            continue
        f, _psi = dag.to_fringed_quiver(h)
        assert len(maximal_cliques(f, default_route_bound(f))) == volume, labels
        counted += 1
    assert counted == framings


def test_maximal_cliques_count_the_lidskii_volume_on_the_pool(quiver_pool):
    # every paired pool quiver with an acyclic flow-graph: the clique count
    # against the volume of the flow polytope of its DAG
    checked = 0
    for pool in quiver_pool:
        f = pool.quiver
        psi = quiver.find_pairing(f)
        if psi is None:
            continue
        g = dag.from_paired(f, psi)
        if not g.is_acyclic():
            continue
        assert len(maximal_cliques(f, default_route_bound(f))) == oracle_lidskii_volume(g)
        checked += 1
    assert checked == 19  # of the 32 representation-finite pool quivers

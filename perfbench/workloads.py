"""The benchmark's three workloads, as lists of `gentleflow` command lines.

A workload is a list of slots.  A slot draws `count` distinct variants
from a finite pool with the run's seed, and each variant adds a few
commands.  Pools are finite so that every command any seed can produce has
a payload digest recorded in reference.json.  Pools of random quivers hold
generator seeds picked so that each variant costs about the same at the
commit that defined the benchmark: the seed changes the inputs, not the
amount of work.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import gen

KRONECKER = gen.doubled_path(2)
DOUBLE_KRONECKER = gen.doubled_path(3)
TRIPLE_KRONECKER = gen.doubled_path(4)

# Random gentle quivers, as (vertices, generator seed).  Each pool holds the
# draws whose commands cost within a narrow band (best of three, in-process)
# at the commit that defined the benchmark.
# 6 vertices: cliques and bundles in 60-80 ms, band-stable and cells in
# 0.73-0.93 s, mostly in kiss, the compatibility matrix and Bron-Kerbosch.
# A narrow band, because the 90th percentile of clique-search falls among
# these commands.  (Most 7-vertex draws take over 1.5 s in band-stable alone.)
MID_CLIQUE_POOL = [(6, 8), (6, 17), (6, 24), (6, 36), (6, 38), (6, 41)]
# 3 vertices: the same four commands in 17-33 ms.  They pad clique-search to
# 100 commands, so ten lie beyond its 90th percentile.
SMALL_POOL = [(3, s) for s in (0, 1, 2, 3, 4, 6, 7, 8, 11, 12, 13, 14, 16, 18, 21, 22, 23,
                               25, 29, 30, 34, 35, 36, 37, 38)]
# 8-10 vertices: vertices + rays in 29-56 ms.
POLY_POOL = ([(8, s) for s in (1, 2, 4, 5, 6, 8, 9, 10, 13, 14, 16, 18, 19, 20, 22)]
             + [(9, s) for s in (0, 4, 5, 14, 15, 19, 20, 22)]
             + [(10, s) for s in (3, 4, 7, 14, 15)])
# 7 vertices: facets (one choice per straight route, exponential) in 0.50-0.71 s.
FACET_POOL = [(7, s) for s in (0, 1, 5, 6, 7, 15, 17, 20, 21, 22, 24)]
# 48 vertices: validate + fringe + pairing in 53-66 ms.
SEEDS_48 = (0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 14, 15, 17, 18, 20, 21, 22, 23)
# 300 vertices, acyclic: validate + fringe + pairing in 1.78-1.87 s.
SEEDS_300 = (0, 1, 3, 5, 7, 9, 10, 11, 13)
# Quivers whose maximal bundles seed the bundle-combination flows.
BUNDLE_QUIVERS = {"triple-kronecker": TRIPLE_KRONECKER,
                  **{f"random-{n}-{s}": gen.random_gentle_quiver(s, n)
                     for n, s in SMALL_POOL[::2]}}
BUNDLES_PER_QUIVER = 8


def random_quiver(spec) -> str:
    n, seed = spec
    return gen.random_gentle_quiver(seed, n)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    check: Callable[[object], bool] | None = None   # analytic check of the payload
    known_defect: str | None = None                 # exception it is known to raise today

    @property
    def key(self) -> str:
        """Input files are named by content hash, so the command line is the key."""
        return " ".join(self.args)


class Plan:
    """Input files and commands of one workload run."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.files: dict[str, str] = {}
        self.commands: list[Command] = []

    def file(self, text: str, ext: str) -> str:
        name = sha(text)[:16] + ext
        self.files[name] = text
        return name

    def flow_file(self, flow: dict) -> str:
        return self.file(json.dumps(flow, sort_keys=True), ".json")

    def add(self, *args, check=None, known_defect=None) -> None:
        self.commands.append(Command(tuple(args), check, known_defect))


@dataclass(frozen=True)
class Slot:
    name: str
    count: int                          # variants drawn per run
    pool: int                           # variants to draw from
    make: Callable[[Plan, int], None]   # adds the commands of one variant
    heavy: bool = False                 # left out of --tiny runs


# -- analytic checks ----------------------------------------------------------

def _arrow_uses(trail: str) -> Counter:
    return Counter(tok.removesuffix("^-1") for tok in trail.removeprefix("band:").split())


def reconstructs(flow: dict[str, str], band_key: str = "bands"):
    """The payload's trails, weighted by their coefficients, sum to the flow."""
    want = {a: Fraction(x) for a, x in flow.items() if Fraction(x)}

    def check(payload) -> bool:
        total: Counter = Counter()
        for item in payload["routes"] + payload[band_key]:
            c = Fraction(item["coeff"])
            if c <= 0:
                return False
            for a, uses in _arrow_uses(item["trail"]).items():
                total[a] += c * uses
        return {a: x for a, x in total.items() if x} == want
    return check


def is_combination(coeffs: dict[str, str], band_key: str = "bands"):
    """The payload is exactly the given positive trail combination."""
    def check(payload) -> bool:
        got = {i["trail"]: i["coeff"] for i in payload["routes"] + payload[band_key]}
        return got == coeffs
    return check


def single_route(route: str, band_key: str):
    want = {"routes": [{"trail": route, "coeff": "1"}], band_key: []}
    return lambda payload: payload == want


GENTLE_OK = {"kind": "gentle", "violations": []}


def no_violations(payload) -> bool:
    return payload == GENTLE_OK


def paired_and_finite(payload) -> bool:
    return payload["paired"] is True and payload["representation_finite"] is True


# -- flow-decompose -------------------------------------------------------------

def _decompose_all(plan: Plan, quiver: str, flow: dict, checks=None) -> None:
    """decompose, decompose --vortex and blanks of one flow."""
    q, fl = plan.file(quiver, ".qv"), plan.flow_file(flow)
    bundle, vortex, blanks = checks or (reconstructs(flow), reconstructs(flow, "vortex"), None)
    plan.add("decompose", q, "--flow", fl, check=bundle)
    plan.add("decompose", q, "--flow", fl, "--vortex", check=vortex)
    plan.add("blanks", q, "--flow", fl, check=blanks)


def _winding(plan: Plan, k: int) -> None:
    route = gen.winding_route(k)
    # one unit tile per marking of the route: 2k+2 markings on e1, e2, f1, f2
    # leave 2k+6 gaps there, plus one empty gap on each of e3 and f3
    _decompose_all(plan, KRONECKER, gen.winding_flow(k), (
        single_route(route, "bands"), single_route(route, "vortex"),
        lambda payload: payload["count"] == 2 * k + 8))


def winding_slot(base: int) -> Slot:
    return Slot(f"winding-{base}", 1, 8, lambda plan, v: _winding(plan, base + v), heavy=True)


def _rational_anchors(plan: Plan, _v: int) -> None:
    _decompose_all(plan, KRONECKER, gen.rational_winding_flow("1", "1001/7"), (
        single_route(gen.winding_route(143), "bands"),
        single_route(gen.winding_route(143), "vortex"), None))
    _decompose_all(plan, KRONECKER, gen.rational_winding_flow("3/2", "2003/13"))


def _rational_variant(plan: Plan, v: int) -> None:
    _decompose_all(plan, KRONECKER, gen.rational_winding_flow("3/2", f"{1990 + 4 * v}/13"))


def _bundle_variants(reference: dict, tk: bool) -> list[tuple[str, list[str], int]]:
    out = []
    for name, bundles in sorted(reference["bundles"].items()):
        if (name == "triple-kronecker") == tk:
            out += [(name, b, seed) for b in bundles for seed in range(2)]
    return out


def bundle_slot(tk: bool, count: int) -> Slot:
    pool = 2 * BUNDLES_PER_QUIVER if tk else 2 * (len(BUNDLE_QUIVERS) - 1)

    def make(plan: Plan, v: int) -> None:
        name, bundle, seed = _bundle_variants(plan.reference, tk)[v]
        flow, coeffs = gen.bundle_flow(seed, bundle)
        _decompose_all(plan, BUNDLE_QUIVERS[name], flow, (
            is_combination(coeffs), is_combination(coeffs, "vortex"), None))
    return Slot("bundle-tk" if tk else "bundle-random", count, pool, make)


def dag_slot(base: int) -> Slot:
    def make(plan: Plan, v: int) -> None:
        n = base + v
        flow = gen.dag_flow(v, n)
        plan.add("dag-decompose", plan.file(gen.doubled_path_dag(n), ".fg"),
                 "--flow", plan.flow_file(flow), check=reconstructs(flow))
    return Slot(f"dag-{base}", 1, 8, make, heavy=True)


FLOW_DECOMPOSE = [
    winding_slot(100), winding_slot(160), winding_slot(240),
    Slot("rational-anchors", 1, 1, _rational_anchors, heavy=True),
    Slot("rational", 1, 8, _rational_variant, heavy=True),
    bundle_slot(tk=True, count=10),
    bundle_slot(tk=False, count=18),
    # 64-71 vertices put the DAGs above the 1001/7 anchor, so the 90th
    # percentile falls between two of its fixed-input commands.
    dag_slot(64), dag_slot(80),
]


# -- clique-search --------------------------------------------------------------

def _clique_commands(plan: Plan, quiver: str) -> None:
    q = plan.file(quiver, ".qv")
    plan.add("cliques", q)
    plan.add("bundles", q)
    plan.add("band-stable", q)
    plan.add("cells", q, "--kind", "vortex")


CLIQUE_SEARCH = [
    Slot("triple-kronecker", 1, 1, lambda plan, _v: _clique_commands(plan, TRIPLE_KRONECKER),
         heavy=True),
    # Five of six, so the random quivers take about as long as triple-kronecker,
    # and the 90th percentile falls in the middle of their band-stable and cells.
    Slot("mid-random", 5, len(MID_CLIQUE_POOL),
         lambda plan, v: _clique_commands(plan, random_quiver(MID_CLIQUE_POOL[v])), heavy=True),
    Slot("doubled-paths", 1, 1, lambda plan, _v: [
        _clique_commands(plan, q) for q in (KRONECKER, DOUBLE_KRONECKER)]),
    Slot("small-random", 17, len(SMALL_POOL),
         lambda plan, v: _clique_commands(plan, random_quiver(SMALL_POOL[v]))),
]


# -- structure-reports ----------------------------------------------------------

def _structure(plan: Plan, quiver: str, checks=(no_violations, None, None)) -> None:
    q = plan.file(quiver, ".qv")
    for cmd, check in zip(("validate", "fringe", "pairing"), checks):
        plan.add(cmd, q, check=check)


def _long_path(plan: Plan, v: int) -> None:
    _structure(plan, gen.path_quiver(596 + v), (no_violations, None, paired_and_finite))


def _deep_path(plan: Plan, v: int) -> None:
    # the recursive DFS in validate_gentle exceeds the recursion limit
    plan.add("validate", plan.file(gen.path_quiver(1096 + v), ".qv"), check=no_violations,
             known_defect="RecursionError")


def _polyhedra(plan: Plan, quiver: str, facets: bool = True) -> None:
    q = plan.file(quiver, ".qv")
    plan.add("vertices", q)
    plan.add("rays", q)
    if facets:
        plan.add("facets", q)


def _routes_bands(plan: Plan, _v: int) -> None:
    q = plan.file(TRIPLE_KRONECKER, ".qv")
    plan.add("routes", q)
    plan.add("bands", q)


def _convert(plan: Plan, v: int) -> None:
    plan.add("convert-dag", plan.file(gen.doubled_path_dag(30 + v), ".fg"))


STRUCTURE_REPORTS = [
    Slot("path-600", 1, 8, _long_path, heavy=True),
    Slot("path-1100", 1, 8, _deep_path),
    Slot("random-300", 1, len(SEEDS_300), lambda plan, v: _structure(
        plan, gen.random_gentle_quiver(SEEDS_300[v], 300, acyclic=True)), heavy=True),
    Slot("random-48", 10, len(SEEDS_48), lambda plan, v: _structure(
        plan, gen.random_gentle_quiver(SEEDS_48[v], 48))),
    Slot("routes-bands", 1, 1, _routes_bands, heavy=True),
    Slot("doubled-paths", 1, 1, lambda plan, _v: [
        _polyhedra(plan, q) for q in (KRONECKER, DOUBLE_KRONECKER, TRIPLE_KRONECKER)]),
    Slot("poly-random", 21, len(POLY_POOL),
         lambda plan, v: _polyhedra(plan, random_quiver(POLY_POOL[v]), facets=False)),
    Slot("facet-random", 2, len(FACET_POOL),
         lambda plan, v: plan.add("facets", plan.file(random_quiver(FACET_POOL[v]), ".qv")),
         heavy=True),
    Slot("convert-dag", 10, 12, _convert),
]

WORKLOADS = {
    "flow-decompose": FLOW_DECOMPOSE,
    "clique-search": CLIQUE_SEARCH,
    "structure-reports": STRUCTURE_REPORTS,
}


def build(workload: str, seed: int, reference: dict, tiny: bool = False) -> Plan:
    """The inputs and command list of one run; the same seed gives the same plan."""
    rng = random.Random(f"{workload}:{seed}")
    plan = Plan(reference)
    for slot in WORKLOADS[workload]:
        picks = sorted(rng.sample(range(slot.pool), slot.count))
        if tiny:
            if slot.heavy:
                continue
            picks = picks[:1]
        for v in picks:
            slot.make(plan, v)
    return plan


def build_all(workload: str, reference: dict) -> Plan:
    """Every variant of every slot: the commands any seed can produce."""
    plan = Plan(reference)
    for slot in WORKLOADS[workload]:
        for v in range(slot.pool):
            slot.make(plan, v)
    return plan

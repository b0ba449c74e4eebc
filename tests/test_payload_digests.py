"""Byte-identical reports.  `cli.main` runs in-process on a fixed set of
command lines, and the sha256 of each line's stdout, stderr and exit code
must equal the digests in payload_digests.json.

A change that alters a report on purpose re-records the file and names each
changed digest in CHANGES.md.  To record, from the repository root:

    PYTHONPATH=src python tests/test_payload_digests.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from gentleflow import cli, complexes, trails
from gentleflow.fixtures import DAG_FIXTURES, FIXTURES, QUIVER_FIXTURES
from gentleflow.quiver import fringe, parse_quiver_file

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "payload_digests.json"


def _gen():
    """perfbench/gen.py, the benchmark's input generator."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", HERE.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _plain_text(q) -> str:
    lines = [f"vertex {v}" for v in q.vertices]
    lines += [f"arrow {a}: {t} -> {h}" for a, (t, h) in sorted(q.arrows.items())]
    lines += [f"relation {a} {b}" for a, b in sorted(q.relations)]
    return "\n".join(lines) + "\n"


def pool_texts() -> dict[str, str]:
    """The 40-quiver pool of conftest.quiver_pool, as quiver files: the five
    quiver fixtures, then the 35 random quivers of its seed, unfringed."""
    from conftest import random_gentle_quiver

    out = dict(QUIVER_FIXTURES)
    rng = random.Random(20240917)
    for i in range(40 - len(out)):
        out[f"pool-{i:02d}"] = _plain_text(random_gentle_quiver(rng))
    return out


def pool_bounds(f) -> tuple[int, int]:
    """The route and band bounds conftest.TrailPool gives f."""
    return max(min(len(f.arrows), 10), 1), max(min(2 * len(f.internal_vertices) + 2, 8), 2)


CLIQUE_COMMANDS = [["cliques"], ["cliques", "--reduced"], ["bundles"], ["band-stable"],
                   ["cells", "--kind", "clique"], ["cells", "--kind", "bundle"],
                   ["cells", "--kind", "vortex"]]
QUIVER_COMMANDS = [["validate"], ["pairing"], ["vertices"], ["rays"], ["facets"], ["fringe"],
                   ["routes"], ["bands"]] + CLIQUE_COMMANDS
# the six 6-vertex quivers of the benchmark's MID_CLIQUE_POOL, as (vertices, seed)
MID_CLIQUE_POOL = [(6, 8), (6, 17), (6, 24), (6, 36), (6, 38), (6, 41)]
FLOW_COMMANDS = (["decompose"], ["decompose", "--vortex"], ["blanks"])
# bundle flows whose expected coefficients include a band, as (quiver, index
# of the bundle among its maximal bundles at bounds 8/8, gen.bundle_flow seed)
BAND_BUNDLE_FLOWS = [("double-kronecker", 1, 0), ("double-kronecker", 12, 3),
                     ("triple-kronecker", 7, 0), ("triple-kronecker", 9, 3)]


class Cases:
    """Command lines by group, with their input files in one directory."""

    def __init__(self, root: Path):
        self.root, self.groups, self.labels = root, {}, {}

    def file(self, text: str, label: str) -> str:
        """A new input file holding text; command lines name it by label."""
        path = str(self.root / f"{len(self.labels)}.txt")
        Path(path).write_text(text)
        self.labels[path] = label
        return path

    def add(self, group: str, *argv: str) -> None:
        key = " ".join(self.labels.get(token, token) for token in argv)
        assert key not in self.groups.setdefault(group, {}), key
        self.groups[group][key] = list(argv)

    def quiver_commands(self, group, name, text, commands, bounds=None):
        """commands on a new quiver file, at the bounds (rb, bb) if given."""
        path = self.file(text, name)
        for cmd, *options in commands:
            self.add(group, cmd, path, *options, *(_bounds(cmd, *bounds) if bounds else ()))
        return path


def _bounds(cmd: str, rb: int, bb: int) -> list[str]:
    """The options that give cmd the route bound rb and the band bound bb."""
    if cmd in ("routes", "cliques"):
        return ["--max-arrows", str(rb)]
    if cmd == "bands":
        return ["--max-arrows", str(bb)]
    return ["--max-arrows", str(rb), "--band-bound", str(bb)]


def _file(spec: str) -> str:
    """An input file from its lines, separated by ';'."""
    return "".join(line.strip() + "\n" for line in spec.split(";"))


# a fringed quiver with one internal vertex v, for the fringed-file errors
ONE_VERTEX = ("fringed; vertex v; fringe-vertex pa; fringe-vertex pb; fringe-vertex qa; fringe-vertex qb;"
              " arrow a: pa -> v; arrow b: pb -> v; arrow ap: v -> qa; arrow bp: v -> qb")
# one line per message of the quiver and framed-graph checks, each read by
# `validate` or `convert-dag`
QUIVER_ERRORS = {
    "two-free-continuations": "vertex 1; vertex 2; vertex 3; vertex 4;"
                              " arrow a: 1 -> 2; arrow b: 2 -> 3; arrow c: 2 -> 4",
    "two-relation-continuations": "vertex 1; vertex 2; vertex 3; vertex 4;"
                                  " arrow a: 1 -> 2; arrow b: 2 -> 3; arrow c: 2 -> 4; relation a b; relation a c",
    "two-free-predecessors": "vertex 1; vertex 2; vertex 3; vertex 4;"
                             " arrow a: 1 -> 3; arrow b: 2 -> 3; arrow c: 3 -> 4",
    "two-relation-predecessors": "vertex 1; vertex 2; vertex 3; vertex 4;"
                                 " arrow a: 1 -> 3; arrow b: 2 -> 3; arrow c: 3 -> 4; relation a c; relation b c",
    "duplicate-vertex": "vertex 1; vertex 1",
    "relation-on-unknown-arrow": "vertex 1; relation a b",
    "no-arrow-sign": "vertex 1; vertex 2; arrow a: 1 => 2",
    "internal-and-fringe": ONE_VERTEX + "; fringe-vertex v; relation a bp; relation b ap",
    "dangling-endpoint": ONE_VERTEX.replace(" fringe-vertex qb;", "") + "; relation a bp; relation b ap",
    "fringe-degree": ONE_VERTEX.replace(" fringe-vertex pb;", "").replace("b: pb", "b: pa")
                     + "; relation a bp; relation b ap",
    "unmatched-relation-pairs": ONE_VERTEX + "; relation a ap; relation a bp",
    "unlocated-relation": ONE_VERTEX + "; relation a bp; relation b ap; relation zz yy",
}
GRAPH_ERRORS = {
    "label-not-a-number": "vertex s source; vertex t sink; edge e: s -> t label x",
    "label-3": "vertex s source; vertex t sink; edge e: s -> t label 3",
    "unknown-kind": "vertex s middle",
    "no-edge-sign": "vertex s source; vertex t sink; edge e: s => t label 1",
}
# a valid quiver file with mid-line comments and '#' inside ids
COMMENTED = """\
# one internal vertex; a '#' inside an id opens no comment
fringed
vertex v  # the internal vertex
fringe-vertex p#a
fringe-vertex p#b\t# a tab before the comment
fringe-vertex q#a
fringe-vertex q#b
arrow a#1: p#a -> v    # in
arrow a#2: v -> q#a
arrow b#1: p#b -> v
arrow b#2: v -> q#b
relation a#1 b#2
relation b#1 a#2
"""


def build_cases(root: Path) -> dict[str, dict[str, list[str]]]:
    gen = _gen()
    cases = Cases(root)
    for name, text in pool_texts().items():
        group = "fixtures" if name in QUIVER_FIXTURES else "pool"
        path = cases.quiver_commands(group, name, text, QUIVER_COMMANDS)
        f = parse_quiver_file(text)
        f = f if name in QUIVER_FIXTURES else fringe(f)
        rb, bb = pool_bounds(f)
        for cmd, *options in [["routes"], ["bands"]] + CLIQUE_COMMANDS:
            cases.add(group, cmd, path, *options, *_bounds(cmd, rb, bb))
        routes = sorted(trails.enumerate_routes(f, rb), key=trails.trail_key)
        for t in routes[:1] + routes[-1:] + complexes.band_universe(f, bb)[:1]:
            cases.add(group, "gvector", path, "--trail", str(t))
        # decompose, decompose --vortex and blanks on two bundle flows
        bundles = complexes.maximal_bundles(f, rb, bb)
        for seed, bundle in enumerate(bundles[:1] + bundles[len(bundles) // 2:][:1]):
            flow, _coeffs = gen.bundle_flow(seed, bundle.as_json())
            flow_path = cases.file(json.dumps(flow, sort_keys=True), f"{name}#{seed}.json")
            for cmd, *options in FLOW_COMMANDS:
                cases.add("flows", cmd, path, "--flow", flow_path, *options)
    for name in FIXTURES:
        cases.add("fixtures", "examples", name)
    cases.quiver_commands("fixtures", "commented", COMMENTED, [["validate"], ["routes"]])

    kron = cases.file(QUIVER_FIXTURES["kronecker"], "kronecker")
    for label, flow in [("winding-1", gen.winding_flow(1)), ("winding-40", gen.winding_flow(40)),
                        ("rational", gen.rational_winding_flow("1001/7", "3/2")),
                        ("band", {"e2": "1", "f2": "1"})]:
        flow_path = cases.file(json.dumps(flow), f"{label}.json")
        for cmd, *options in FLOW_COMMANDS:
            cases.add("flows", cmd, kron, "--flow", flow_path, *options)
    # bundle flows with a band term, so that the tracer meets bands
    for name, i, seed in BAND_BUNDLE_FLOWS:
        bundle = complexes.maximal_bundles(parse_quiver_file(QUIVER_FIXTURES[name]), 8, 8)[i]
        flow, coeffs = gen.bundle_flow(seed, bundle.as_json())
        assert any(t.startswith("band:") for t in coeffs), (name, i, seed)
        path = cases.file(QUIVER_FIXTURES[name], name)
        flow_path = cases.file(json.dumps(flow, sort_keys=True), f"{name}-bundle-{i}#{seed}.json")
        for cmd, *options in FLOW_COMMANDS:
            cases.add("flows", cmd, path, "--flow", flow_path, *options)

    # clique search where it is heavy: doubled A5 at the default bounds,
    # triple-kronecker at 8/8, the benchmark's 6-vertex quivers, and a
    # 7-vertex quiver whose band-stable search hands off below the root
    cases.quiver_commands("clique-search", "doubled-A5", gen.doubled_path(5), CLIQUE_COMMANDS)
    cases.quiver_commands("clique-search", "triple-kronecker", QUIVER_FIXTURES["triple-kronecker"],
                          CLIQUE_COMMANDS, bounds=(8, 8))
    for n, seed in MID_CLIQUE_POOL + [(7, 1)]:
        cases.quiver_commands("clique-search", f"random-{n}-{seed}", gen.random_gentle_quiver(seed, n),
                              [["band-stable"], ["cells", "--kind", "vortex"]])
    # the route listing where it is long: doubled A6 at bound 20, 19416 routes
    cases.quiver_commands("clique-search", "doubled-A6", gen.doubled_path(6), [["routes"]], bounds=(20, 0))

    dags = {**DAG_FIXTURES, **{f"doubled-path-dag-{n}": gen.doubled_path_dag(n) for n in (2, 3, 4, 5)}}
    dag_flows = {"cube-dag": [{"e1": 1, "e2": 3, "f1": 3, "f2": 1}],
                 "difdagc-dag": [{"p1": 1, "m1": 1, "r1": 1}],
                 **{f"doubled-path-dag-{n}": [gen.dag_flow(seed, n) for seed in (0, 1)]
                    for n in (2, 3, 4, 5)}}
    for name, text in dags.items():
        path = cases.file(text, name)
        cases.add("dags", "convert-dag", path)
        for i, flow in enumerate(dag_flows[name]):
            cases.add("dags", "dag-decompose", path, "--flow", cases.file(json.dumps(flow), f"{name}#{i}.json"))
    # an amply framed graph with a source-to-sink edge has flows, but no gentle fringed quiver
    source_to_sink = cases.file(_file("vertex s source; vertex t sink; edge e: s -> t label 1"), "source-to-sink")
    cases.add("dags", "dag-decompose", source_to_sink, "--flow", cases.file('{"e": "1"}', "source-to-sink.json"))

    # exit 1: a report and an error, or an error alone
    loop = cases.file("vertex v\narrow a: v -> v\n", "loop")
    cases.add("errors", "validate", loop)
    cases.add("errors", "cliques", loop)
    cases.add("errors", "vertices", cases.file("fringed\nvertex 1\nvertex 1\n", "repeated-vertex"))
    cases.add("errors", "fringe", kron)
    cases.add("errors", "cliques", kron, "--max-arrows", "0")
    cases.add("errors", "band-stable", kron, "--band-bound", "0")
    cases.add("errors", "cells", kron, "--kind", "clique", "--band-bound", "0")
    cases.add("errors", "gvector", kron, "--trail", "e1 e2")
    cases.add("errors", "gvector", kron, "--trail", "zz")
    cases.add("errors", "gvector", kron, "--trail", "band: e1")
    # the empty route and band, a band walked twice, a backtrack, a band walk given as a route
    for text in ("", "band:", "band: e2 f2^-1 e2 f2^-1", "e1 e1^-1", "e2 f2^-1"):
        cases.add("errors", "gvector", kron, "--trail", text)
    for label, text in [("unbalanced", '{"e1": "1"}'), ("unknown-arrow", '{"zz": "1"}'),
                        ("negative", '{"e1": "-1", "f1": "-1"}'), ("not-json", "{"),
                        ("nested", "[" * 100000), ("long-int", '{"e1": %s}' % ("7" * 5000))]:
        flow_path = cases.file(text, f"{label}.json")
        for cmd in ("decompose", "blanks"):
            cases.add("errors", cmd, kron, "--flow", flow_path)
    cases.add("errors", "dag-decompose", cases.file(DAG_FIXTURES["cube-dag"], "cube-dag"),
              "--flow", cases.file('{"e1": "1"}', "unbalanced.json"))
    for label, spec in QUIVER_ERRORS.items():
        cases.add("errors", "validate", cases.file(_file(spec), label))
    for label, spec in GRAPH_ERRORS.items():
        cases.add("errors", "convert-dag", cases.file(_file(spec), label))
    not_ample = cases.file(_file("vertex s source; vertex m; vertex t sink;"
                                 " edge a: s -> m label 1; edge b: m -> t label 1"), "not-amply-framed")
    cases.add("errors", "convert-dag", not_ample)
    cases.add("errors", "dag-decompose", not_ample, "--flow", cases.file('{"a": "1", "b": "1"}', "a-b.json"))
    cases.add("errors", "convert-dag", source_to_sink)
    # ids that trail text would misread
    cases.add("errors", "routes", cases.file(_file("vertex 1; vertex 2; arrow a: 1 -> 2; arrow a^-1: 1 -> 2"),
                                             "inverse-arrow-id"))
    cases.add("errors", "bundles", cases.file(_file("vertex band:1; vertex 2; arrow a: band:1 -> 2"), "band-vertex-id"))
    for edge in ("e^-1", "band:e"):
        text = _file(f"vertex s source; vertex t sink; edge {edge}: s -> t label 1")
        cases.add("errors", "convert-dag", cases.file(text, f"edge-id-{edge}"))
    cases.add("errors", "examples", "no-such-example")
    cases.add("errors", "vertices", "/no/such/file.qv")

    # indented reports
    winding = cases.file(json.dumps(gen.winding_flow(50)), "winding-50.json")
    cases.add("pretty", "--pretty", "blanks", kron, "--flow", winding)
    cases.add("pretty", "--pretty", "cliques", kron)
    cases.add("pretty", "--pretty", "band-stable", kron)
    name, i, seed = BAND_BUNDLE_FLOWS[0]
    bundle = complexes.maximal_bundles(parse_quiver_file(QUIVER_FIXTURES[name]), 8, 8)[i]
    flow_path = cases.file(json.dumps(gen.bundle_flow(seed, bundle.as_json())[0], sort_keys=True),
                           f"{name}-bundle-{i}#{seed}.json")
    cases.add("pretty", "--pretty", "decompose", cases.file(QUIVER_FIXTURES[name], name), "--flow", flow_path)
    cases.add("pretty", "--pretty", "vertices", cases.file(QUIVER_FIXTURES["shard"], "shard"))
    cases.add("pretty", "--pretty", "examples", "kronecker")
    cases.add("pretty", "--pretty", "validate", loop)
    return cases.groups


def run(argv: list[str]) -> list[str]:
    """The sha256 of the stdout, the stderr and the exit code of argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [hashlib.sha256(s.encode()).hexdigest() for s in (out.getvalue(), err.getvalue(), str(code))]


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    return build_cases(tmp_path_factory.mktemp("payloads"))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


GROUPS = ["fixtures", "pool", "clique-search", "flows", "dags", "errors", "pretty"]


@pytest.mark.parametrize("group", GROUPS)
def test_reports_match_the_recorded_digests(cases, recorded, group):
    assert set(cases[group]) == set(recorded[group])  # the same command lines
    changed = [key for key, argv in cases[group].items() if run(argv) != recorded[group][key]]
    assert not changed, f"{len(changed)} of {len(cases[group])} reports changed: {changed[:10]}"


def test_the_command_lines_cover_every_command(cases, recorded):
    commands = {argv[argv[0] == "--pretty"] for group in cases.values() for argv in group.values()}
    assert commands == set(cli.COMMANDS)
    exit_codes = {hashlib.sha256(str(code).encode()).hexdigest(): code for code in (0, 1)}
    assert {exit_codes[digest] for _out, _err, digest in recorded["errors"].values()} == {1}


def record() -> None:
    with tempfile.TemporaryDirectory() as root:
        groups = build_cases(Path(root))
        digests = {group: {key: run(argv) for key, argv in sorted(groups[group].items())}
                   for group in GROUPS}
    # one command line a line, so a diff of the file names the changed reports
    DIGESTS.write_text("{\n%s\n}\n" % ",\n".join(
        "%s: {\n%s\n}" % (json.dumps(group), ",\n".join(
            "%s: %s" % (json.dumps(key), json.dumps(value)) for key, value in lines.items()))
        for group, lines in digests.items()))
    print(f"wrote {sum(map(len, digests.values()))} digests to {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()

import json
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gentleflow import cli
from gentleflow.cli import main
from gentleflow.fixtures import DOUBLE_KRONECKER, KRONECKER, SHARD


@pytest.fixture
def kron_file(tmp_path):
    p = tmp_path / "kron.qv"
    p.write_text(KRONECKER)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(kron_file, capsys):
    code, out, _ = run_cli(capsys, "validate", kron_file)
    assert code == 0
    assert json.loads(out)["payload"]["violations"] == []


def test_validate_bad(tmp_path, capsys):
    p = tmp_path / "bad.qv"
    p.write_text("vertex v\narrow a: v -> v\n")
    code, out, _ = run_cli(capsys, "validate", str(p))
    assert code == 1
    assert json.loads(out)["payload"]["violations"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_domain_error_exit_code(kron_file, capsys, tmp_path):
    flow = tmp_path / "bad.json"
    flow.write_text('{"e1": "1"}')  # conservation fails
    code, _out, err = run_cli(capsys, "decompose", kron_file, "--flow", str(flow))
    assert code == 1
    assert json.loads(err)["error"] == "DomainError"


def test_missing_file_is_domain_error(capsys):
    code, _out, err = run_cli(capsys, "vertices", "/no/such/file.qv")
    assert code == 1
    assert "message" in json.loads(err)


def test_vertices_kronecker(kron_file, capsys):
    code, out, _ = run_cli(capsys, "vertices", kron_file)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert len(payload["vertices"]) == 4
    assert len(payload["rays"]) == 1
    assert payload["dimension"] == 3


def test_polyhedra_search_once_and_build_no_flow(kron_file, capsys, monkeypatch):
    # rays searched the elementary trails twice, and both commands validated
    # a Flow per trail only to read its arrow counts; the search is the
    # repeat-free mode of route_words, which TrailCalculus.elementary runs
    from gentleflow import flows, trails
    searches, built = [], []
    real_search, real_init = trails.route_words, flows.Flow.__init__

    def counting_search(*args):
        if args[2] == "free":
            searches.append(args)
        return real_search(*args)

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(trails, "route_words", counting_search)
    monkeypatch.setattr(flows.Flow, "__init__", counting_init)
    for command in ("vertices", "rays"):
        searches.clear()
        code, _out, err = run_cli(capsys, command, kron_file)
        assert code == 0, err
        assert len(searches) == 1, command
    assert built == []


def test_routes_interns_no_trail(tmp_path, capsys, monkeypatch):
    # triple-kronecker has 3194 routes at its default bound 18, 90 of them
    # self-compatible: each row, elementarity too, is read off the code word
    from gentleflow import trails
    from gentleflow.fixtures import QUIVER_FIXTURES
    built = []
    init = trails.Trail.__init__
    monkeypatch.setattr(trails.Trail, "__init__", lambda self, *args: built.append(self) or init(self, *args))
    p = tmp_path / "tk.qv"
    p.write_text(QUIVER_FIXTURES["triple-kronecker"])
    code, out, _ = run_cli(capsys, "routes", str(p))
    report = json.loads(out)
    assert code == 0 and report["meta"]["bounds"] == {"max_arrows": 18}
    assert len(report["payload"]) == 3194
    assert sum(row["self_compatible"] for row in report["payload"]) == 90
    assert built == []


def test_decompose_ex52(kron_file, capsys, tmp_path):
    flow = tmp_path / "ex52.json"
    flow.write_text('{"e1": "1", "f1": "1", "e2": "5/2", "f2": "5/2"}')
    code, out, _ = run_cli(capsys, "decompose", kron_file, "--flow", str(flow))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["routes"] == [
        {"trail": "e1 e2 f2^-1 e2 f2^-1 e2 f2^-1 f1^-1", "coeff": "1/2"},
        {"trail": "e1 e2 f2^-1 e2 f2^-1 f1^-1", "coeff": "1/2"},
    ]
    assert payload["bands"] == []


def test_byte_identical_reruns(kron_file, capsys):
    _code, out1, _ = run_cli(capsys, "cliques", kron_file, "--max-arrows", "6")
    _code, out2, _ = run_cli(capsys, "cliques", kron_file, "--max-arrows", "6")
    assert out1 == out2


def test_fringe_command(tmp_path, capsys):
    src = tmp_path / "base.qv"
    src.write_text("vertex 1\nvertex 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n")
    out_path = tmp_path / "out.qv"
    code, out, _ = run_cli(capsys, "fringe", str(src), "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("fringed")
    code2, out2, _ = run_cli(capsys, "validate", str(out_path))
    assert code2 == 0


def test_pairing_command(tmp_path, capsys):
    p = tmp_path / "shard.qv"
    p.write_text(SHARD)
    code, out, _ = run_cli(capsys, "pairing", str(p))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["paired"] is False
    assert payload["representation_finite"] is True


def test_examples_command(capsys):
    code, out, _ = run_cli(capsys, "examples", "kronecker")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["file"] == KRONECKER
    assert len(payload["reports"]["vertices"]["vertices"]) == 4
    code, _out, err = run_cli(capsys, "examples", "nope")
    assert code == 1


def test_bands_command(tmp_path, capsys):
    p = tmp_path / "dk.qv"
    p.write_text(DOUBLE_KRONECKER)
    code, out, _ = run_cli(capsys, "bands", str(p), "--max-arrows", "4")
    payload = json.loads(out)["payload"]
    names = {b["trail"] for b in payload if b["self_compatible"]}
    assert names == {"band: e2 f2^-1", "band: e3 f3^-1", "band: e2 e3 f3^-1 f2^-1"}


def test_gvector_command(kron_file, capsys):
    code, out, _ = run_cli(capsys, "gvector", kron_file, "--trail", "e1 f1^-1")
    assert json.loads(out)["payload"] == {"v1": -1, "v2": 0}
    code, _out, err = run_cli(capsys, "gvector", kron_file, "--trail", "e1 f2")
    assert code == 1


def test_facets_command(tmp_path, capsys):
    p = tmp_path / "shard.qv"
    p.write_text(SHARD)
    code, out, _ = run_cli(capsys, "facets", str(p))
    payload = json.loads(out)["payload"]
    assert {"avoided": ["e1", "f2"],
            "halfspace": {"coeffs": {"v1": "0", "v2": "1"},
                          "relation": "<=", "rhs": "1", "form": "T"}} in payload


def test_cells_vortex(kron_file, capsys):
    code, out, _ = run_cli(capsys, "cells", kron_file, "--kind", "vortex",
                           "--max-arrows", "6", "--band-bound", "4")
    payload = json.loads(out)["payload"]
    walls = [c for c in payload if c["clique"] == ["e1 e2 e3", "f1 f2 f3"]]
    assert walls and walls[0]["band_generators"] == ["band: e2 f2^-1"]


def test_convert_and_dag_decompose(tmp_path, capsys):
    from gentleflow.fixtures import CUBE_DAG
    p = tmp_path / "cube.fg"
    p.write_text(CUBE_DAG)
    code, out, _ = run_cli(capsys, "convert-dag", str(p))
    assert code == 0
    assert json.loads(out)["payload"]["acyclic"] is True
    flow = tmp_path / "flow.json"
    flow.write_text('{"e1": 1, "e2": 3, "f1": 3, "f2": 1}')
    code, out, _ = run_cli(capsys, "dag-decompose", str(p), "--flow", str(flow))
    payload = json.loads(out)["payload"]
    assert payload["routes"] == [{"trail": "e1 f1", "coeff": "1"},
                                 {"trail": "e2 f1", "coeff": "2"},
                                 {"trail": "e2 f2", "coeff": "1"}]


def test_convert_dag_errors_validate_once(tmp_path, capsys, monkeypatch):
    # convert-dag validates its input graph, not again its convenient copy
    from gentleflow import dag
    from gentleflow.fixtures import CUBE_DAG
    checked = []
    real = dag.validate_framed

    def counting(g):
        checked.append(g)
        return real(g)

    monkeypatch.setattr(dag, "validate_framed", counting)
    cases = [
        ("vertex s sink\nvertex t source\nedge a: s -> t label 1\n",
         "vertex s declared sink but is source; vertex t declared source but is sink"),
        # s keeps its edges into m after make_convenient splits it
        (CUBE_DAG + "edge g: s -> t label 1\n",
         "graph is not gently framed (source-to-sink edge)"),
        (CUBE_DAG, None),
    ]
    for text, message in cases:
        p = tmp_path / "g.fg"
        p.write_text(text)
        checked.clear()
        code, out, err = run_cli(capsys, "convert-dag", str(p))
        assert len(checked) == 1
        if message is None:
            assert code == 0 and err == ""
            assert json.loads(out)["payload"]["pairing"] == {"e1": 1, "e2": 2, "f1": 1, "f2": 2}
        else:
            assert code == 1 and out == ""
            assert json.loads(err) == {"error": "DomainError", "message": message}


def test_decompose_vortex_flag(kron_file, capsys, tmp_path):
    flow = tmp_path / "composite.json"
    flow.write_text('{"e1": 1, "e2": "6", "e3": 1, "f2": 5}')
    code, out, _ = run_cli(capsys, "decompose", kron_file, "--flow", str(flow), "--vortex")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["routes"] == [{"trail": "e1 e2 e3", "coeff": "1"}]
    assert payload["vortex"] == [{"trail": "band: e2 f2^-1", "coeff": "5"}]


def test_blanks_command(kron_file, capsys, tmp_path):
    flow = tmp_path / "composite.json"
    flow.write_text('{"e1": 1, "e2": "6", "e3": 1, "f2": 5}')
    code, out, _ = run_cli(capsys, "blanks", kron_file, "--flow", str(flow))
    payload = json.loads(out)["payload"]
    assert payload["count"] == 9
    proper = [b for b in payload["blank_spaces"] if b["proper"]]
    assert {b["arrow"] for b in proper} == {"e2", "f2"}


def test_blanks_builds_no_fraction_per_blank_space(kron_file, capsys, tmp_path, monkeypatch,
                                                   perfbench_gen):
    # the rows are formatted from the integer gaps: the winding flows of 50
    # and 100 turns (108 and 208 blank spaces) build the same Fractions
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: built.append(cls) or new(cls, *args, **kw))
    counts = []
    for k, spaces in ((50, 108), (100, 208)):
        flow = tmp_path / f"winding{k}.json"
        flow.write_text(json.dumps(perfbench_gen.winding_flow(k)))
        built.clear()
        code, out, _ = run_cli(capsys, "blanks", kron_file, "--flow", str(flow))
        assert code == 0 and json.loads(out)["payload"]["count"] == spaces
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_blanks_escapes_each_string_once(kron_file, capsys, tmp_path, monkeypatch, perfbench_gen):
    # every row names both of its bounding routes, yet each distinct string of
    # a report is escaped once: the winding flows of 50 and 100 turns (108 and
    # 208 blank spaces) escape less than a tenth of the report's characters
    escaped = Counter()
    escape = json.encoder.encode_basestring_ascii
    monkeypatch.setattr(json.encoder, "encode_basestring_ascii",
                        lambda s: escaped.update([s]) or escape(s))
    for k, spaces in ((50, 108), (100, 208)):
        flow = tmp_path / f"winding{k}.json"
        flow.write_text(json.dumps(perfbench_gen.winding_flow(k)))
        escaped.clear()
        code, out, _ = run_cli(capsys, "blanks", kron_file, "--flow", str(flow))
        assert code == 0 and json.loads(out)["payload"]["count"] == spaces
        assert escaped and max(escaped.values()) == 1
        assert 10 * sum(map(len, escaped)) < len(out)


# JSON trees as reports hold them, with repeated strings, non-ASCII and control
# characters, lone surrogates and ints past 64 bits
TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()),
               max_size=12) | st.sampled_from(["", "e1 e2^-1", "band: e2 f2^-1", "\u00e9\n\ud800"])
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**4000, 10**4000) | TEXT,
    lambda tree: st.lists(tree, max_size=6) | st.dictionaries(TEXT, tree, max_size=6),
    max_leaves=40)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(JSON_TREES)
def test_compact_report_text_is_json_dumps(doc):
    expected = json.dumps(doc, sort_keys=True)
    assert cli._compact(doc) == expected
    with mock.patch.object(json.encoder, "c_make_encoder", None):
        assert cli._compact(doc) == expected


# each would be a valid flow on both kronecker and cube-dag if its values read as 1
BAD_FLOWS = {
    "zero denominator": '{"e1": "1/0", "f1": "1/0"}',
    "nan": '{"e1": "nan", "f1": "nan"}',
    "not a number": '{"e1": "abc", "f1": "abc"}',
    "json list": '["e1", "f1"]',
    "boolean": '{"e1": true, "f1": true}',
    "too many digits to print": '{"e1": "1e5000", "f1": "1e5000"}',
    "nested too deeply": "[" * 100000,
    "integer too long to read": '{"e1": %s, "f1": 1}' % ("1" * 5000),
}


@pytest.mark.parametrize("text", BAD_FLOWS.values(), ids=BAD_FLOWS.keys())
def test_decompose_bad_flow_json_is_domain_error(kron_file, capsys, tmp_path, text):
    flow = tmp_path / "bad.json"
    flow.write_text(text)
    code, out, err = run_cli(capsys, "decompose", kron_file, "--flow", str(flow))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "DomainError"


@pytest.mark.parametrize("text", BAD_FLOWS.values(), ids=BAD_FLOWS.keys())
def test_blanks_bad_flow_json_is_domain_error(kron_file, capsys, tmp_path, text):
    flow = tmp_path / "bad.json"
    flow.write_text(text)
    code, out, err = run_cli(capsys, "blanks", kron_file, "--flow", str(flow))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "DomainError"


@pytest.mark.parametrize("text", BAD_FLOWS.values(), ids=BAD_FLOWS.keys())
def test_dag_decompose_bad_flow_json_is_domain_error(capsys, tmp_path, text):
    from gentleflow.fixtures import CUBE_DAG
    graph = tmp_path / "cube.fg"
    graph.write_text(CUBE_DAG)
    flow = tmp_path / "bad.json"
    flow.write_text(text)
    code, out, err = run_cli(capsys, "dag-decompose", str(graph), "--flow", str(flow))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_structure_commands_on_a_deep_path(tmp_path, capsys):
    # a linear A_3000 path: every graph search must be iterative
    n = 3000
    lines = [f"vertex u{i}" for i in range(n)]
    lines += [f"arrow a{i}: u{i} -> u{i + 1}" for i in range(n - 1)]
    p = tmp_path / "path.qv"
    p.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "validate", str(p))
    assert code == 0
    assert json.loads(out)["payload"] == {"kind": "gentle", "violations": []}
    code, out, _ = run_cli(capsys, "fringe", str(p))
    assert code == 0
    code, out, _ = run_cli(capsys, "pairing", str(p))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["paired"] and payload["representation_finite"]


ZERO_BOUNDS = [("routes", "--max-arrows", "0"), ("bands", "--max-arrows", "0"),
               ("cliques", "--max-arrows", "0"), ("bundles", "--max-arrows", "0"),
               ("bundles", "--band-bound", "0"), ("band-stable", "--max-arrows", "0"),
               ("band-stable", "--band-bound", "0"),
               ("cells", "--kind", "clique", "--max-arrows", "0"),
               ("cells", "--kind", "clique", "--band-bound", "0"),
               ("cells", "--kind", "clique", "--band-bound", "-1"),
               ("cells", "--kind", "vortex", "--band-bound", "0")]


@pytest.mark.parametrize("argv", ZERO_BOUNDS, ids=[" ".join(a) for a in ZERO_BOUNDS])
def test_zero_bound_is_domain_error(kron_file, capsys, argv):
    # a bound of 0 is given, not missing: no default replaces it
    code, out, err = run_cli(capsys, argv[0], kron_file, *argv[1:])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_band_bound_past_the_recursion_limit(kron_file, capsys):
    code, out, _ = run_cli(capsys, "bands", kron_file, "--max-arrows", "1200")
    assert code == 0
    assert [b["trail"] for b in json.loads(out)["payload"]] == ["band: e2 f2^-1"]
    for cmd in ("bundles", "band-stable"):
        code, _out, _err = run_cli(capsys, cmd, kron_file, "--max-arrows", "8",
                                   "--band-bound", "1200")
        assert code == 0


def test_route_searches_keep_a_flat_stack(kron_file, capsys):
    # Kissing is cubic in the route length, so route bounds past the
    # recursion limit take minutes on kronecker.  Instead the limit is put a
    # few dozen frames above this test: a depth-first search with one frame
    # per arrow would exceed it at a bound of 60.
    import inspect
    import sys
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        codes = [run_cli(capsys, *argv)[0] for argv in (
            ("routes", kron_file, "--max-arrows", "60"),
            ("bands", kron_file, "--max-arrows", "60"),
            ("cliques", kron_file, "--max-arrows", "60"),
            ("band-stable", kron_file, "--max-arrows", "60", "--band-bound", "60"))]
    finally:
        sys.setrecursionlimit(limit)
    assert codes == [0, 0, 0, 0]


UNREADABLE = ["directory as quiver", "directory as flow", "quiver not UTF-8",
              "fringe output is a directory"]


def _unreadable_path(case, tmp_path, kron_file):
    """(argv, error type) of a command whose input or output path cannot be
    used."""
    folder = tmp_path / "folder"
    folder.mkdir()
    latin = tmp_path / "latin.qv"
    latin.write_bytes("vertex v\xe9\n".encode("latin-1"))
    base = tmp_path / "base.qv"
    base.write_text("vertex 1\nvertex 2\narrow a: 1 -> 2\n")
    return {
        "directory as quiver": (("validate", str(folder)), "IsADirectoryError"),
        "directory as flow": (("decompose", kron_file, "--flow", str(folder)),
                              "IsADirectoryError"),
        "quiver not UTF-8": (("validate", str(latin)), "UnicodeDecodeError"),
        "fringe output is a directory": (("fringe", str(base), "-o", str(folder)),
                                         "IsADirectoryError"),
    }[case]


@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_path_is_json_error(tmp_path, kron_file, capsys, case):
    # PermissionError takes the same OSError path, but root cannot provoke it
    argv, error = _unreadable_path(case, tmp_path, kron_file)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == error and set(doc) == {"error", "message"}


# a generated fringe id that the input already uses
FRINGE_CLASHES = {
    "vertex u!in1": ("vertex u\nvertex u!in1\n",
                     "fringe vertex u!in1 clashes with a vertex of the quiver"),
    "arrow u#i1": ("vertex u\nvertex w\narrow u#i1: w -> u\n",
                   "fringe arrow u#i1 clashes with an arrow of the quiver"),
    "arrow u#o1": ("vertex u\nvertex w\narrow u#o1: w -> u\n",
                   "fringe arrow u#o1 clashes with an arrow of the quiver"),
}


@pytest.mark.parametrize("command", ["fringe", "pairing", "vertices"])
@pytest.mark.parametrize("clash", sorted(FRINGE_CLASHES))
def test_fringe_id_clash_is_domain_error(tmp_path, capsys, clash, command):
    text, message = FRINGE_CLASHES[clash]
    p = tmp_path / "clash.qv"
    p.write_text(text)
    code, out, err = run_cli(capsys, command, str(p))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "DomainError", "message": message}


def test_every_route_listed_reads_back_or_the_file_is_rejected(tmp_path, capsys):
    # an arrow named a^-1 made `routes` print "1#i1 a^-1 2#o1", which
    # `gvector --trail` then read as the inverse of a
    p = tmp_path / "inverse-id.qv"
    p.write_text("vertex 1\nvertex 2\narrow a: 1 -> 2\narrow a^-1: 1 -> 2\n")
    code, out, err = run_cli(capsys, "routes", str(p))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "StructuralError", "message": (
        "line 4: id 'a^-1' ends in '^-1' or starts with 'band:', which trail text reserves")}
    # the fringed Kronecker quiver under other names: every listed route reads back
    p.write_text("vertex 1\nvertex 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n")
    code, out, _ = run_cli(capsys, "routes", str(p))
    assert code == 0
    for item in json.loads(out)["payload"]:
        assert run_cli(capsys, "gvector", str(p), "--trail", item["trail"])[0] == 0


def test_a_band_free_quiver_lists_no_bundle_with_bands(tmp_path, capsys):
    # a vertex named band:1 gave fringe arrows band:1#i1, ..., and `bundles`
    # listed every bundle of this band-free path under with_bands
    p = tmp_path / "band-id.qv"
    p.write_text("vertex band:1\nvertex 2\narrow a: band:1 -> 2\n")
    code, out, err = run_cli(capsys, "bundles", str(p))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "StructuralError", "message": (
        "line 1: id 'band:1' ends in '^-1' or starts with 'band:', which trail text reserves")}
    p.write_text("vertex u1\nvertex 2\narrow a: u1 -> 2\n")
    code, out, _ = run_cli(capsys, "bundles", str(p))
    payload = json.loads(out)["payload"]
    assert code == 0 and payload["bundles"] and payload["with_bands"] == []


def test_empty_trail_is_domain_error(kron_file, capsys):
    for trail in ("", "band:"):
        code, _out, err = run_cli(capsys, "gvector", kron_file, "--trail", trail)
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"


EMPTY_DEFAULTS = [("routes",), ("bands",), ("cliques",), ("cliques", "--reduced"),
                  ("bundles",), ("band-stable",), ("cells", "--kind", "clique"),
                  ("cells", "--kind", "bundle"), ("cells", "--kind", "vortex")]


@pytest.mark.parametrize("argv", EMPTY_DEFAULTS, ids=[" ".join(a) for a in EMPTY_DEFAULTS])
def test_empty_quiver_default_bounds(tmp_path, capsys, argv):
    # no bound given: the defaults stay valid when the quiver has no arrows
    p = tmp_path / "empty.qv"
    p.write_text("")
    code, out, err = run_cli(capsys, argv[0], str(p), *argv[1:])
    assert code == 0 and err == ""
    bounds = json.loads(out)["meta"]["bounds"]
    if argv[0] in ("routes", "bands"):
        assert bounds == {"max_arrows": 1 if argv[0] == "routes" else 2}
    elif argv[0] == "cliques":
        assert bounds == {"route_bound": 1}
    else:
        assert bounds == {"route_bound": 1, "band_bound": 2}


FILE_COMMANDS = [("validate",), ("fringe",), ("pairing",), ("routes",), ("bands",),
                 ("gvector", "--trail", "e1 e2 e3"), ("decompose", "--flow", "FLOW"),
                 ("decompose", "--flow", "FLOW", "--vortex"), ("blanks", "--flow", "FLOW"),
                 ("cliques",), ("bundles",), ("band-stable",), ("vertices",), ("rays",),
                 ("facets",), ("cells", "--kind", "vortex"), ("convert-dag",),
                 ("dag-decompose", "--flow", "FLOW")]


def _command_argv(tmp_path, argv):
    """(argv with an input file and FLOW filled in, the input text) for one
    of FILE_COMMANDS, on a fixture it runs on."""
    from gentleflow.fixtures import CUBE_DAG
    dag_command = argv[0] in ("convert-dag", "dag-decompose")
    text = (CUBE_DAG if dag_command
            else "vertex 1\nvertex 2\narrow a: 1 -> 2\n" if argv[0] == "fringe" else KRONECKER)
    path = tmp_path / "input.txt"
    path.write_text(text)
    flow = tmp_path / "flow.json"
    flow.write_text('{"e1": 1, "e2": 3, "f1": 3, "f2": 1}' if dag_command
                    else '{"e1": 1, "e2": "6", "e3": 1, "f2": 5}')
    rest = [str(flow) if a == "FLOW" else a for a in argv[1:]]
    return [argv[0], str(path), *rest], text


@pytest.mark.parametrize("argv", FILE_COMMANDS, ids=[" ".join(a) for a in FILE_COMMANDS])
def test_each_command_reads_its_input_once(tmp_path, capsys, monkeypatch, argv):
    # the report's input_sha256 hashes the very text the command parsed
    import builtins
    import hashlib
    argv, text = _command_argv(tmp_path, argv)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, out, err = run_cli(capsys, *argv)
    monkeypatch.undo()
    assert code == 0, err
    assert opened.count(argv[1]) == 1
    assert json.loads(out)["meta"]["input_sha256"] == hashlib.sha256(text.encode()).hexdigest()


ALL_COMMANDS = FILE_COMMANDS + [("examples", "kronecker")]


# run in a fresh interpreter: once the command is done, are argparse,
# dataclasses, inspect and, but for examples, the fixtures still unloaded?
PLAIN_RUN = ("import sys\nfrom gentleflow.cli import main\ncode = main(sys.argv[1:])\n"
             "unwanted = ['argparse', 'dataclasses', 'inspect']\n"
             "unwanted += ['gentleflow.fixtures'] if sys.argv[1] != 'examples' else []\n"
             "for name in unwanted:\n"
             "    assert name not in sys.modules, name + ' imported'\n"
             "sys.exit(code)")


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=[" ".join(a) for a in ALL_COMMANDS])
def test_a_command_builds_only_its_own_parser(tmp_path, argv):
    # A plain command line is parsed by its own row of COMMANDS alone: no
    # argparse parser is built, and argparse is never imported.  Neither
    # are dataclasses and inspect, nor the fixtures outside examples.
    import os
    import subprocess
    import sys
    import gentleflow
    if argv[0] != "examples":
        argv, _text = _command_argv(tmp_path, argv)
    src = os.path.dirname(os.path.dirname(gentleflow.__file__))
    run = subprocess.run([sys.executable, "-c", PLAIN_RUN, *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr


USAGE_CASES = [[], ["--help"], ["--pretty"], ["--pretty", "--help"], ["bogus"], ["deco"],
               ["decompose"], ["decompose", "--help"], ["decompose", "x.qv", "--flow"],
               ["decompose", "x.qv", "--flow", "y", "--pretty"],
               ["cells", "x.qv", "--kind", "nope"], ["routes", "x.qv", "--max-arrows", "two"],
               ["examples"], ["validate", "a", "b"], ["-x", "validate", "y"]]


def _exit(capsys, fn, argv):
    """(stdout, stderr, exit code) of fn(argv), which must exit."""
    with pytest.raises(SystemExit) as exc:
        fn(argv)
    out = capsys.readouterr()
    return out.out, out.err, exc.value.code


@pytest.mark.parametrize("argv", USAGE_CASES, ids=[" ".join(a) for a in USAGE_CASES])
def test_help_and_usage_errors_match_the_full_parser(capsys, monkeypatch, argv):
    from gentleflow.cli import build_parser
    monkeypatch.setenv("COLUMNS", "80")
    expected = _exit(capsys, build_parser().parse_args, argv)
    assert _exit(capsys, main, argv) == expected
    assert expected[2] == (0 if "--help" in argv else 2)


PARSED_CASES = [["routes", "x", "--max", "3"], ["--pretty", "cliques", "x", "--red"],
                ["fringe", "x", "-oy"], ["gvector", "--trail=e1 e2", "x"],
                ["cells", "x", "--kind", "vortex", "--band", "2", "--max-arrows", "-1"]]


# a negative number and an "=" form: argparse accepts both
FALLBACK_PARSED = [["routes", "x", "--max-arrows", "-1"], ["decompose", "x", "--flow=y"]]


@pytest.mark.parametrize("argv", PARSED_CASES + FALLBACK_PARSED,
                         ids=[" ".join(a) for a in PARSED_CASES + FALLBACK_PARSED])
def test_one_command_parser_parses_like_the_full_one(argv):
    # lines the plain reader leaves to argparse, abbreviated options included
    from gentleflow.cli import _parse, build_parser
    assert vars(_parse(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", USAGE_CASES + PARSED_CASES + FALLBACK_PARSED,
                         ids=[" ".join(a) for a in USAGE_CASES + PARSED_CASES + FALLBACK_PARSED])
def test_plain_reader_leaves_other_lines_to_argparse(argv):
    from gentleflow.cli import _plain_parse
    assert _plain_parse(argv) is None


def test_running_out_of_memory_is_a_json_error(kron_file):
    # A child process caps its own address space at 200 MB; the clique
    # search on long routes, which keeps each route's kiss witnesses,
    # exceeds it within a few seconds.  The error contract holds: exit 1,
    # one JSON error on stderr, no traceback.
    resource = pytest.importorskip("resource")
    import os
    import subprocess
    import sys
    import gentleflow

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

    src = os.path.dirname(os.path.dirname(gentleflow.__file__))
    run = subprocess.run([sys.executable, "-m", "gentleflow.cli", "cliques", kron_file, "--max-arrows", "800"],
                         capture_output=True, text=True, preexec_fn=cap, timeout=300,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    (line,) = run.stderr.splitlines()
    assert json.loads(line) == {"error": "MemoryError", "message": "out of memory"}
    assert run.stdout == ""


@pytest.mark.parametrize("command", ["validate", "vertices", "rays"])
@pytest.mark.parametrize("repeat", ["vertex 1", "fringe-vertex 1!in1"])
def test_fringed_file_with_a_repeated_vertex_is_structural_error(tmp_path, capsys, repeat, command):
    # a repeated vertex line was dropped by a set: validate passed, and
    # vertices and rays reported wrong dimensions
    base, fringed = tmp_path / "a2.qv", tmp_path / "a2-fringed.qv"
    base.write_text("vertex 1\nvertex 2\narrow a: 1 -> 2\n")
    assert run_cli(capsys, "fringe", str(base), "-o", str(fringed))[0] == 0
    p = tmp_path / "repeat.qv"
    p.write_text(fringed.read_text() + repeat + "\n")
    code, out, err = run_cli(capsys, command, str(p))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "StructuralError", "message": "duplicate vertex id"}

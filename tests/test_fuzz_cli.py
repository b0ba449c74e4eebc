"""Fuzzing of the command line: whatever the input files hold, a command
exits 0 with a JSON report, or 1 with a JSON error as its last stderr line,
and never raises."""

import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gentleflow import dag, quiver
from gentleflow.cli import COMMANDS, _plain_parse, build_parser, main
from gentleflow.fixtures import DAG_FIXTURES, QUIVER_FIXTURES, fixture_quiver

from test_dag import shuffled_doubled_path

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# a few shared ids, so that lines refer to each other; "s@e1" is the name
# make_convenient gives a split source
NAMES = st.sampled_from(["a", "b", "e1", "e2", "f1", "f2", "v1", "v2", "x1", "y2",
                         "m", "s", "t", "s@e1"])
TOKENS = NAMES | st.sampled_from(["1", "2", "3", "->", "label", "source", "sink", ":", "#"])


def _paired_graph(name: str) -> str:
    f = fixture_quiver(name)
    return dag.serialize_framed_graph(dag.from_paired(f, quiver.find_pairing(f)))


QV_SEEDS = list(QUIVER_FIXTURES.values())
FG_SEEDS = list(DAG_FIXTURES.values()) + [
    _paired_graph("kronecker"), _paired_graph("double-kronecker"),
    dag.serialize_framed_graph(shuffled_doubled_path(3, random.Random(1)))]


@st.composite
def mutated(draw, seeds):
    """A seed file with up to three lines dropped, doubled or given a new token."""
    lines = draw(st.sampled_from(seeds)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "double", "token"]))
        if op == "drop":
            del lines[i]
        elif op == "double":
            lines.insert(i, lines[i])
        elif tokens := lines[i].split():
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _text(line):
    return st.lists(line, max_size=14).map(lambda ls: "\n".join(ls) + "\n")


QV_LINE = st.one_of(
    st.builds("vertex {}".format, NAMES),
    st.builds("fringe-vertex {}".format, NAMES),
    st.builds("arrow {}: {} -> {}".format, NAMES, NAMES, NAMES),
    st.builds("relation {} {}".format, NAMES, NAMES),
    st.just("fringed"),
    st.lists(TOKENS, max_size=6).map(" ".join),
)
FG_LINE = st.one_of(
    st.builds("vertex {} {}".format, NAMES, st.sampled_from(["", "source", "sink", "internal"])),
    st.builds("edge {}: {} -> {} label {}".format, NAMES, NAMES, NAMES,
              st.sampled_from(["1", "2", "0", "x"])),
    st.lists(TOKENS, max_size=7).map(" ".join),
)
QV_TEXT = mutated(QV_SEEDS) | _text(QV_LINE)
FG_TEXT = mutated(FG_SEEDS) | _text(FG_LINE)

VALUE = st.one_of(
    st.integers(-2, 12),
    st.fractions(min_value=-1, max_value=12, max_denominator=7).map(str),
    st.sampled_from(["1/0", "x", "1e3", "", "0.5", "-0"]),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
)
FLOW_TEXT = st.one_of(
    st.dictionaries(NAMES | st.sampled_from(["e3", "f3", "e4", "p1", "m1", "r1"]), VALUE,
                    max_size=8).map(json.dumps),
    st.sampled_from(["[]", "1", "{", "null", '"x"', "", '{"e1": {"x": 1}}']),
)


def run(argv) -> None:
    """Run one command and check the exit contract."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert "error" in json.loads(err.getvalue().splitlines()[-1])
    else:
        assert "payload" in json.loads(out.getvalue())


def files(**texts):
    d = tempfile.TemporaryDirectory()
    paths = {}
    for name, text in texts.items():
        paths[name] = os.path.join(d.name, name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return d, paths


@FUZZ
@given(QV_TEXT, FLOW_TEXT, st.integers(0, 6))
def test_quiver_commands(text, flow, bound):
    d, p = files(qv=text, flow=flow)
    with d:
        run(["validate", p["qv"]])
        run(["routes", p["qv"], "--max-arrows", str(bound)])
        run(["cliques", p["qv"], "--max-arrows", str(bound)])
        run(["decompose", p["qv"], "--flow", p["flow"]])
        run(["vertices", p["qv"]])
        run(["rays", p["qv"]])
        run(["facets", p["qv"]])


@FUZZ
@given(FG_TEXT, FLOW_TEXT)
def test_framed_graph_commands(text, flow):
    d, p = files(fg=text, flow=flow)
    with d:
        run(["convert-dag", p["fg"]])
        run(["dag-decompose", p["fg"], "--flow", p["flow"]])


@FUZZ
@given(mutated(FG_SEEDS), st.data())
def test_dag_decompose_path_flows(text, data):
    # flows that are sums of directed paths, so that decomposition runs
    # whenever the graph is amply framed
    try:
        g = dag.parse_framed_graph(text)
    except quiver.StructuralError:
        return
    vals: dict[str, int] = {}
    starts = sorted(v for v, kind in g.vertices.items() if kind == "source")
    for _ in range(data.draw(st.integers(0, 3)) if starts else 0):
        v = data.draw(st.sampled_from(starts))
        for _step in range(len(g.edges)):
            if not g.edges_out(v):
                break
            e = data.draw(st.sampled_from(g.edges_out(v)))
            vals[e] = vals.get(e, 0) + 1
            v = g.edges[e][1]
    d, p = files(fg=text, flow=json.dumps(vals))
    with d:
        run(["dag-decompose", p["fg"], "--flow", p["flow"]])


# -- the plain command-line reader against argparse ---------------------------

ARG_VALUES = ["-1", "0", " 7", "1_0", "two", "", "-", "--", "-h", "nope", "vortex",
              "clique", "bundle", "3", "x.qv", "e1 e2"]
OPTION_STRINGS = sorted({s for _fn, arguments in COMMANDS.values()
                         for flags, _kw in arguments for s in flags if s.startswith("-")})
STRAY = ARG_VALUES + OPTION_STRINGS + ["--pretty", "--help", "-x", *COMMANDS]


def _spellings(flags):
    """The option strings of one argument and their abbreviations."""
    return [s for flag in flags if flag.startswith("-")
            for s in [flag] * 4 + [flag[:k] for k in range(3, len(flag))]]


def _value(kwargs):
    """Mostly a value the argument takes, else any of ARG_VALUES."""
    good = st.sampled_from(kwargs.get("choices") or (
        ["3", "0", " 7", "1_0"] if kwargs.get("type") is int else ["x.qv", "e1 e2", ""]))
    return st.one_of(good, good, st.sampled_from(ARG_VALUES))


@st.composite
def command_lines(draw):
    """A command line near a plain one: each argument of a command, perhaps
    dropped, abbreviated, in "=" form or given an odd value, in any order,
    with perhaps a stray token."""
    name = draw(st.sampled_from(list(COMMANDS)))
    words = []
    for flags, kwargs in COMMANDS[name][1]:
        if not draw(st.integers(0, 5)):
            continue
        value = draw(_value(kwargs))
        if not flags[0].startswith("-"):
            words.append([value])
            continue
        flag = draw(st.sampled_from(_spellings(flags)))
        if kwargs.get("action") == "store_true":
            words.append([flag])
        elif draw(st.integers(0, 5)):
            words.append([flag, value])
        else:
            words.append([f"{flag}={value}"])
    argv = [w for ws in draw(st.permutations(words)) for w in ws]
    if not draw(st.integers(0, 3)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAY)))
    return ["--pretty"] * draw(st.integers(0, 1)) + [name] + argv


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_plain_reader_parses_like_argparse(argv):
    plain = _plain_parse(argv)
    if plain is None:
        return
    err = io.StringIO()
    try:
        with redirect_stderr(err), redirect_stdout(err):
            full = build_parser().parse_args(argv)
    except SystemExit:
        raise AssertionError(f"argparse rejects {argv}: {err.getvalue()}") from None
    assert vars(plain) == vars(full)

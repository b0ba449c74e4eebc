"""Command line surface: machine-readable reports over the library."""

from __future__ import annotations

import hashlib
import json
import sys
from types import SimpleNamespace

from . import __version__
from .quiver import (
    DomainError,
    FringedQuiver,
    GentleQuiver,
    StructuralError,
    find_pairing,
    fringe,
    is_representation_finite,
    parse_quiver_file,
    serialize_fringed,
    validate_gentle,
)
from . import complexes, dag, flows, polyhedra, trails


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_quiver(text: str):
    q = parse_quiver_file(text)
    if isinstance(q, GentleQuiver):
        return fringe(q)
    return q


def _read_flow(path: str) -> dict:
    """The flow values in the JSON file at path.  JSON too deeply nested for
    the parser, or with an integer too long to read, is a DomainError."""
    text = _read(path)
    try:
        data = json.loads(text)
    except RecursionError:
        raise DomainError("the flow file is nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # over the interpreter's limit on digits of an int as text
        raise DomainError("the flow file holds an integer too long to read") from None
    return flows.flow_values(data)


def default_route_bound(f: FringedQuiver) -> int:
    # at least 1, the least bound enumeration accepts, on the empty quiver too
    return max(1, len(f.arrows) + 2 * len(f.internal_vertices))


def default_band_bound(f: FringedQuiver) -> int:
    return 2 * len(f.internal_vertices) + 2


def _bound(given: int | None, default: int) -> int:
    # 0 is a given bound (and an error downstream), not a missing one
    return default if given is None else given


def _report(args, payload, bounds=None):
    meta = {
        "tool": "gentleflow",
        "version": __version__,
        "command": args.command,
    }
    if args.text is not None:
        meta["input_sha256"] = hashlib.sha256(args.text.encode()).hexdigest()
    if bounds:
        meta["bounds"] = bounds
    doc = {"meta": meta, "payload": payload}
    print(json.dumps(doc, indent=2, sort_keys=True) if args.pretty else _compact(doc))


class _Literals(dict):
    """Each string looked up, as its JSON literal: escaped on the first lookup."""

    def __missing__(self, s: str) -> str:
        literal = self[s] = json.encoder.encode_basestring_ascii(s)
        return literal


_DEFAULT = json.JSONEncoder().default   # json.dumps's: raises TypeError


def _compact(doc) -> str:
    """json.dumps(doc, sort_keys=True), escaping each distinct string once.

    A report repeats strings (each `blanks` row names both of its bounding
    routes), and json.dumps escapes every copy afresh.  This runs the C
    encoder json.dumps runs, with its arguments, but with the lookup of a
    `_Literals` table as string encoder.  Without the C encoder it is
    json.dumps."""
    make = json.encoder.c_make_encoder
    if make is None:
        return json.dumps(doc, sort_keys=True)
    # (markers, default, encoder, indent, key_separator, item_separator,
    #  sort_keys, skipkeys, allow_nan), as JSONEncoder.iterencode passes them
    encode = make({}, _DEFAULT, _Literals().__getitem__, None, ": ", ", ", True, False, True)
    return "".join(encode(doc, 0))


def cmd_validate(args):
    q = parse_quiver_file(args.text)
    if isinstance(q, FringedQuiver):  # validated as it was parsed
        payload = {"kind": "fringed", "violations": []}
    else:
        payload = {"kind": "gentle", "violations": validate_gentle(q)}
    _report(args, payload)
    if payload["violations"]:
        err = {"error": "DomainError", "message": "; ".join(payload["violations"])}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1
    return 0


def cmd_fringe(args):
    f = fringe(parse_quiver_file(args.text))
    text = serialize_fringed(f)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    _report(args, {"fringed": text})
    return 0


def cmd_pairing(args):
    f = _load_quiver(args.text)
    psi = find_pairing(f)
    payload = {"paired": psi is not None, "pairing": psi,
               "representation_finite": is_representation_finite(f)}
    _report(args, payload)
    return 0


def cmd_routes(args):
    f = _load_quiver(args.text)
    bound = _bound(args.max_arrows, default_route_bound(f))
    calc = f.calculus
    # each row is read off the code word: no trail is interned
    payload = [{"trail": calc.universe.text(w),
                "self_compatible": ok,
                "straight": len({c & 1 for c in w}) == 1,
                "elementary": ok and trails._elementary_word(calc, w, False)}
               for w, ok in trails.route_words(f, bound, "flag")]
    _report(args, payload, bounds={"max_arrows": bound})
    return 0


def cmd_bands(args):
    f = _load_quiver(args.text)
    bound = _bound(args.max_arrows, default_band_bound(f))
    calc = f.calculus
    payload = [{"trail": str(b),
                "self_compatible": calc.self_compatible(b),
                "elementary": trails.is_elementary_band(f, b)}
               for b in trails.enumerate_bands(f, bound)]
    _report(args, payload, bounds={"max_arrows": bound})
    return 0


def cmd_gvector(args):
    f = _load_quiver(args.text)
    g = trails.g_vector(f, trails.parse_trail(args.trail))
    _report(args, {v: g[v] for v in sorted(g)})
    return 0


def cmd_decompose(args):
    f = _load_quiver(args.text)
    F = flows.Flow(f, _read_flow(args.flow))
    if args.vortex:
        payload = flows.decompose_vortex(F).as_json()
    else:
        payload = flows.decompose_bundle(F).as_json()
    _report(args, payload)
    return 0


def cmd_blanks(args):
    f = _load_quiver(args.text)
    F = flows.Flow(f, _read_flow(args.flow))
    rows = flows.blank_rows(F)
    payload = {"count": len(rows), "blank_spaces": rows}
    _report(args, payload)
    return 0


def cmd_cliques(args):
    f = _load_quiver(args.text)
    bound = _bound(args.max_arrows, default_route_bound(f))
    ks = complexes.maximal_cliques(f, bound)
    payload = [(k.reduced() if args.reduced else k).as_json() for k in ks]
    _report(args, payload, bounds={"route_bound": bound})
    return 0


def cmd_bundles(args):
    f = _load_quiver(args.text)
    rb = _bound(args.max_arrows, default_route_bound(f))
    bb = _bound(args.band_bound, default_band_bound(f))
    rows = [b.as_json() for b in complexes.maximal_bundles(f, rb, bb)]
    # routes sort before bands, so a bundle with a band lists one last
    payload = {"bundles": rows,
               "with_bands": [r for r in rows if r and r[-1].startswith("band:")]}
    _report(args, payload, bounds={"route_bound": rb, "band_bound": bb})
    return 0


def cmd_band_stable(args):
    f = _load_quiver(args.text)
    rb = _bound(args.max_arrows, default_route_bound(f))
    bb = _bound(args.band_bound, default_band_bound(f))
    payload = [{"clique": k.as_json(), "maximal": k.maximal}
               for k in complexes.band_stable_cliques(f, rb, bb)]
    _report(args, payload, bounds={"route_bound": rb, "band_bound": bb})
    return 0


def cmd_vertices(args):
    f = _load_quiver(args.text)
    _report(args, polyhedra.turbulence_presentation(f).as_json())
    return 0


def cmd_rays(args):
    f = _load_quiver(args.text)
    payload = {
        "turbulence_rays": polyhedra.labelled_vectors_json(polyhedra.turbulence_rays(f)),
        "g_polyhedron": polyhedra.g_polyhedron_presentation(f).as_json(),
    }
    _report(args, payload)
    return 0


def cmd_facets(args):
    f = _load_quiver(args.text)
    payload = [{"avoided": sorted(W), "halfspace": hs.as_json()}
               for W, hs in polyhedra.g_facets(f)]
    _report(args, payload)
    return 0


def cmd_cells(args):
    f = _load_quiver(args.text)
    rb = _bound(args.max_arrows, default_route_bound(f))
    bb = _bound(args.band_bound, default_band_bound(f))
    if args.kind == "clique":
        if bb < 1:  # unused here, but reported in meta like the other kinds'
            raise DomainError("bounds must be >= 1")
        payload = [k.as_json() for k in complexes.maximal_cliques(f, rb)]
    elif args.kind == "bundle":
        payload = [b.as_json() for b in complexes.maximal_bundles(f, rb, bb)]
    else:
        payload = [{"clique": k.as_json(),
                    "band_generators": [b._str for b in k.band_generators]}
                   for k in complexes.band_stable_cliques(f, rb, bb)]
    _report(args, payload, bounds={"route_bound": rb, "band_bound": bb})
    return 0


def cmd_convert_dag(args):
    g = dag.parse_framed_graph(args.text)
    f, psi = dag.to_fringed_quiver(g)
    payload = {
        "convenient": dag.is_convenient(g),
        "acyclic": g.is_acyclic(),
        "fringed": serialize_fringed(f),
        "pairing": psi,
    }
    _report(args, payload)
    return 0


def cmd_dag_decompose(args):
    g = dag.parse_framed_graph(args.text)
    F = dag.DagFlow(g, _read_flow(args.flow))
    payload = flows.BundleCombination(dag.dag_decompose(F)).as_json()
    _report(args, payload)
    return 0


def cmd_examples(args):
    from . import fixtures  # only this command reads the fixtures
    name = args.name
    if name not in fixtures.FIXTURES:
        raise DomainError(f"unknown example {name!r}; choose from {sorted(fixtures.FIXTURES)}")
    text = fixtures.FIXTURES[name]
    payload = {"name": name, "file": text}
    if name in fixtures.QUIVER_FIXTURES:
        f = fixtures.fixture_quiver(name)
        payload["reports"] = {
            "vertices": polyhedra.turbulence_presentation(f).as_json(),
            "g_polyhedron": polyhedra.g_polyhedron_presentation(f).as_json(),
        }
    _report(args, payload)
    return 0


_FILE = (("file",), {})
_MAX_ARROWS = (("--max-arrows",), {"type": int})
_BAND_BOUND = (("--band-bound",), {"type": int})
_FLOW = (("--flow",), {"required": True})

# name -> (handler, arguments), in the order the help lists them
COMMANDS = {
    "validate": (cmd_validate, [_FILE]),
    "pairing": (cmd_pairing, [_FILE]),
    "vertices": (cmd_vertices, [_FILE]),
    "rays": (cmd_rays, [_FILE]),
    "facets": (cmd_facets, [_FILE]),
    "convert-dag": (cmd_convert_dag, [_FILE]),
    "fringe": (cmd_fringe, [_FILE, (("-o", "--output"), {})]),
    "routes": (cmd_routes, [_FILE, _MAX_ARROWS]),
    "bands": (cmd_bands, [_FILE, _MAX_ARROWS]),
    "gvector": (cmd_gvector, [_FILE, (("--trail",), {"required": True})]),
    "decompose": (cmd_decompose, [_FILE, _FLOW, (("--vortex",), {"action": "store_true"})]),
    "blanks": (cmd_blanks, [_FILE, _FLOW]),
    "cliques": (cmd_cliques, [_FILE, _MAX_ARROWS, (("--reduced",), {"action": "store_true"})]),
    "bundles": (cmd_bundles, [_FILE, _MAX_ARROWS, _BAND_BOUND]),
    "band-stable": (cmd_band_stable, [_FILE, _MAX_ARROWS, _BAND_BOUND]),
    "cells": (cmd_cells, [_FILE, (("--kind",), {"choices": ["clique", "bundle", "vortex"],
                                                 "required": True}),
                          _MAX_ARROWS, _BAND_BOUND]),
    "dag-decompose": (cmd_dag_decompose, [_FILE, _FLOW]),
    "examples": (cmd_examples, [(("name",), {})]),
}


def build_parser():
    """The full argparse parser of every command."""
    import argparse  # not at module level: a plain command line never needs it

    ap = argparse.ArgumentParser(prog="gentleflow")
    ap.add_argument("--pretty", action="store_true", help="indent JSON output")
    ap.set_defaults(file=None)  # for the commands without an input file
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, arguments) in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return ap


def _plain_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` gives, read straight
    off `COMMANDS` when argv is a plain command line; None otherwise.

    A plain line is an optional leading --pretty, a command name, then that
    command's exact option strings, each value-taking one followed by a value
    that does not start with "-" and passes the option's type and choices,
    and exactly its positionals, with every required option given.  Any
    other line (help, usage errors, abbreviated options, "--opt=value",
    "-oy", negative numbers, "--", "-") is left to argparse, so its
    messages and exit codes are argparse's own.
    """
    pretty = argv[:1] == ["--pretty"]
    name, *rest = (argv[1:] if pretty else argv) or [None]
    if name not in COMMANDS:
        return None
    fn, arguments = COMMANDS[name]
    ns = {"pretty": pretty, "file": None, "command": name, "fn": fn}
    options, positionals = {}, []
    for flags, kwargs in arguments:
        if not flags[0].startswith("-"):
            positionals.append(flags[0])
            continue
        # argparse's dest: the first long option string, dashes made underscores
        dest = next((s for s in flags if s.startswith("--")), flags[0])
        dest = dest.lstrip("-").replace("-", "_")
        ns[dest] = False if kwargs.get("action") == "store_true" else None
        options.update(dict.fromkeys(flags, (dest, kwargs)))
    required = {dest for dest, kwargs in options.values() if kwargs.get("required")}
    given, tokens = [], iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        if token not in options:
            return None
        dest, kwargs = options[token]
        if kwargs.get("action") == "store_true":
            ns[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if value not in kwargs.get("choices", [value]):
            return None
        ns[dest] = value
        required.discard(dest)
    if required or len(given) != len(positionals):
        return None
    ns.update(zip(positionals, given))
    return SimpleNamespace(**ns)


def _parse(argv: list[str]):
    """Parse a plain command line off `COMMANDS`, and any other with argparse."""
    return _plain_parse(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        # the one read of the input file: commands parse this text, reports hash it
        args.text = None if args.file is None else _read(args.file)
        return args.fn(args)
    except (DomainError, StructuralError, OSError, UnicodeError, json.JSONDecodeError) as exc:
        # OSError and UnicodeError come from reading or writing a given path
        err = {"error": type(exc).__name__, "message": str(exc)}
    except MemoryError:
        # reported after the handler, which drops the traceback and with it the partial results
        err = {"error": "MemoryError", "message": "out of memory"}
    print(json.dumps(err, sort_keys=True), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

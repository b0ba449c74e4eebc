"""Seeded input generators for the benchmark.

Every generator is a pure function of its arguments (a seed where there is
randomness) and returns file text or a flow dict in the formats the
`gentleflow` CLI reads.  Nothing here imports the package under test, so
the inputs do not depend on the code being measured.

Input families and why each was chosen:

- doubled paths (`doubled_path`): the `kronecker` / `triple-kronecker`
  shapes.  Doubled A4 enumerates 3194 routes and keeps 88, the known
  clique-search hot spot.
- Kronecker winding flows (`winding_flow`, `rational_winding_flow`): one
  route of length 2k+2 (or two long routes), the worst case for the
  re-tracing in bundle decomposition.
- random gentle quivers (`random_gentle_quiver`): spread the work over the
  compatibility matrix and Bron-Kerbosch instead of one enumeration, and
  at hundreds of vertices load the quiver layer's adjacency scans.
- bundle-combination flows (`bundle_flow`): a positive rational
  combination of one compatible trail set, so the decomposition is known by
  construction and consists of many short traces.
- doubled-path framed DAGs (`doubled_path_dag`, `dag_flow`): the only
  inputs of the `dag` tracing kernel and of `convert-dag`.
- relation-free A_n paths (`path_quiver`): representation-finite, paired,
  with no violations by construction; O(|E|^2) in `fringe` and `pairing`,
  and deep enough at n ~ 1100 to reach the recursion limit.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _quiver_text(vertices, arrows, relations) -> str:
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"arrow {a}: {t} -> {h}" for a, (t, h) in arrows.items()]
    lines += [f"relation {a} {b}" for a, b in sorted(relations)]
    return "\n".join(lines) + "\n"


def doubled_path(m: int) -> str:
    """Fringed doubled A_m path: `kronecker` for m=2, `triple-kronecker` for m=4.

    Internal vertices v1..vm joined by parallel arrows e_i, f_i; the
    relations cross over, e_i f_{i+1} and f_i e_{i+1}.
    """
    lines = ["fringed"]
    lines += [f"vertex v{i}" for i in range(1, m + 1)]
    lines += [f"fringe-vertex {x}" for x in ("x1", "x2", "y1", "y2")]
    ends = ["x1"] + [f"v{i}" for i in range(1, m + 1)] + ["x2"]
    for i in range(1, m + 2):
        lines.append(f"arrow e{i}: {ends[i - 1]} -> {ends[i]}")
    ends = ["y1"] + ends[1:-1] + ["y2"]
    for i in range(1, m + 2):
        lines.append(f"arrow f{i}: {ends[i - 1]} -> {ends[i]}")
    for i in range(1, m + 1):
        lines.append(f"relation e{i} f{i + 1}")
        lines.append(f"relation f{i} e{i + 1}")
    return "\n".join(lines) + "\n"


def winding_flow(k: int) -> dict[str, str]:
    """The Kronecker flow of the single route e1 (e2 f2^-1)^k f1^-1."""
    return {"e1": "1", "f1": "1", "e2": str(k), "f2": str(k)}


def winding_route(k: int) -> str:
    return " ".join(["e1"] + ["e2 f2^-1"] * k + ["f1^-1"])


def rational_winding_flow(outer: str, inner: str) -> dict[str, str]:
    """Kronecker flow {e1, f1: outer; e2, f2: inner}, values as written.

    Values stay unreduced (e.g. 1001/7), so parsing and the
    common-denominator scaling are on the path.
    """
    return {"e1": outer, "f1": outer, "e2": inner, "f2": inner}


def path_quiver(n: int) -> str:
    """Relation-free linearly oriented A_n path u0 -> u1 -> ... -> u{n-1}."""
    vertices = [f"u{i}" for i in range(n)]
    arrows = {f"a{i}": (f"u{i}", f"u{i + 1}") for i in range(n - 1)}
    return _quiver_text(vertices, arrows, ())


def _has_relation_free_cycle(arrows, relations) -> bool:
    succ = {a: [b for b, (t, _h) in arrows.items()
                if t == arrows[a][1] and (a, b) not in relations]
            for a in arrows}
    color = dict.fromkeys(arrows, 0)
    for root in arrows:
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            a, it = stack[-1]
            for b in it:
                if color[b] == 1:
                    return True
                if color[b] == 0:
                    color[b] = 1
                    stack.append((b, iter(succ[b])))
                    break
            else:
                color[a] = 2
                stack.pop()
    return False


def random_gentle_quiver(seed: int, n: int, acyclic: bool = False) -> str:
    """A random gentle bound quiver on n vertices.

    1.2 n arrows are drawn, keeping in- and out-degree at most 2; relations then pick,
    at every vertex, a partial matching of incoming with outgoing arrows that
    keeps each arrow with at most one relation and one relation-free
    continuation.  Draws with an oriented relation-free cycle are retried.
    With `acyclic`, arrows point from lower to higher vertex index.
    """
    rng = random.Random(seed)
    vertices = [f"u{i}" for i in range(n)]
    for _attempt in range(1000):
        arrows: dict[str, tuple[str, str]] = {}
        out_deg = [0] * n
        in_deg = [0] * n
        for k in range(int(1.2 * n)):
            t, h = rng.randrange(n), rng.randrange(n)
            if acyclic:
                if t == h:
                    continue
                t, h = min(t, h), max(t, h)
            if out_deg[t] >= 2 or in_deg[h] >= 2:
                continue
            arrows[f"a{k}"] = (vertices[t], vertices[h])
            out_deg[t] += 1
            in_deg[h] += 1
        relations: set[tuple[str, str]] = set()
        for v in vertices:
            ins = [a for a, (_t, h) in arrows.items() if h == v]
            outs = [a for a, (t, _h) in arrows.items() if t == v]
            if len(ins) == 2 and len(outs) == 2:
                if rng.random() < 0.5:
                    outs.reverse()
                relations |= {(ins[0], outs[0]), (ins[1], outs[1])}
            elif ins and len(outs) == 2:
                relations.add((ins[0], rng.choice(outs)))
            elif len(ins) == 2 and outs:
                relations.add((rng.choice(ins), outs[0]))
            elif ins and outs and rng.random() < 0.5:
                relations.add((ins[0], outs[0]))
        if not _has_relation_free_cycle(arrows, relations):
            return _quiver_text(vertices, arrows, relations)
    raise ValueError(f"no gentle quiver drawn for seed {seed}, n={n}")


def bundle_flow(seed: int, bundle: list[str]) -> tuple[dict[str, str], dict[str, str]]:
    """A positive rational combination of a random subset of one bundle.

    `bundle` lists pairwise compatible trails as the CLI prints them.
    Returns (flow, expected coefficients); by uniqueness of the positive
    bundle decomposition the CLI must return exactly those coefficients.
    """
    rng = random.Random(seed)
    picks = rng.sample(bundle, rng.randint(1, len(bundle)))
    coeffs = {t: Fraction(rng.randint(1, 12), rng.randint(1, 6)) for t in picks}
    flow: dict[str, Fraction] = {}
    for t, c in coeffs.items():
        for token in t.removeprefix("band:").split():
            a = token.removesuffix("^-1")
            flow[a] = flow.get(a, Fraction(0)) + c
    return ({a: str(x) for a, x in sorted(flow.items())},
            {t: str(c) for t, c in coeffs.items()})


def doubled_path_dag(n: int) -> str:
    """Framed DAG: sources s1, s2 -> m1 => m2 => ... => mn -> sinks t1, t2.

    Consecutive internal vertices are joined by a 1-edge and a 2-edge, so
    every internal vertex is full and the framing is realized.
    """
    lines = ["vertex s1 source", "vertex s2 source", "vertex t1 sink", "vertex t2 sink"]
    lines += [f"vertex m{i}" for i in range(1, n + 1)]
    lines += ["edge p1: s1 -> m1 label 1", "edge p2: s2 -> m1 label 2"]
    for i in range(1, n):
        lines.append(f"edge c{i}: m{i} -> m{i + 1} label 1")
        lines.append(f"edge d{i}: m{i} -> m{i + 1} label 2")
    lines += [f"edge q1: m{n} -> t1 label 1", f"edge q2: m{n} -> t2 label 2"]
    return "\n".join(lines) + "\n"


def dag_flow(seed: int, n: int) -> dict[str, str]:
    """A rational flow of strength 60/7 on `doubled_path_dag(n)`.

    Each parallel pair splits the strength at a random point, so the
    decomposition has up to n+1 distinct routes of length n+1.
    """
    rng = random.Random(seed)
    flow = {}
    for one, two in [("p1", "p2")] + [(f"c{i}", f"d{i}") for i in range(1, n)] + [("q1", "q2")]:
        x = rng.randint(1, 59)
        flow[one] = str(Fraction(x, 7))
        flow[two] = str(Fraction(60 - x, 7))
    return flow

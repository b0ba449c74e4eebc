"""The random gentle quivers of the test pool, importable without pytest:
`conftest.quiver_pool` draws them, and the payload digests rebuild the pool
from the same seed."""

import random

from gentleflow import quiver
from gentleflow.quiver import GentleQuiver


def random_gentle_quiver(rng: random.Random, max_vertices: int = 4) -> GentleQuiver:
    """A random small gentle quiver (retrying until finite-dimensional)."""
    for _attempt in range(200):
        n = rng.randint(1, max_vertices)
        vertices = tuple(f"u{i}" for i in range(n))
        arrows = {}
        out_deg = dict.fromkeys(vertices, 0)
        in_deg = dict.fromkeys(vertices, 0)
        for k in range(rng.randint(0, 2 * n)):
            t = rng.choice(vertices)
            h = rng.choice(vertices)
            if out_deg[t] >= 2 or in_deg[h] >= 2:
                continue
            arrows[f"a{k}"] = (t, h)
            out_deg[t] += 1
            in_deg[h] += 1
        relations = set()
        for v in vertices:
            ins = sorted(a for a, (_t, h) in arrows.items() if h == v)
            outs = sorted(a for a, (t, _h) in arrows.items() if t == v)
            if len(ins) == 2 and len(outs) == 2:
                if rng.random() < 0.5:
                    relations |= {(ins[0], outs[0]), (ins[1], outs[1])}
                else:
                    relations |= {(ins[0], outs[1]), (ins[1], outs[0])}
            elif ins and len(outs) == 2:
                relations.add((ins[0], rng.choice(outs)))
            elif len(ins) == 2 and outs:
                relations.add((rng.choice(ins), outs[0]))
            elif ins and outs:
                if rng.random() < 0.5:
                    relations.add((ins[0], outs[0]))
        q = GentleQuiver(vertices, arrows, frozenset(relations))
        if not quiver.validate_gentle(q):
            return q
    raise AssertionError("could not generate a gentle quiver")

"""Rebuild perfbench/reference.json from the code at the current commit.

    python3 perfbench/record.py        # from the root of the checkout

1. Computes, with the package itself, the maximal bundles that seed the
   bundle-combination flows: 8 evenly spaced bundles of triple-kronecker and
   the largest bundle of every other quiver in workloads.BUNDLE_QUIVERS.
2. Runs every command that any seed can put in a workload, each in a fresh
   interpreter, and stores the sha256 of its payload.  Commands with a
   known defect that fail are left without a digest; their analytic check
   stays the reference.

Re-record only in a change that alters payloads on purpose, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import run
import workloads


def record_bundles(root: Path) -> dict[str, list[list[str]]]:
    sys.path.insert(0, str(root / "src"))
    from gentleflow import cli, complexes, quiver

    out = {}
    for name, text in workloads.BUNDLE_QUIVERS.items():
        q = quiver.parse_quiver_file(text)
        f = q if isinstance(q, quiver.FringedQuiver) else quiver.fringe(q)
        bundles = complexes.maximal_bundles(f, cli.default_route_bound(f),
                                            cli.default_band_bound(f))
        trails = [[str(t) for t in b.sorted_trails()] for b in bundles]
        if name == "triple-kronecker":
            step = len(trails) / workloads.BUNDLES_PER_QUIVER
            out[name] = [trails[int(i * step)] for i in range(workloads.BUNDLES_PER_QUIVER)]
        else:
            out[name] = [max(trails, key=len)]
    return out


def main() -> int:
    root = Path.cwd()
    reference = {"bundles": record_bundles(root), "payload_sha256": {}}
    commands = {}
    files = {}
    for name in workloads.WORKLOADS:
        plan = workloads.build_all(name, reference)
        files.update(plan.files)
        for cmd in plan.commands:
            commands.setdefault(cmd.key, cmd)
    work = root / ".perfbench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (work / name).write_text(text)
    runner = run.Runner(root, work, reference, seed=0, cap_s=None)
    runner.warm_up()
    cmds = sorted(commands.values(), key=lambda c: c.key)
    print(f"recording {len(cmds)} commands", flush=True)

    def one(item):
        i, cmd = item
        ex = runner.run(i, cmd, trace=False)
        return cmd, ex

    digests = {}
    problems = []
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for cmd, ex in pool.map(one, enumerate(cmds)):
                if ex.failure is None or ex.failure == "no reference payload recorded":
                    digests[cmd.key] = ex.digest
                elif not run.is_known_defect(cmd, ex):
                    problems.append(f"{cmd.key}: {ex.failure}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("FAILED:", p)
    reference["payload_sha256"] = dict(sorted(digests.items()))
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests, {len(problems)} unexpected failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

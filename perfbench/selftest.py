"""Self-test of the benchmark itself (not of gentleflow).

    python3 perfbench/selftest.py      # from the root of the checkout, ~1 min

Checks, at tiny workload sizes:
- every end-to-end and per-layer metric of BENCHMARK.json is printed with
  its unit, and the failure share is computed (structure-reports carries
  the known RecursionError of the ~1100-vertex path);
- a deliberately wrong reference digest counts as a failure and makes the
  run incorrect, and a known defect excuses only the exception it names;
- the wrappers reach every binding: 1606 trace_interval calls for the k=400
  winding flow, 3194 routes enumerated (88 kept) on triple-kronecker;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import run
import workloads

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".perfbench_work" / "selftest"
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(*extra: str, cwd: Path = ROOT, script: Path | None = None) -> tuple[int, list[str]]:
    script = script or cwd / SPEC["command"][1]
    cmd = [sys.executable, str(script), "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict:
    return json.loads(lines[-1]) if lines else {}


def check_metrics(workload: str) -> None:
    rc, lines = bench("--workload", workload, "--seed", "1", "--tiny", "--trace", "0")
    res = result_of(lines)
    expect(rc == 0 and res.get("correct") is True, f"{workload}: tiny run is correct")
    for m in SPEC["end_to_end"]:
        got = res.get("metrics", {}).get(m["name"], {})
        expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
               f"{workload}: prints {m['name']} in {m['unit']}")
    share = res.get("failed", -1) / max(res.get("attempted", 1), 1)
    want_failed = 1 if workload == "structure-reports" else 0
    expect(res.get("failed") == want_failed
           and any(line.startswith(f"failed_ratio = {share:.6f}") for line in lines),
           f"{workload}: failed_ratio {share:.4f} with {want_failed} known failure(s)")
    expect(abs(res["metrics"]["ok_ratio"]["value"] - (1 - share)) < 1e-12,
           f"{workload}: ok_ratio = 1 - failed_ratio")

    rc, lines = bench("--workload", workload, "--seed", "1", "--tiny", "--trace", "1")
    res = result_of(lines)
    names = set(res.get("metrics", {}))
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in names]
    expect(rc == 0 and not missing, f"{workload}: traced run prints every per-layer metric"
           + (f" (missing {missing})" if missing else ""))


def check_wrong_digest() -> None:
    """Run a copy of the benchmark whose reference.json has one digest changed."""
    copy = WORK / "tampered"
    shutil.copytree(run.HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    reference = json.loads(run.REFERENCE.read_text())
    plan = workloads.build("flow-decompose", 1, reference, tiny=True)
    key = next(c.key for c in plan.commands if c.key in reference["payload_sha256"])
    reference["payload_sha256"][key] = "0" * 64
    (copy / "reference.json").write_text(json.dumps(reference))
    rc, lines = bench("--workload", "flow-decompose", "--seed", "1", "--tiny",
                      "--trace", "0", script=copy / "run.py")
    res = result_of(lines)
    expect(rc == 0 and res.get("failed") == 1 and res.get("correct") is False,
           "a wrong reference digest counts as one failure and an incorrect run")


def check_known_defect() -> None:
    """Only the named exception counts as the known defect."""
    cmd = workloads.Command(("validate", "q.qv"), known_defect="RecursionError")

    def failed(error):
        return run.Execution(0, 0.0, 0.0, 0.0, 0.0, 0, failure="failed", error=error)
    expect(run.is_known_defect(cmd, failed("RecursionError: maximum recursion depth exceeded"))
           and not run.is_known_defect(cmd, failed("MemoryError"))
           and not run.is_known_defect(cmd, failed(None)),
           "a known defect matches its exception only, not a timeout or another error")


def traced_report(quiver: str, command: str, *extra: str) -> dict:
    """The trace of `gentleflow COMMAND q.qv EXTRA...` on the given quiver."""
    (WORK / "q.qv").write_text(quiver)
    runner = run.Runner(ROOT, WORK, {"payload_sha256": {}}, seed=0, cap_s=None)
    ex = runner.run(0, workloads.Command((command, "q.qv", *extra)), trace=True)
    return ex.trace or {}


def check_coverage() -> None:
    (WORK / "w.json").write_text(json.dumps(gen.winding_flow(400)))
    tr = traced_report(gen.doubled_path(2), "decompose", "--flow", "w.json")
    calls = sum(s[1] == "flows.trace_interval" for s in tr.get("spans", []))
    expect(calls == 1606, f"k=400 winding flow: {calls} trace_interval calls (want 1606)")

    tr = traced_report(gen.doubled_path(4), "cliques")
    spans = tr.get("spans", [])
    routes = sum(s[6] for s in spans if s[1] == "trails.enumerate_routes")
    kept = sum(s[6] for s in spans if s[1] == "complexes.bending_route_universe")
    expect(routes == 3194, f"triple-kronecker: {routes} routes enumerated (want 3194)")
    expect(kept == 88, f"triple-kronecker: {kept} bending self-compatible routes (want 88)")


def check_bare_directory() -> None:
    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                      "--trace", "0", cwd=bare)
    printed = any(line.startswith("{") for line in lines)
    expect(rc != 0 and not printed, "without the program: non-zero exit and no result")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        check_bare_directory()
        check_coverage()
        check_wrong_digest()
        check_known_defect()
        for w in SPEC["workloads"]:
            check_metrics(w["name"])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""gentleflow benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gentleflow checkout.  Builds the workload's inputs
from the seed, then runs its command list one command at a time, each in a
fresh interpreter (perfbench/child.py) with PYTHONPATH=src, so every
per-quiver and process-global cache starts cold, as for a user
(PYTHONHASHSEED is derived from the seed, so a seed repeats exactly).  Every
payload is checked against the digest recorded in reference.json and, where
the answer is known by construction, against that answer.

A pass is the whole command list.  Passes repeat while another one fits in
S seconds; there is always at least one.  With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics; with --trace 1 the run
makes one untraced and one traced pass (tracer.py) and reports the
per-layer metrics and the tracing overhead, and writes the spans to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
COMMAND_TIMEOUT_S = 25
# Time of one calibration loop on the machine that defined the benchmark.
# Timings are rescaled to a machine that runs the loop this fast.
REFERENCE_LOOP_S = 0.008
SPEED_WINDOW = 3         # calibration samples on each side of a command
RUN_CAP_S = 140          # no command starts later than this, so a run ends within 180 s
TRACEBACK = "Traceback (most recent call last)"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "cmd_p50_s": "s", "cmd_p90_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "1"}


@dataclass
class Execution:
    index: int
    setup_s: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    payload_bytes: int
    failure: str | None = None
    error: str | None = None   # last stderr line of a command that exited non-zero
    wrong: bool = False        # a payload that differs from the reference
    digest: str | None = None  # sha256 of the payload
    calibration: float = 0.0   # calibration loop time just after the command
    speed: float = 1.0         # REFERENCE_LOOP_S / local calibration time
    trace: dict | None = None


def calibrate() -> float:
    """Time a fixed dict/set/tuple loop that does not touch gentleflow.

    On a shared machine the speed can drift by +-20% over tens of seconds,
    in step for this loop and for gentleflow commands; a sample taken after
    every command lets each command be rescaled by the local speed."""
    t = time.perf_counter()
    counts: dict = {}
    seen: set = set()
    for i in range(5000):
        k = (i % 97, i % 89, "e%d" % (i % 13))
        counts[k] = counts.get(k, 0) + 1
        seen.symmetric_difference_update((k,))
    sorted(counts.items())
    return time.perf_counter() - t


def payload_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Runner:
    def __init__(self, root: Path, work: Path, reference: dict, seed: int,
                 cap_s: float | None = RUN_CAP_S):
        self.work = work
        self.reference = reference
        self.deadline = None if cap_s is None else time.monotonic() + cap_s
        src = str(root / "src")
        env = dict(os.environ)
        env.pop("GENTLEFLOW_THREADS", None)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.env = env

    def warm_up(self) -> None:
        """Byte-compile the package once, as an installed package would be."""
        subprocess.run([sys.executable, "-c", "import gentleflow.cli"], env=self.env,
                       cwd=self.work, check=True, capture_output=True, timeout=60)

    def run(self, index: int, cmd: workloads.Command, trace: bool) -> Execution:
        ex = self._run(index, cmd, trace)
        ex.calibration = calibrate()
        return ex

    def _run(self, index: int, cmd: workloads.Command, trace: bool) -> Execution:
        if self.deadline is not None and time.monotonic() > self.deadline:
            return Execution(index, 0.0, 0.0, 0.0, 0.0, 0, "not started: run time cap")
        report = self.work / f"report-{index}.json"
        report.unlink(missing_ok=True)
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(report), "1" if trace else "0", str(index),
             *cmd.args],
            cwd=self.work, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return Execution(index, 0.0, COMMAND_TIMEOUT_S, 0.0, 0.0, 0,
                             f"timeout after {COMMAND_TIMEOUT_S} s")
        try:
            rep = json.loads(report.read_text())
        except (OSError, ValueError):
            return Execution(index, 0.0, time.monotonic() - t_spawn, 0.0, 0.0, len(out),
                             f"exit {proc.returncode} before the command ran")
        ex = Execution(index, rep["t_import"] - t_spawn, rep["t_end"] - rep["t_import"],
                       rep["cpu_s"], rep["maxrss_kb"] / 1024, len(out), trace=rep.get("trace"))
        text = err.decode(errors="replace")
        if proc.returncode != 0 or TRACEBACK in text:
            ex.error = text.strip().splitlines()[-1] if text.strip() else ""
            ex.failure = f"exit {proc.returncode}: {ex.error}"
            return ex
        try:
            payload = json.loads(out)["payload"]
        except (ValueError, KeyError, TypeError):
            ex.failure = "stdout is not a gentleflow report"
            return ex
        ex.digest = payload_digest(payload)
        ex.failure = self.check(cmd, payload, ex.digest)
        ex.wrong = ex.failure is not None
        return ex

    def check(self, cmd: workloads.Command, payload, digest: str) -> str | None:
        want = self.reference["payload_sha256"].get(cmd.key)
        if want is None and cmd.check is None:
            return "no reference payload recorded"
        if want is not None and digest != want:
            return "payload differs from the recorded reference"
        if cmd.check is not None and not cmd.check(payload):
            return "payload fails the analytic check"
        return None


def is_known_defect(cmd: workloads.Command, ex: Execution) -> bool:
    """The failure is the command's known defect: it raised the named exception."""
    return (cmd.known_defect is not None and ex.error is not None
            and ex.error.split(":", 1)[0] == cmd.known_defect)


def run_pass(runner: Runner, commands, trace: bool) -> list[Execution]:
    """Run every command once, each followed by a calibration sample; each
    command's speed is the median of the samples around it."""
    before = calibrate()
    pass_ = [runner.run(i, cmd, trace) for i, cmd in enumerate(commands)]
    samples = [before] + [ex.calibration for ex in pass_]
    for i, ex in enumerate(pass_):
        window = samples[max(0, i + 1 - SPEED_WINDOW): i + 1 + SPEED_WINDOW]
        ex.speed = REFERENCE_LOOP_S / statistics.median(window)
    return pass_


# -- metrics ---------------------------------------------------------------------

def end_to_end(passes: list[list[Execution]]) -> dict[str, float]:
    """Timings are rescaled by each command's local machine speed."""
    flat = [ex for p in passes for ex in p]
    per_cmd = list(zip(*passes))
    walls = [ex.wall_s * ex.speed for ex in flat]
    failed = sum(ex.failure is not None for ex in flat)
    return {
        "wall_s": sum(statistics.median(ex.wall_s * ex.speed for ex in c) for c in per_cmd),
        "cpu_s": sum(statistics.median(ex.cpu_s * ex.speed for ex in c) for c in per_cmd),
        "cmd_p50_s": statistics.median(walls),
        "cmd_p90_s": statistics.quantiles(walls, n=10)[8],
        "setup_s": statistics.median(ex.setup_s * ex.speed for ex in flat if ex.setup_s > 0),
        "peak_rss_mb": max(ex.rss_mb for ex in flat),
        "ok_ratio": (len(flat) - failed) / len(flat),
    }


def _raw_layer_totals(executions: list[Execution]) -> dict[str, float]:
    raw: dict[str, float] = defaultdict(float)
    for ex in executions:
        raw["cli.payload_bytes"] += ex.payload_bytes
        tr = ex.trace
        if tr is None:
            continue
        names = {s[0]: s[1] for s in tr["spans"]}
        for sid, name, t0, t1, parent, self_s, size in tr["spans"]:
            raw[name + ".s"] += t1 - t0
            raw[name + ".self_s"] += self_s
            raw[name + ".calls"] += 1
            if size is not None:
                raw[name + ".size"] += size
                if (name == "trails.enumerate_routes"
                        and names.get(parent) == "complexes.bending_route_universe"):
                    raw["complexes.filter_input"] += size
        for name, _parent, calls, total, self_s in tr["rollups"]:
            raw[name + ".calls"] += calls
            raw[name + ".s"] += total
            raw[name + ".self_s"] += self_s
        for name, calls in tr["counts"].items():
            raw[name + ".calls"] += calls
        for layer, n in tr["useful_trails"].items():
            raw[layer + ".useful_trails"] += n
    return raw


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(executions: list[Execution]) -> dict[str, float]:
    r = _raw_layer_totals(executions)
    out = {}
    for layer, names in (
        ("quiver", ["parse_quiver_file", "validate_gentle", "fringe", "find_pairing",
                    "is_representation_finite"]),
        ("trails", ["enumerate_routes", "enumerate_bands", "kiss", "tops_bottoms",
                    "elementary_routes", "elementary_bands"]),
        ("flows", ["Flow", "decompose_bundle", "decompose_vortex", "blank_spaces",
                   "trace_interval"]),
        ("complexes", ["band_universe"]),
        ("polyhedra", ["turbulence_presentation", "g_polyhedron_presentation", "g_facets"]),
        ("dag", ["parse_framed_graph", "to_fringed_quiver", "dag_decompose",
                 "dag_trace_interval"]),
    ):
        for name in names:
            out[f"{layer}.{name}.s"] = r[f"{layer}.{name}.s"]
    for name in ("quiver.string_continuations", "trails.kiss", "trails.tops_bottoms",
                 "trails.Route.of", "flows.trace_interval", "dag.dag_trace_interval"):
        out[name + ".calls"] = r[name + ".calls"]
    out["trails.routes_enumerated"] = r["trails.enumerate_routes.size"]
    out["trails.bands_enumerated"] = r["trails.enumerate_bands.size"]
    for name in ("bending_route_universe", "maximal_cliques", "maximal_bundles",
                 "band_stable_cliques"):
        out[f"complexes.{name}.self_s"] = r[f"complexes.{name}.self_s"]
    out["complexes.kept_ratio"] = _ratio(r["complexes.bending_route_universe.size"],
                                         r["complexes.filter_input"])
    out["complexes.cliques_found"] = (r["complexes.maximal_cliques.size"]
                                      + r["complexes.maximal_bundles.size"]
                                      + r["complexes.band_stable_cliques.size"])
    out["flows.trace_steps"] = r["flows.trace_interval.size"]
    out["flows.useful_trace_ratio"] = _ratio(r["flows.useful_trails"],
                                             r["flows.trace_interval.calls"])
    out["dag.trace_steps"] = r["dag.dag_trace_interval.size"]
    out["cli.main.self_s"] = r["cli.main.self_s"]
    out["cli.payload_bytes"] = r["cli.payload_bytes"]
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith("_bytes"):
        return "B"
    return "count"


# -- entry point -------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one variant of each light slot only (self-test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "gentleflow" / "cli.py").is_file():
        print(f"error: {root} is not a gentleflow checkout (no src/gentleflow/cli.py)",
              file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    load_start = os.getloadavg()
    plan = workloads.build(args.workload, args.seed, reference, tiny=args.tiny)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, text in plan.files.items():
            (work / name).write_text(text)
        runner = Runner(root, work, reference, args.seed)
        runner.warm_up()
        deadline = time.monotonic() + args.seconds
        passes: list[list[Execution]] = []
        traced: list[Execution] = []
        while True:
            t0 = time.monotonic()
            passes.append(run_pass(runner, plan.commands, trace=False))
            if args.trace:
                traced = run_pass(runner, plan.commands, trace=True)
                break
            if time.monotonic() + (time.monotonic() - t0) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = [ex for p in passes for ex in p] + traced
    metrics = end_to_end(passes)
    if args.trace:
        untraced_wall = metrics["wall_s"]
        metrics = {name: int(v) if unit_of(name) in ("count", "B") else v
                   for name, v in per_layer(traced).items()}
        metrics["trace.wall_s"] = sum(ex.wall_s * ex.speed for ex in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
        write_spans(root, args, plan.commands, traced)
    failed = [ex for ex in every if ex.failure is not None]
    correct = all(is_known_defect(plan.commands[ex.index], ex) for ex in failed)

    print(f"workload {args.workload}, seed {args.seed}: {len(plan.commands)} commands, "
          f"{len(passes)} untraced pass(es){', 1 traced pass' if args.trace else ''}, "
          f"{len(every)} command runs")
    print(f"environment: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"load average {' '.join(f'{x:.2f}' for x in load_start)} at start, "
          f"{' '.join(f'{x:.2f}' for x in os.getloadavg())} at end")
    untraced = [ex for p in passes for ex in p]
    loops = [ex.calibration for ex in untraced]
    print(f"machine speed: calibration loop median {1000 * statistics.median(loops):.3f} ms "
          f"(reference {1000 * REFERENCE_LOOP_S:.3f} ms), min {1000 * min(loops):.3f}, "
          f"max {1000 * max(loops):.3f}; unscaled wall_s = "
          f"{sum(ex.wall_s for ex in untraced) / len(passes)} s")
    for ex in failed:
        cmd = plan.commands[ex.index]
        tag = f" (known defect: {cmd.known_defect})" if is_known_defect(cmd, ex) else ""
        print(f"FAILED: gentleflow {cmd.key}: {ex.failure}{tag}")
    print(f"failed_ratio = {len(failed) / len(every):.6f} ({len(failed)}/{len(every)})")
    for name, value in metrics.items():
        print(f"{name} = {value} {unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def write_spans(root: Path, args, commands, traced: list[Execution]) -> None:
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        for ex in traced:
            if ex.trace is None:
                continue
            command = commands[ex.index].key
            for sid, name, t0, t1, parent, self_s, size in ex.trace["spans"]:
                fh.write(json.dumps({"cmd": ex.index, "command": command, "id": sid,
                                     "name": name, "start": t0, "end": t1, "parent": parent,
                                     "self_s": self_s, "size": size}) + "\n")
            for name, parent, calls, total, self_s in ex.trace["rollups"]:
                fh.write(json.dumps({"cmd": ex.index, "command": command, "rollup": name,
                                     "parent": parent, "calls": calls, "total_s": total,
                                     "self_s": self_s}) + "\n")


if __name__ == "__main__":
    sys.exit(main())

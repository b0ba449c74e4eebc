"""Run every workload over a range of seeds and store the results.

    python3 perfbench/baseline.py [--seeds 1-10] [--out perfbench/baseline.json]

From the root of the checkout.  For each workload and seed, runs
`run.py --trace 0` with BENCHMARK.json's run_seconds and keeps its result
and environment line (Python version, nproc, load average at start and
end), and how long the run took.  Per metric it stores the median, the quartiles and the spread
(interquartile range over median), so a later change can be compared
against this trajectory on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        runs = []
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", w["name"],
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            env = next(line for line in lines if line.startswith("environment:"))
            runs.append({"seed": seed, "elapsed_s": round(time.monotonic() - t0, 1),
                         "environment": env, **json.loads(lines[-1])})
            print(w["name"], seed, lines[-1], flush=True)
        names = runs[0]["metrics"]
        out["workloads"][w["name"]] = {
            "metrics": {m: {"unit": runs[0]["metrics"][m]["unit"],
                            **summary([r["metrics"][m]["value"] for r in runs])}
                        for m in names},
            "runs": runs,
        }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's tiny runs (perfbench/run.py --tiny) check every payload
against the digests recorded in perfbench/reference.json, so a change that
alters a report fails here, not only in a timed benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["flow-decompose", "clique-search", "structure-reports"])
def test_tiny_benchmark_payloads_match_the_reference(workload):
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                          "--seconds", "0", "--tiny"], cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.splitlines()[-1])
    assert summary["correct"] is True, run.stdout
    assert summary["failed"] == 0, run.stdout


def test_traced_tiny_run_counts_trace_calls_and_steps():
    # --trace 1 wraps flows.trace_interval and reads len(mt.walk) of every
    # marked trail it returns: seed 1's tiny run makes 24 probes of 153
    # steps in all.
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flow-decompose", "--seed", "1",
                          "--seconds", "0", "--tiny", "--trace", "1"], cwd=ROOT, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.splitlines()[-1])
    assert summary["correct"] is True, run.stdout
    assert summary["failed"] == 0, run.stdout
    assert summary["metrics"]["flows.trace_interval.calls"]["value"] == 24
    assert summary["metrics"]["flows.trace_steps"]["value"] == 153


def test_traced_tiny_clique_search_reaches_the_search_hooks():
    # --trace 1 wraps complexes.bending_route_universe and the searches by
    # name: the traced clique search must still pass through them
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "clique-search", "--seed", "1",
                          "--seconds", "0", "--tiny", "--trace", "1"], cwd=ROOT, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.splitlines()[-1])
    assert summary["correct"] is True, run.stdout
    assert summary["metrics"]["complexes.cliques_found"]["value"] > 0
    assert summary["metrics"]["complexes.bending_route_universe.self_s"]["value"] > 0

"""Smoke test of the benchmark on a tiny corpus.

    python3 perfbench/smoke_test.py

Runs every workload for a handful of queries with tracing off and on,
and checks that the result line carries exactly the metrics
BENCHMARK.json lists, that the hand-picked DAG-shaped sequent shows up
as a failure, and that the benchmark refuses to run without the
program's sources.  Exits nonzero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import corpus  # noqa: E402


def fail(message: str) -> None:
    print(f"smoke test failed: {message}", file=sys.stderr)
    sys.exit(1)


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_evaluator() -> None:
    """Excluded middle fails four-valued but holds three-valued; Peirce's
    law and the connexive theses hold in both."""
    if not corpus.refuted((), corpus.LEM, t_or_f=False) or corpus.refuted((), corpus.LEM, t_or_f=True):
        fail("evaluator on excluded middle")
    for f in (corpus.PEIRCE, *corpus.THESES):
        if corpus.refuted((), f, t_or_f=False):
            fail(f"evaluator refutes {corpus.text(f)}")


def check_screened() -> None:
    """The screened list names entries of the pools, for the deadline in
    force; otherwise perfbench/screen.py has to be run again."""
    import workloads

    screened = json.loads(corpus.SCREENED.read_text())
    if screened["deadline_s"] != workloads.DEADLINE_S:
        fail(f"screened.json is for a {screened['deadline_s']} s deadline, not {workloads.DEADLINE_S} s")
    for name, keys in screened["excluded"].items():
        pool = {k for part in corpus.pool_keys(name) for k in part}
        if not set(keys) <= pool:
            fail(f"screened.json names {name} entries outside the pools")


def check_runs(spec: dict) -> None:
    wanted = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, "--workload", workload, "--trace", str(trace), "--max-queries", "6")
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-400:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: {lines[-1]}")
            if sorted(result["metrics"]) != sorted(wanted[trace]):
                fail(f"{workload} trace={trace}: metrics {sorted(result['metrics'])}")
            if workload == "prove" and "proof shared as a DAG" not in proc.stdout:
                fail("the DAG-shaped sequent is not reported among the failures")


def check_bare_directory(spec: dict) -> None:
    """Without the program's sources the benchmark exits nonzero and
    prints no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run(bare, "--workload", "matrix", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip().startswith("{"):
            fail("ran without the program's sources")
    finally:
        shutil.rmtree(bare)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_evaluator()
    check_screened()
    check_runs(spec)
    check_bare_directory(spec)
    print("smoke test passed")


if __name__ == "__main__":
    main()

"""Benchmark of the connexive toolkit: seeded workloads through the public
API, end-to-end metrics with tracing off, per-layer metrics with it on.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 1 when any output fails its correctness check, 2 when the
program's sources are not there.  `--workload all` runs every workload
in a fresh interpreter and prints a table of all metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("prove", "matrix", "normalize")
SETUP_SAMPLES = 3  # fresh-interpreter imports before each pass
# Set and dict order inside the program, and with it the order and cost
# of its search, follow the string hash seed; one fixed seed for every
# run takes that source of spread out of the figures.
HASH_SEED = "0"
# Calibration: a fixed pure-Python kernel that does not touch the program
# (the benchmark's own four-valued evaluator on fixed sequents), timed
# every CAL_EVERY_S seconds between queries.  Times of a pass are scaled
# by REF_S over the median kernel time of that pass, so they read as
# times on a host where the kernel takes REF_S.  On a shared host the
# speed of all Python code drifts by tens of percent over minutes; the
# kernel drifts with it, and the program's own changes do not move it.
CAL_EVERY_S = 0.1
CAL_INPUTS = 10
REF_S = 1e-3
END_TO_END_UNITS = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing connexive.cli.  No
    timeout: with one, the wait polls at intervals of up to 50 ms,
    which would quantize the figure."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import connexive.cli"], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   cwd=ROOT, check=True)
    return time.perf_counter() - t0


class Calibrator:
    """Kernel samples, each the second of two back-to-back runs with the
    collector off, so that neither the caches the program left behind
    nor a collection of its objects lands in the timing."""

    def __init__(self):
        import corpus

        rng = random.Random("calibration")
        self.inputs = [corpus.rand_sequent(rng, 14, 2) for _ in range(CAL_INPUTS)]
        self.refuted = corpus.refuted
        self.samples = []
        self.last = -math.inf

    def tick(self) -> None:
        if time.perf_counter() - self.last < CAL_EVERY_S:
            return
        gc.disable()
        try:
            for _ in range(2):
                t0 = time.perf_counter()
                for ctx, suc in self.inputs:
                    self.refuted(ctx, suc, False)
                spent = time.perf_counter() - t0
        finally:
            gc.enable()
        self.samples.append(spent)
        self.last = time.perf_counter()


def run_pass(workload, queries, tracer=None, stop=None, calibrator=None) -> list:
    """One closed-loop pass, one query at a time, each checked after its
    timing ends.  With `stop`, the pass ends early at that clock time."""
    import workloads

    outcomes = []
    for query in queries:
        if stop is not None and time.perf_counter() >= stop:
            break
        if calibrator is not None:
            calibrator.tick()
        if tracer is not None:
            tracer.begin_query()
        out = workloads.timed(workload.run, query, tracer)
        if tracer is not None:
            tracer.active = False
        if out.status == "ok":
            problem = workload.check(query, out.value)
            if problem is not None:
                out.status = "resource" if problem == workloads.RESOURCE else "wrong"
                out.detail = problem
                out.latency = workloads.DEADLINE_S
        out.value = None
        outcomes.append(out)
    return outcomes


def best_of(passes: list, n: int) -> list:
    """Per query, its fastest run across the passes that reached it.  A
    query fails when every run failed, and is wrong when any run gave a
    wrong output."""
    best = []
    for i in range(n):
        runs = [p[i] for p in passes if i < len(p)]
        wrong = [o for o in runs if o.status == "wrong"]
        ok = [o for o in runs if o.status == "ok"]
        best.append(wrong[0] if wrong else min(ok or runs, key=lambda o: o.spent))
    return best


def percentile(ordered: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics, weighted by the Beta(p(n+1), (1-p)(n+1)) mass of their
    slot.  Unlike a single order statistic it moves smoothly when the
    inputs shift by a rank, which matters in a sparse, heavy tail."""
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 16  # Simpson's rule over each slot [i/n, (i+1)/n]
    h = 1 / (n * steps)
    total = weights = 0.0
    for i, value in enumerate(ordered):
        x = i / n
        w = density(x) + density(x + steps * h)
        w += sum((4 if k % 2 else 2) * density(x + k * h) for k in range(1, steps))
        total += w * value
        weights += w
    return total / weights


def end_to_end(passes: list, kernels: list) -> dict[str, float]:
    """Each query at the median of its runs over the complete passes, the
    times of every pass scaled to the reference kernel time."""
    scales = [REF_S / k for k in kernels]
    queries = range(len(passes[0]))
    latencies = sorted(statistics.median(p[i].latency * s for p, s in zip(passes, scales)) for i in queries)
    spent = sum(statistics.median(p[i].spent * s for p, s in zip(passes, scales)) for i in queries)
    return {
        "throughput_qps": len(latencies) / spent,
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p95_ms": percentile(latencies, 0.95) * 1e3,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, max_queries: int | None) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    workload = workloads.WORKLOADS[name]
    queries = workload.queries(seed)[:max_queries]
    workloads.install_deadline()
    # Every pass runs the whole corpus, and passes repeat until `seconds`
    # have passed; the last may stop part way and is left out of the
    # figures.  Each query counts at the median of its runs in the
    # complete passes, in reference kernel time; set-up is sampled
    # before every pass.  A query fails when it failed in every pass.
    stop = time.perf_counter() + seconds
    if trace:
        import spans

        # untraced and traced passes alternate, the wrappers installed only
        # for the traced ones, so that those bear all of the tracing cost
        tracer = spans.Tracer()
        untraced, traced = [], []
        while not traced or time.perf_counter() < stop:
            untraced.append(run_pass(workload, queries))
            tracer.install()
            workloads.TIMER.on_deadline = tracer.on_deadline
            traced.append(run_pass(workload, queries, tracer))
            tracer.uninstall()
            workloads.TIMER.on_deadline = None
        spans.report_missing(tracer)
        runs = len(queries) * len(traced)
        overhead = sum(o.spent for p in traced for o in p) - sum(o.spent for p in untraced for o in p)
        metrics = tracer.metrics(runs, overhead)
        units = spans.METRICS
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"trace-{name}-seed{seed}.tsv.gz"))
        passes = untraced + traced
        outcomes = best_of(untraced, len(queries))
    else:
        setup_sample()  # leaves the bytecode cache warm
        calibrator = Calibrator()
        setup, passes, kernels = [], [], []
        while not passes or time.perf_counter() < stop:
            setup += [setup_sample() for _ in range(SETUP_SAMPLES)]
            first = len(calibrator.samples)
            passes.append(run_pass(workload, queries, stop=stop if passes else None, calibrator=calibrator))
            kernels.append(calibrator.samples[first:])
            if len(passes) == 1:
                # after one pass over the corpus: a query cut off by the
                # deadline leaves a peak that depends on how far it got,
                # so more passes would only raise it by chance
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes = best_of(passes, len(queries))
        complete = [i for i, p in enumerate(passes) if len(p) == len(queries)]
        metrics = end_to_end([passes[i] for i in complete], [statistics.median(kernels[i]) for i in complete])
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["setup_s"] = statistics.median(setup)
        units = END_TO_END_UNITS
        kernel = statistics.median(calibrator.samples)
        print(f"calibration kernel: median {kernel * 1e3:.3f} ms over {len(calibrator.samples)} samples; "
              f"times read as on a host where it takes {REF_S * 1e3:g} ms")
        print(f"latency percentiles over {len(queries)} samples, each the median of its runs in the "
              f"{len(complete)} complete passes; a failure counts at the {workloads.DEADLINE_S} s deadline")
    wrong = sum(1 for p in passes for o in p if o.status == "wrong")
    failed = [(q, o) for q, o in zip(queries, outcomes) if o.status != "ok"]
    print(f"{name}: seed {seed}, {len(queries)} queries, {len(passes)} passes, {len(failed)} failed, {wrong} wrong runs")
    for query, o in failed[:20]:
        print(f"  failed ({o.status}: {o.detail[:160]}): {workload.describe(query)[:200]}")
    result = {
        "correct": wrong == 0,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


def run_all(args) -> int:
    """Every workload in a fresh interpreter, then one table."""
    status = 0
    rows = []
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.max_queries:
            cmd += ["--max-queries", str(args.max_queries)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            status = max(status, proc.returncode)
        if not lines or not lines[-1].startswith("{"):
            status = status or 1
            continue
        result = json.loads(lines[-1])
        metrics = dict(result["metrics"])
        if not args.trace:
            metrics["fail_rate"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        rows.append((name, result, metrics))
    for name, result, metrics in rows:
        print(f"\n[{name}] correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for key, m in metrics.items():
            print(f"  {key:36s} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-queries", type=int, default=None, help="use only the first N queries (smoke test)")
    args = ap.parse_args(argv)
    if not (SRC / "connexive" / "__init__.py").is_file():
        print(f"error: the connexive sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.max_queries)


if __name__ == "__main__":
    sys.exit(main())

"""Re-derive perfbench/screened.json: the library and reserve entries whose
time to a result lies near the per-query deadline.

    python3 perfbench/screen.py [--rounds 3]

Run it from the repository root, on an otherwise idle host.  It runs
every library and reserve entry of every workload `--rounds` times,
under a deadline of BAND times the benchmark's own, with the benchmark's
hash seed.  An entry stays in the corpus when all of its runs took less
than the deadline / BAND, or when none of them took less than the
deadline * BAND; every other entry is listed as excluded.  Such an entry
meets the deadline on some runs and misses it on others, so it would
make the failure count of a run follow the host's load rather than the
program.  Entries that stay in clear of the deadline keep a margin of
BAND against a host that runs slower or faster than this one did.  The
hand-picked rows are never excluded; one that lands in the band is
reported on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BAND = 3.0


def screen(name: str, rounds: int) -> tuple[list, int]:
    """(excluded keys, number of entries kept as clear failures)"""
    import corpus
    import workloads

    workload = workloads.WORKLOADS[name]
    keys = [k for part in corpus.pool_keys(name) for k in part]
    queries = [workload.query(corpus.make_item(name, k)) for k in keys]
    deadline = workloads.DEADLINE_S
    lo, hi = deadline / BAND, deadline * BAND
    times = [[] for _ in keys]
    workloads.DEADLINE_S = hi
    try:
        for _ in range(rounds):
            for query, seen in zip(queries, times):
                out = workloads.timed(workload.run, query)
                if out.status == "ok" and workload.check(query, out.value) not in (None, workloads.RESOURCE):
                    sys.exit(f"wrong output on {workload.describe(query)}")
                seen.append(out.spent)
        hand = {"prove": corpus.PROVE_HAND_ROWS, "matrix": corpus.MATRIX_HAND_ROWS}.get(name, ())
        for item in hand:
            query = workload.query(item)
            spent = min(workloads.timed(workload.run, query).spent for _ in range(rounds))
            if lo <= spent < hi:
                print(f"hand-picked row near the deadline ({spent:.3f} s): {workload.describe(query)}", file=sys.stderr)
    finally:
        workloads.DEADLINE_S = deadline
    excluded = [k for k, seen in zip(keys, times) if not (max(seen) < lo or min(seen) >= hi)]
    past = sum(1 for seen in times if min(seen) >= hi)
    return excluded, past


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(SRC), str(HERE)]
    import run

    if os.environ.get("PYTHONHASHSEED") != run.HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": run.HASH_SEED})
    import corpus
    import workloads

    workloads.install_deadline()
    result = {
        "deadline_s": workloads.DEADLINE_S,
        "band": BAND,
        "rounds": args.rounds,
        "python": sys.version.split()[0],
        "past_deadline": {},
        "excluded": {},
    }
    for name in run.NAMES:
        excluded, past = screen(name, args.rounds)
        result["excluded"][name] = excluded
        result["past_deadline"][name] = past
        print(f"{name}: {len(excluded)} excluded, {past} kept past the deadline", file=sys.stderr)
    corpus.SCREENED.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

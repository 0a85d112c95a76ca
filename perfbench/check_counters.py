"""Check that the per-layer counters are exact: two traced runs must agree.

Usage, from the root of a checkout::

    python3 perfbench/check_counters.py --workload fleet-serve --seed 42

Runs ``child.py --trace 1`` twice, side by side, each in a fresh interpreter, and
compares every counter that must repeat exactly (work counts, cache
lookups and misses, replayed spans, violations).  Exits 1 on any
difference; timings are not compared.
"""

from __future__ import annotations

import argparse
import sys
import time

from child import EXACT
from run import DEADLINE_S, _result, _start
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    run = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1",
    ]
    deadline = time.monotonic() + DEADLINE_S
    procs = [_start(run), _start(run)]
    try:
        first, second = (_result(proc, deadline)["layers"] for proc in procs)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    differ = [name for name in EXACT if first[name] != second[name]]
    for name in EXACT:
        mark = "DIFFERS" if name in differ else "same"
        print(f"{name:28s} {first[name]!s:>12} {second[name]!s:>12}  {mark}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

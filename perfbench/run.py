"""Simulator benchmark: host throughput, set-up, memory and paper error.

Run from the root of a checkout::

    python3 perfbench/run.py --workload offline-sweep --seed 42 --seconds 20 --trace 0

Every workload runs in a fresh interpreter (``child.py``) with the
checkout's ``src`` on ``PYTHONPATH`` and BLAS/OpenMP threads capped at one,
so that the workloads stay single-threaded and side-by-side children never
oversubscribe the CPUs.  With ``--trace 0`` a second fresh interpreter
sets up alongside the measured one (after it on a single CPU), the
measured one starts its passes only once that one has exited, and
``setup_s`` is the median of the two set-ups; the end-to-end metrics are
printed as a table, then as one JSON object on the last line.  With
``--trace 1`` the per-layer metrics are printed instead, and the spans
are written to ``.perfbench_out/``.
See ``perfbench/README.md`` for how to read the two together.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probes import PER_LAYER
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DEADLINE_S = 170.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _start(args: list[str], hold: bool = False) -> subprocess.Popen:
    """Start ``child.py``; with ``hold`` it waits for a line on stdin after set-up."""
    return subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args, *(["--hold"] if hold else [])],
        cwd=ROOT,
        env=_child_env(),
        stdin=subprocess.PIPE if hold else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )


def _result(proc: subprocess.Popen, deadline: float, go: bool = False) -> dict:
    """The JSON object a child printed as its last line; ``go`` releases a held child."""
    timeout = max(deadline - time.monotonic(), 0.0)
    stdout, _ = proc.communicate(input="go\n" if go else None, timeout=timeout)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {' '.join(proc.args[2:])} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _end_to_end(child: dict, setup_samples: list[float]) -> tuple[dict, list[tuple]]:
    """The gated metrics, plus a table of everything by name and unit."""
    ok = [p for p in child["passes"] if not p["failed"]]
    rates = [p["iterations"] / p["host_s"] for p in ok]
    q1, median, q3 = _quartiles(rates)
    metrics = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "sim_iters_per_s": {"value": median, "unit": "iter/s"},
        "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MiB"},
    }
    attempted = len(child["passes"])
    failed = attempted - len(ok)
    table = [(name, m["value"], m["unit"], "gated") for name, m in metrics.items()]
    table.append(("sim_iters_per_s.q1", q1, "iter/s", f"{len(ok)} passes"))
    table.append(("sim_iters_per_s.q3", q3, "iter/s", f"{len(ok)} passes"))
    table.append(("error_rate", failed / attempted, "ratio", f"{failed}/{attempted} failed"))
    units = {
        "paper_err": "ratio",
        "sim_ttft_p50_s": "s",
        "sim_ttft_p95_s": "s",
        "sim_tbt_p95_s": "s",
        "sim_goodput_rps": "req/s",
        "sim_j_per_token": "J/token",
    }
    for name, value in child["sim"].items():
        table.append((name, value, units[name], "simulated"))
    return metrics, table


def _per_layer(child: dict) -> tuple[dict, list[tuple]]:
    metrics = {}
    table = []
    for name, unit, _ in PER_LAYER:
        value = child["layers"][name]
        metrics[name] = {"value": value, "unit": unit}
        table.append((name, value, unit, ""))
    return metrics, table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run raises here, so subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    run = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        run += ["--spans-out", str(OUT_DIR / f"{args.workload}.spans.npz")]
    procs = []
    setup_samples = []
    try:
        if args.trace:
            procs.append(_start(run))
            child = _result(procs[-1], deadline)
        else:
            procs.append(_start(base + ["--setup-only"]))
            if len(os.sched_getaffinity(0)) < 2:
                setup_samples.append(_result(procs[-1], deadline)["setup_s"])
            procs.append(_start(run, hold=True))
            if not setup_samples:
                setup_samples.append(_result(procs[0], deadline)["setup_s"])
            child = _result(procs[-1], deadline, go=True)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    setup_samples.append(child["setup_s"])

    if not any(not p["failed"] for p in child["passes"]):
        print("error: every pass failed", file=sys.stderr)
        for problem in child["problems"]:
            print(problem, file=sys.stderr)
        return 1
    if args.trace:
        metrics, table = _per_layer(child)
    else:
        metrics, table = _end_to_end(child, setup_samples)
    for problem in child["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)

    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, value, unit, note in table:
        print(f"  {name:28s} {value:14.6g} {unit:8s} {note}")
    attempted = len(child["passes"])
    failed = sum(p["failed"] for p in child["passes"])
    print(
        json.dumps(
            {
                "correct": failed == 0 and not child["problems"],
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

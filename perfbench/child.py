"""One workload in a fresh interpreter: set up, time passes, check outputs.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; prints one JSON object as its last line of standard output.

* ``--setup-only`` imports ``repro``, builds the workload's plans and
  reports the set-up time.
* Otherwise the child times passes for ``--seconds`` (at least three),
  then runs the output checks outside the timed region.
* ``--hold`` waits for a line on stdin between set-up and the passes, so
  that a set-up running alongside can finish before timing starts.
* ``--trace 1`` installs the span probes before set-up and alternates
  untraced and traced passes, so per-layer numbers and the tracing
  overhead come from one process.  Spans are written to ``--spans-out``.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from probes import PER_LAYER, Probes  # noqa: E402

MIN_PASSES = 3


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--hold", action="store_true")
    parser.add_argument("--spans-out", default=None)
    return parser.parse_args()


def _timed_pass(workload):
    start = perf_counter()
    outputs = workload.run_pass()
    host_s = perf_counter() - start
    return workload.summarize(outputs), host_s


def main() -> int:
    args = _parse()
    import repro
    from workloads import WORKLOADS

    checkout_src = Path(__file__).resolve().parents[1] / "src"
    if not Path(repro.__file__).resolve().is_relative_to(checkout_src):
        raise RuntimeError(f"repro imported from {repro.__file__}, not {checkout_src}")

    probes = None
    if args.trace:
        probes = Probes()
        probes.install()
        setup_mark = probes.window()
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.hold and not sys.stdin.readline():
        raise RuntimeError("released without a line: the parent has gone")

    out = {"setup_s": setup_s, "passes": [], "problems": []}
    if probes is not None:
        setup_layers = probes.since(setup_mark)
        traced_layers = []

    first = None
    digests = set()
    start = perf_counter()
    while len(out["passes"]) < MIN_PASSES or perf_counter() - start < args.seconds:
        traced = probes is not None and len(out["passes"]) % 2 == 1
        if probes is not None and not traced:
            probes.uninstall()
        mark = probes.window() if traced else None
        try:
            result, host_s = _timed_pass(workload)
        except Exception:  # a raising pass is a failed operation
            out["passes"].append({"failed": True, "traced": traced})
            out["problems"].append(traceback.format_exc(limit=3))
            continue
        finally:
            if probes is not None and not traced:
                probes.install()
        if traced:
            layers = probes.since(mark)
            layers["trace.unattributed_s"] = host_s - layers["trace.self_s"]
            traced_layers.append(layers)
        out["passes"].append(
            {
                "host_s": host_s,
                "iterations": result.iterations,
                "traced": traced,
                "failed": bool(result.problems),
            }
        )
        out["problems"].extend(result.problems)
        digests.add(result.digest)
        if first is None:
            first, first_record = result, out["passes"][-1]
        else:
            result.evidence = None

    # -- output checks, outside the timed region --------------------------------
    check_mark = probes.window() if probes is not None else None
    if first is not None:
        problems = workload.check(first)
        if problems:
            out["problems"].extend(problems)
            first_record["failed"] = True
    if len(digests) > 1:
        out["problems"].append(f"passes on one seed disagree: {len(digests)} digests")
        for p in out["passes"]:
            p["failed"] = True
    out["sim"] = first.sim if first is not None else {}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if probes is not None:
        checks = probes.since(check_mark)
        out["layers"] = _layer_summary(setup_layers, traced_layers, checks, out)
        if args.spans_out:
            probes.log.save(args.spans_out)
        probes.uninstall()
    print(json.dumps(out))
    return 0


# Counters that must repeat exactly between passes and between runs.
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


def _layer_summary(setup_layers, traced_layers, checks, out) -> dict:
    """Per-layer metrics: set-up once, medians over traced passes, checks.

    Output checks that run outside the timed region (``checks``) add to
    the ``check.*`` metrics of a pass.
    """
    summary = {}
    for name, _, _ in PER_LAYER:
        if name.startswith("setup."):
            summary[name] = setup_layers[name]
        elif name in EXACT:
            values = {layers[name] for layers in traced_layers}
            if len(values) > 1:
                out["problems"].append(f"counter {name} differs between passes: {sorted(values)}")
            summary[name] = traced_layers[0][name]
        elif name in traced_layers[0]:
            summary[name] = statistics.median(layers[name] for layers in traced_layers)
    summary["check.validate_s"] += checks["check.validate_s"]
    summary["check.violations"] += checks["check.violations"]
    ok = [p for p in out["passes"] if not p["failed"]]
    rate = {
        traced: statistics.median(
            p["iterations"] / p["host_s"] for p in ok if p["traced"] == traced
        )
        for traced in (False, True)
    }
    summary["trace.overhead"] = rate[False] / rate[True] - 1.0
    return summary


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)

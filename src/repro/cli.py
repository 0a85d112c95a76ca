"""Command-line interface.

Subcommands::

    repro models                         list model presets
    repro machines                       list machine presets
    repro simulate  --model opt-30b --machine pc-high [--engine powerinfer]
                                         simulate one request end to end
    repro compare   --model opt-30b --machine pc-high
                                         tokens/s of every engine that fits
    repro plan      --model opt-30b --machine pc-high --out plan.npz
                                         run the offline phase, save the plan
    repro figure    fig05 [...]          regenerate one paper figure/table
    repro chaos     --model opt-6.7b --machine pc-low [--fault-seed 7]
                                         serve under injected faults, naive
                                         vs degradation-aware side by side
    repro fleet     [--policy least-loaded] [--no-failover] [--disaggregate]
                                         run the canonical 3-replica fleet
                                         chaos scenario, validate it, and
                                         optionally export trace/summary
                                         (--deep-trace/--alerts/--timeseries
                                         turn on fleet-wide observability)
    repro explain-request 9 [--format json] [--json out.json]
                                         replay the fleet scenario and
                                         reconstruct one request's causal
                                         timeline across replicas, with
                                         cumulative fleet joules per entry
    repro energy    [--model opt-6.7b --machine pc-low] [--whatif]
                                         J/token, watts, and gCO2 per
                                         engine for one request shape;
                                         --fleet meters the chaos fleet
                                         scenario and reconciles the
                                         ledger against the power meter
    repro trace     --model opt-6.7b --machine pc-low --out run.trace.json
                                         serve one traced stream and export a
                                         Chrome trace / JSONL / timeline PNG
    repro attribution --model opt-6.7b --machine pc-low
                                         decompose one iteration: roofline
                                         components, critical path, what-if
                                         knob sensitivity
    repro bench-baseline [--quick] [--out BENCH_baseline.json]
                                         record the canonical benchmark suite
    repro bench-check [--tolerance 0.05] [--report diff.json]
                                         re-run the suite, diff against the
                                         committed baseline, exit non-zero on
                                         regression
    repro lint [paths ...] [--format json] [--out report.json]
                                         static simulation-discipline lint
                                         (custom AST rules over src/repro)
    repro check-flow [paths ...] [--rules ...] [--format json] [--out report.json]
                                         interprocedural units/dimension and
                                         seed-provenance analysis
    repro verify-schedule [--quick] [--format json] [--out report.json]
                                         replay bench-suite schedules against
                                         the simulator invariants
    repro check [paths ...] [--json-out report.json] [--skip-verify] [--full]
                                         umbrella: lint + check-flow +
                                         verify-schedule, one merged report

The four check commands build one :class:`~repro.check.report.CheckReport`
from the tools they name and print it the same way (one JSON schema;
exit 0 clean, 1 violations, 2 usage error).  Every file a command writes
goes through one artifact writer, which notes ``wrote <paths>`` on stderr
so that stdout stays the command's report.

Also runnable as ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro.bench import (
    run_ablation_impact_weighting,
    run_ablation_predictor_budget,
    run_ablation_selective_sync,
    run_ablation_solver_batching,
    run_ablation_sync_overhead,
    run_continuous_batching,
    run_fig04,
    run_fig05,
    run_fig06,
    run_fig09_modeled,
    run_fig09_trained,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
    run_fig16_measured,
    run_fig16_modeled,
    run_fig17,
    run_fault_tolerance,
    run_fig18,
    run_prompt_heavy,
    run_table2,
)
from repro.bench.report import format_table
from repro.bench.runner import ENGINE_CLASSES, make_engine
from repro.core.pipeline import POLICIES, build_plan
from repro.engine.plan_io import save_plan
from repro.hardware.memory import OutOfMemoryError
from repro.hardware.spec import MACHINE_PRESETS
from repro.models.config import MODEL_PRESETS
from repro.quant.formats import DTYPE_PRESETS
from repro.serving.fleet.policies import ROUTER_POLICIES

__all__ = ["main", "FIGURES"]

FIGURES: dict[str, Callable[[], list[dict]]] = {
    "fig04": run_fig04,
    "fig05": run_fig05,
    "fig06": run_fig06,
    "fig09-trained": run_fig09_trained,
    "fig09-modeled": run_fig09_modeled,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "fig15": run_fig15,
    "fig16-modeled": run_fig16_modeled,
    "fig16-measured": run_fig16_measured,
    "fig17": run_fig17,
    "fig18": run_fig18,
    "table2": run_table2,
    "ablation-sync": run_ablation_sync_overhead,
    "ablation-selective-sync": run_ablation_selective_sync,
    "ablation-predictor-budget": run_ablation_predictor_budget,
    "ablation-solver-batching": run_ablation_solver_batching,
    "ablation-impact-weighting": run_ablation_impact_weighting,
    "ablation-prompt-heavy": run_prompt_heavy,
    "continuous-batching": run_continuous_batching,
    "fault-tolerance": run_fault_tolerance,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PowerInfer (SOSP 2024) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list model presets")
    sub.add_parser("machines", help="list machine presets")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True, choices=sorted(MODEL_PRESETS))
        p.add_argument("--machine", required=True, choices=sorted(MACHINE_PRESETS))
        p.add_argument("--dtype", default="fp16", choices=sorted(DTYPE_PRESETS))
        p.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser("simulate", help="simulate one request")
    add_common(sim)
    sim.add_argument("--engine", default="powerinfer", choices=sorted(ENGINE_CLASSES))
    sim.add_argument("--input", type=int, default=64, dest="input_len")
    sim.add_argument("--output", type=int, default=128, dest="output_len")
    sim.add_argument("--batch", type=int, default=1)

    cmp_ = sub.add_parser("compare", help="compare all engines on one request")
    add_common(cmp_)
    cmp_.add_argument("--input", type=int, default=64, dest="input_len")
    cmp_.add_argument("--output", type=int, default=128, dest="output_len")

    plan = sub.add_parser("plan", help="run the offline phase and save the plan")
    add_common(plan)
    plan.add_argument("--policy", default="ilp", choices=POLICIES)
    plan.add_argument("--out", required=True, help="output .npz path")

    fig = sub.add_parser("figure", help="regenerate one paper figure/table")
    fig.add_argument("name", choices=sorted(FIGURES))

    serve = sub.add_parser("serve", help="simulate a Poisson request stream")
    add_common(serve)
    serve.add_argument("--engine", default="powerinfer", choices=sorted(ENGINE_CLASSES))
    serve.add_argument("--rate", type=float, default=0.1, help="requests/second")
    serve.add_argument("--requests", type=int, default=30)
    serve.add_argument(
        "--mode",
        default="fcfs",
        choices=("fcfs", "batched", "continuous"),
        help="scheduling granularity: whole-request FCFS, static padded "
        "batches, or iteration-level continuous batching",
    )
    serve.add_argument("--max-batch", type=int, default=8, dest="max_batch")
    serve.add_argument(
        "--scheduler",
        default="fcfs",
        choices=("fcfs", "prefill-first", "chunked"),
        help="continuous-batching iteration policy",
    )
    serve.add_argument(
        "--chunk-tokens",
        type=int,
        default=64,
        dest="chunk_tokens",
        help="per-iteration prompt-token cap for --scheduler chunked",
    )
    serve.add_argument(
        "--kv-gib",
        type=float,
        default=0.5,
        dest="kv_gib",
        help="GPU memory carved out for KV cache (continuous mode)",
    )
    serve.add_argument("--slo-ttft", type=float, default=2.0, dest="slo_ttft")
    serve.add_argument("--slo-tbt", type=float, default=1.0, dest="slo_tbt")

    chaos = sub.add_parser(
        "chaos",
        help="serve a stream under injected faults, naive vs degradation-aware",
    )
    add_common(chaos)
    chaos.add_argument("--engine", default="powerinfer", choices=sorted(ENGINE_CLASSES))
    chaos.add_argument("--rate", type=float, default=0.9, help="requests/second")
    chaos.add_argument("--requests", type=int, default=48)
    chaos.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        dest="fault_seed",
        help="generate a random fault schedule from this seed "
        "(default: the canonical degrade/squeeze/stall timeline)",
    )
    chaos.add_argument(
        "--faults",
        default=None,
        help="JSON file with a fault-event list (see docs/serving.md)",
    )
    chaos.add_argument(
        "--deadline",
        type=float,
        default=12.0,
        help="per-request completion deadline, seconds after arrival",
    )
    chaos.add_argument("--max-batch", type=int, default=8, dest="max_batch")
    chaos.add_argument(
        "--kv-gib",
        type=float,
        default=0.35,
        dest="kv_gib",
        help="GPU memory carved out for the KV-cache admission budget",
    )
    chaos.add_argument("--max-queue", type=int, default=16, dest="max_queue")
    chaos.add_argument("--max-retries", type=int, default=2, dest="max_retries")
    chaos.add_argument("--slo-ttft", type=float, default=6.0, dest="slo_ttft")
    chaos.add_argument("--slo-tbt", type=float, default=0.020, dest="slo_tbt")

    def add_fleet_scenario_flags(p: argparse.ArgumentParser) -> None:
        """Canonical fleet-chaos scenario knobs, shared by every subcommand
        that replays it (``fleet``, ``explain-request``, ``energy --fleet``)."""
        p.add_argument(
            "--policy", default="round-robin", choices=sorted(ROUTER_POLICIES)
        )
        p.add_argument("--requests", type=int, default=48)
        p.add_argument(
            "--sessions",
            type=int,
            default=None,
            help="tag conversation ids 0..N-1 onto the stream (session-affinity)",
        )
        p.add_argument(
            "--no-chaos",
            action="store_true",
            dest="no_chaos",
            help="skip the replica crash (fault-free reference fleet)",
        )
        p.add_argument(
            "--no-failover",
            action="store_true",
            dest="no_failover",
            help="blind-router ablation: keep dispatching to dead replicas",
        )
        p.add_argument(
            "--disaggregate",
            action="store_true",
            help="prefill on the A100 replica, decode on the PCs, KV streamed over",
        )
        p.add_argument(
            "--hedge", action="store_true", help="hedge deadline-critical dispatches"
        )
        p.add_argument(
            "--brownout",
            action="store_true",
            help="shed low-priority arrivals while a replica is detected down",
        )

    fleet = sub.add_parser(
        "fleet",
        help="run the canonical 3-replica fleet chaos scenario and validate it",
    )
    add_fleet_scenario_flags(fleet)
    fleet.add_argument(
        "--trace", default=None, help="write a Chrome trace of the fleet run"
    )
    fleet.add_argument(
        "--summary", default=None, help="write the fleet report JSON"
    )
    fleet.add_argument(
        "--verify-out",
        default=None,
        dest="verify_out",
        help="write the fleet validator verdict as JSON",
    )
    fleet.add_argument(
        "--deep-trace",
        default=None,
        dest="deep_trace",
        help=(
            "write the merged cross-replica Chrome trace (one process lane "
            "per replica plus the router); turns on deep fleet tracing"
        ),
    )
    fleet.add_argument(
        "--alerts",
        default=None,
        help="write the SLO burn-rate alert log as JSON (deep tracing)",
    )
    fleet.add_argument(
        "--timeseries",
        default=None,
        help="write the sampled fleet time-series as JSONL (deep tracing)",
    )

    explain = sub.add_parser(
        "explain-request",
        help=(
            "replay the canonical fleet scenario with deep tracing and "
            "reconstruct one request's cross-replica causal timeline"
        ),
    )
    explain.add_argument("request_id", type=int)
    add_fleet_scenario_flags(explain)
    explain.add_argument(
        "--format",
        default="text",
        choices=("text", "json"),
        help="print the timeline as a log (text) or as the raw JSON document",
    )
    explain.add_argument(
        "--json",
        default=None,
        dest="json_out",
        help="also write the timeline as JSON",
    )

    energy = sub.add_parser(
        "energy",
        help="J/token, average watts, and carbon accounting",
    )
    energy.add_argument("--model", default="opt-6.7b", choices=sorted(MODEL_PRESETS))
    energy.add_argument("--machine", default="pc-low", choices=sorted(MACHINE_PRESETS))
    energy.add_argument("--dtype", default="int4", choices=sorted(DTYPE_PRESETS))
    energy.add_argument("--seed", type=int, default=0)
    energy.add_argument("--input", type=int, default=64, dest="input_len")
    energy.add_argument("--output", type=int, default=128, dest="output_len")
    energy.add_argument("--batch", type=int, default=1)
    energy.add_argument(
        "--carbon-intensity",
        type=float,
        default=None,
        dest="carbon_intensity",
        help="grid carbon intensity in gCO2/kWh (default: 400, the global mean)",
    )
    energy.add_argument(
        "--whatif",
        action="store_true",
        help="also print the perf-per-watt knob sensitivity of a decode iteration",
    )
    energy.add_argument(
        "--fleet",
        action="store_true",
        dest="fleet_mode",
        help="meter the canonical fleet chaos scenario instead of one request",
    )
    add_fleet_scenario_flags(energy)
    energy.add_argument(
        "--json",
        default=None,
        dest="json_out",
        help="also write the energy report as JSON",
    )
    energy.add_argument(
        "--timeseries",
        default=None,
        help="write the sampled watt lanes as JSONL (--fleet only)",
    )

    trace = sub.add_parser(
        "trace",
        help="serve one traced request stream and export the telemetry",
    )
    add_common(trace)
    trace.add_argument("--engine", default="powerinfer", choices=sorted(ENGINE_CLASSES))
    trace.add_argument("--rate", type=float, default=0.9, help="requests/second")
    trace.add_argument("--requests", type=int, default=48)
    trace.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        dest="fault_seed",
        help="generate a random fault schedule from this seed "
        "(default: the canonical degrade/squeeze/stall timeline)",
    )
    trace.add_argument(
        "--faults",
        default=None,
        help="JSON file with a fault-event list (see docs/serving.md); "
        "'none' disables fault injection",
    )
    trace.add_argument(
        "--deadline",
        type=float,
        default=12.0,
        help="per-request completion deadline, seconds after arrival",
    )
    trace.add_argument("--max-batch", type=int, default=8, dest="max_batch")
    trace.add_argument(
        "--kv-gib",
        type=float,
        default=0.35,
        dest="kv_gib",
        help="GPU memory carved out for the KV-cache admission budget",
    )
    trace.add_argument("--max-queue", type=int, default=16, dest="max_queue")
    trace.add_argument("--max-retries", type=int, default=2, dest="max_retries")
    trace.add_argument(
        "--out",
        default="trace.json",
        help="Chrome trace_event JSON output path (open in Perfetto)",
    )
    trace.add_argument(
        "--jsonl",
        default=None,
        help="also write the event log as JSONL (one object per line)",
    )
    trace.add_argument(
        "--png",
        default=None,
        help="also render a timeline/Gantt figure (requires matplotlib)",
    )
    trace.add_argument(
        "--summary",
        default=None,
        help="also write the serving report + telemetry summary as JSON",
    )

    bounds = sub.add_parser("bounds", help="analytic roofline throughput bounds")
    add_common(bounds)

    attr = sub.add_parser(
        "attribution",
        help="attribute one iteration's time: decomposition, critical path, what-if",
    )
    add_common(attr)
    attr.add_argument("--engine", default="powerinfer", choices=sorted(ENGINE_CLASSES))
    attr.add_argument(
        "--ctx", type=int, default=128, help="context length of the decode iteration"
    )
    attr.add_argument("--batch", type=int, default=1)
    attr.add_argument(
        "--group",
        default="device",
        choices=("device", "tag", "layer"),
        help="grouping for the decomposition table",
    )

    bench_base = sub.add_parser(
        "bench-baseline", help="run the canonical suite and write the baseline"
    )
    bench_base.add_argument(
        "--out", default="BENCH_baseline.json", help="baseline JSON output path"
    )
    bench_base.add_argument(
        "--quick", action="store_true", help="small suite (tests / local iteration)"
    )

    bench_check = sub.add_parser(
        "bench-check", help="re-run the suite and diff against the baseline"
    )
    bench_check.add_argument(
        "--baseline", default="BENCH_baseline.json", help="baseline JSON to compare to"
    )
    bench_check.add_argument(
        "--tolerance", type=float, default=0.05, help="per-metric relative tolerance"
    )
    bench_check.add_argument(
        "--report", default=None, help="also write the structured diff as JSON"
    )

    lint = sub.add_parser(
        "lint", help="static simulation-discipline lint (custom AST rules)"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument("--format", default="text", choices=("text", "json"))
    lint.add_argument("--out", default=None, help="also write the JSON report here")
    lint.add_argument(
        "--rules",
        default=None,
        help="comma-separated subset of rules to run (default: all)",
    )
    lint.set_defaults(tools=("lint",), quick=True)

    verify = sub.add_parser(
        "verify-schedule",
        help="replay bench-suite schedules against the simulator invariants",
    )
    verify.add_argument(
        "--quick", action="store_true", help="small grid (tests / local iteration)"
    )
    verify.add_argument("--format", default="text", choices=("text", "json"))
    verify.add_argument("--out", default=None, help="also write the JSON report here")
    verify.set_defaults(tools=("schedule",), paths=[], rules=None)

    flow = sub.add_parser(
        "check-flow",
        help="interprocedural units/dimension + seed-provenance analysis",
    )
    flow.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze as one project (default: src/repro)",
    )
    flow.add_argument("--format", default="text", choices=("text", "json"))
    flow.add_argument("--out", default=None, help="also write the JSON report here")
    flow.add_argument(
        "--rules",
        default=None,
        help="comma-separated subset of flow rules to run (default: all)",
    )
    flow.set_defaults(tools=("flow",), quick=True)

    check = sub.add_parser(
        "check",
        help="umbrella: lint + check-flow + verify-schedule, one merged report",
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories for the static passes (default: src/repro)",
    )
    check.add_argument("--format", default="text", choices=("text", "json"))
    check.add_argument(
        "--json-out",
        default=None,
        dest="out",
        metavar="JSON_OUT",
        help="write the merged JSON report here",
    )
    check.add_argument(
        "--skip-verify",
        action="store_const",
        dest="tools",
        const=("lint", "flow"),
        default=("lint", "flow", "schedule"),
        help="static passes only (skip the bench-grid schedule replay)",
    )
    check.add_argument(
        "--full",
        action="store_false",
        dest="quick",
        help="full verification grid (default: quick)",
    )
    check.set_defaults(rules=None)
    return parser


def _write_artifacts(*artifacts: tuple[str | None, object]) -> None:
    """Write every ``(path, payload)`` whose path is set; note them on stderr.

    A payload is either a JSON-ready document, written indented and
    newline-terminated, or a format exporter ``payload(path)`` (Chrome
    trace, JSONL, timeline PNG) that writes the file itself and returns
    ``False`` if it skipped it.  The ``wrote <paths>`` notice goes to
    stderr so that stdout stays the command's report (``--format json``
    output remains parseable).
    """
    import json

    written = []
    for path, payload in artifacts:
        if path is None:
            continue
        if callable(payload):
            if payload(path) is False:
                continue
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        written.append(path)
    if written:
        print("wrote " + ", ".join(written), file=sys.stderr)


def _cmd_models() -> int:
    rows = [
        {
            "name": m.name,
            "params_b": m.total_params / 1e9,
            "layers": m.n_layers,
            "d_model": m.d_model,
            "activation": m.activation,
            "fp16_gib": m.weight_bytes(DTYPE_PRESETS["fp16"]) / 2**30,
        }
        for m in MODEL_PRESETS.values()
    ]
    print(format_table(rows, "Model presets"))
    return 0


def _cmd_machines() -> int:
    rows = [
        {
            "name": m.name,
            "gpu": m.gpu.name,
            "gpu_gib": m.gpu.memory_capacity / 2**30,
            "gpu_bw_gbs": m.gpu.memory_bandwidth / 1e9,
            "cpu_gib": m.cpu.memory_capacity / 2**30,
            "link": m.link.name,
        }
        for m in MACHINE_PRESETS.values()
    ]
    print(format_table(rows, "Machine presets"))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    engine = make_engine(args.engine, args.model, args.machine, args.dtype, seed=args.seed)
    result = engine.simulate_request(args.input_len, args.output_len, args.batch)
    print(
        f"{args.engine} / {args.model} / {args.machine} ({args.dtype}): "
        f"{result.tokens_per_second:.2f} tokens/s "
        f"(prompt {result.prompt_time * 1e3:.1f} ms, "
        f"decode {result.decode_latency * 1e3:.1f} ms/token, "
        f"GPU load share {result.gpu_load_share:.0%})"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    for name in ENGINE_CLASSES:
        try:
            engine = make_engine(name, args.model, args.machine, args.dtype, seed=args.seed)
            result = engine.simulate_request(args.input_len, args.output_len)
            rows.append(
                {
                    "engine": name,
                    "tokens_per_s": result.tokens_per_second,
                    "decode_ms": result.decode_latency * 1e3,
                    "gpu_load": result.gpu_load_share,
                }
            )
        except OutOfMemoryError as exc:
            rows.append(
                {"engine": name, "tokens_per_s": 0.0, "decode_ms": 0.0, "gpu_load": 0.0,
                 "note": str(exc)[:60]}
            )
    rows.sort(key=lambda r: -r["tokens_per_s"])
    print(format_table(rows, f"{args.model} on {args.machine} ({args.dtype})"))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    plan = build_plan(
        MODEL_PRESETS[args.model],
        MACHINE_PRESETS[args.machine],
        dtype=DTYPE_PRESETS[args.dtype],
        policy=args.policy,
        seed=args.seed,
    )
    save_plan(plan, args.out)
    report = plan.memory_report()
    print(
        f"saved {args.out}: GPU {report.gpu_used / 2**30:.1f}/"
        f"{report.gpu_capacity / 2**30:.1f} GiB, "
        f"GPU neuron-load share {plan.gpu_neuron_load_share():.0%}"
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    rows = FIGURES[args.name]()
    print(format_table(rows, args.name))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.serving import (
        SLO,
        poisson_arrivals,
        simulate_continuous_serving,
        simulate_serving,
    )
    from repro.workloads import CHATGPT_PROMPTS

    kv_carve = args.kv_gib * 2**30 if args.mode == "continuous" else 0.0
    engine = make_engine(
        args.engine,
        args.model,
        args.machine,
        args.dtype,
        seed=args.seed,
        kv_gpu_budget_bytes=kv_carve,
    )
    requests = poisson_arrivals(
        CHATGPT_PROMPTS,
        rate=args.rate,
        n_requests=args.requests,
        rng=np.random.default_rng(args.seed),
    )
    header = f"{args.engine} / {args.model} / {args.machine} [{args.mode}]"
    if args.mode == "continuous":
        report = simulate_continuous_serving(
            engine,
            requests,
            policy=args.scheduler,
            max_batch=args.max_batch,
            max_prefill_tokens=args.chunk_tokens,
        )
        slo = SLO(ttft_target=args.slo_ttft, tbt_target=args.slo_tbt)
        print(
            f"{header}: served {report.n_requests} requests at "
            f"{args.rate:.3g}/s with {args.scheduler} scheduling — "
            f"utilization {report.utilization:.0%}, "
            f"p50 latency {report.latency_percentile(50):.1f} s, "
            f"p95 {report.latency_percentile(95):.1f} s, "
            f"{report.tokens_per_second:.1f} tokens/s aggregate"
        )
        print(
            f"  TTFT p50 {report.ttft_percentile(50):.2f} s, "
            f"TBT p99 {report.tbt_percentile(99) * 1e3:.0f} ms, "
            f"peak KV {report.peak_kv_bytes / 2**30:.2f}/"
            f"{report.kv_budget_bytes / 2**30:.2f} GiB, "
            f"SLO (ttft<={args.slo_ttft:.3g}s, tbt<={args.slo_tbt:.3g}s) "
            f"attainment {report.slo_attainment(slo):.0%}, "
            f"goodput {report.goodput(slo):.2f} req/s"
        )
        return 0
    max_batch = args.max_batch if args.mode == "batched" else 1
    report = simulate_serving(engine, requests, max_batch=max_batch)
    print(
        f"{header}: served "
        f"{report.n_requests} requests at {args.rate:.3g}/s — "
        f"utilization {report.utilization:.0%}, "
        f"p50 latency {report.latency_percentile(50):.1f} s, "
        f"p95 {report.latency_percentile(95):.1f} s, "
        f"{report.tokens_per_second:.1f} tokens/s aggregate"
    )
    return 0


def _load_faults(args: argparse.Namespace):
    """Resolve --faults / --fault-seed into a FaultSchedule (or None).

    Shared by ``chaos`` and ``trace``.  Raises ValueError on conflicting
    or unreadable inputs; the literal ``--faults none`` disables
    injection entirely.
    """
    import json

    from repro.bench.fault_tolerance import default_fault_schedule
    from repro.hardware.faults import FaultSchedule

    if args.faults is not None and args.fault_seed is not None:
        raise ValueError("--faults and --fault-seed are mutually exclusive")
    if args.faults is not None:
        if args.faults == "none":
            return None
        try:
            with open(args.faults) as fh:
                return FaultSchedule.from_dicts(json.load(fh))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise ValueError(f"{args.faults}: {exc}") from None
    if args.fault_seed is not None:
        horizon = args.requests / args.rate
        return FaultSchedule.from_seed(args.fault_seed, horizon=horizon)
    return default_fault_schedule()


def _cmd_chaos(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.serving import SLO, poisson_arrivals, simulate_continuous_serving
    from repro.workloads import CHATGPT_PROMPTS

    try:
        faults = _load_faults(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    engine = make_engine(args.engine, args.model, args.machine, args.dtype, seed=args.seed)
    requests = poisson_arrivals(
        CHATGPT_PROMPTS,
        rate=args.rate,
        n_requests=args.requests,
        rng=np.random.default_rng(args.seed),
        deadline=args.deadline,
    )
    slo = SLO(ttft_target=args.slo_ttft, tbt_target=args.slo_tbt)
    rows = []
    for label, degradation in (("naive", False), ("degraded", True)):
        report = simulate_continuous_serving(
            engine,
            requests,
            policy="chunked",
            max_batch=args.max_batch,
            kv_budget_bytes=args.kv_gib * 2**30,
            max_prefill_tokens=32,
            faults=faults,
            deadline=args.deadline,
            max_retries=args.max_retries,
            max_queue=args.max_queue,
            degradation=degradation,
        )
        rows.append(
            {
                "server": label,
                "slo_attainment": report.slo_attainment_overall(slo),
                "completed": len(report.completed),
                "timed_out": len(report.timed_out),
                "shed": len(report.shed),
                "failed": len(report.failed),
                "aborts": report.n_aborts,
                "retries": report.n_retries,
                "degraded_s": report.time_in_degraded_mode,
            }
        )
    events = ", ".join(
        f"{e.kind}@{e.start:.1f}s x{e.duration:.1f}s (mag {e.magnitude:.2g})"
        for e in (faults.events if faults is not None else ())
    )
    print(f"fault schedule: {events or 'empty'}")
    print(
        format_table(
            rows,
            f"{args.engine} / {args.model} / {args.machine} ({args.dtype}) under "
            f"faults — SLO ttft<={args.slo_ttft:.3g}s tbt<={args.slo_tbt:.3g}s, "
            f"deadline {args.deadline:.3g}s",
        )
    )
    return 0


def _deep_fleet_tracer():
    """The deep-observability tracer every fleet-replay subcommand shares."""
    from repro.bench.fleet_chaos import DEFAULT_SLO, default_fleet_monitor
    from repro.telemetry import FleetTracer

    return FleetTracer(monitor=default_fleet_monitor(), slo=DEFAULT_SLO)


def _run_fleet_scenario(args: argparse.Namespace, tracer=None):  # repro-lint: disable=tracer-default -- CLI plumbing; callers pass their tracer explicitly
    """One loader path for the canonical fleet scenario.

    ``fleet``, ``explain-request``, and ``energy --fleet`` all replay the
    same 3-replica chaos scenario; this is the single place its knobs
    (``add_fleet_scenario_flags``) turn into a router run.
    """
    from repro.bench.fleet_chaos import build_fleet, fleet_requests

    router = build_fleet(
        router_policy=args.policy,
        chaos=not args.no_chaos,
        failover=not args.no_failover,
        disaggregate=args.disaggregate,
        hedge=args.hedge,
        brownout=args.brownout,
        tracer=tracer,
    )
    return router.run(fleet_requests(args.requests, sessions=args.sessions))


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.bench.fleet_chaos import DEFAULT_SLO
    from repro.check.schedule import validate_fleet_run
    from repro.telemetry import Tracer, save_chrome_trace

    deep = (
        args.deep_trace is not None
        or args.alerts is not None
        or args.timeseries is not None
    )
    if deep:
        from repro.telemetry import save_fleet_chrome_trace

        tracer = _deep_fleet_tracer()
    else:
        tracer = Tracer() if args.trace is not None else None
    result = _run_fleet_scenario(args, tracer)
    violations = validate_fleet_run(result, tracer=tracer if deep else None)

    fleet_joules = None
    if deep:
        from repro.telemetry.power import fleet_energy

        fleet_joules = fleet_energy(result, tracer)

    report = result.report
    rows = [
        {
            "replica": rep.name,
            "role": rep.role,
            "iterations": rep.report.n_iterations,
            "segments": len(rep.report.completed),
            "crashes": len(rep.crash_windows),
            "detected": len(rep.detected_windows),
        }
        for rep in result.replicas
    ]
    if fleet_joules is not None:
        for row in rows:
            part = fleet_joules.replica(row["replica"])
            row["joules"] = round(part.total_joules, 1)
            row["avg_w"] = round(part.avg_watts, 1)
    print(
        format_table(
            rows,
            f"fleet [{args.policy}] — {report.n_submitted} requests, "
            f"{'chaos' if not args.no_chaos else 'no faults'}, "
            f"failover {'off' if args.no_failover else 'on'}",
        )
    )
    print(
        f"goodput {report.goodput(DEFAULT_SLO):.3f} req/s, "
        f"TTFT p99 {report.ttft_percentile(99):.3f} s, "
        f"deadline-miss {report.deadline_miss_rate:.1%}, "
        f"availability {result.availability:.1%} "
        f"(capacity {result.capacity_availability:.1%})"
    )
    counters = ", ".join(f"{k}={v}" for k, v in sorted(result.counters.items()) if v)
    print(f"router counters: {counters or 'none'}")
    verdict = "OK" if not violations else f"{len(violations)} violation(s)"
    print(f"fleet validation: {verdict}")
    for v in violations:
        print(f"  - {v.check}: {v.message}")
    if deep:
        alerts = tracer.alerts
        print(f"burn-rate alerts: {len(alerts)}")
        for alert in alerts:
            print(f"  {alert.format()}")
    if fleet_joules is not None:
        from repro.telemetry.power import fleet_generated_tokens

        tokens = fleet_generated_tokens(result)
        print(
            f"energy: {fleet_joules.total_joules:.0f} J over "
            f"{fleet_joules.horizon:.1f} s ({fleet_joules.avg_watts:.0f} W avg), "
            f"{fleet_joules.j_per_token(tokens):.2f} J/token, "
            f"{fleet_joules.grams_co2():.2f} gCO2"
        )

    # In deep mode the router lane is still a plain Tracer.
    router_tracer = tracer.router if deep else tracer
    _write_artifacts(
        (args.trace, lambda path: save_chrome_trace(router_tracer, path)),
        (args.deep_trace, lambda path: save_fleet_chrome_trace(tracer, path)),
        (args.alerts, tracer.monitor.to_dicts() if deep else None),
        (args.timeseries, lambda path: tracer.timeseries.save_jsonl(path)),
        (args.summary, result.to_dict(slo=DEFAULT_SLO)),
        (
            args.verify_out,
            {
                "ok": not violations,
                "n_violations": len(violations),
                "violations": [v.to_dict() for v in violations],
            },
        ),
    )
    return 0 if not violations else 1


def _cmd_explain_request(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import explain_request, format_explanation
    from repro.telemetry.power import fleet_energy

    tracer = _deep_fleet_tracer()
    result = _run_fleet_scenario(args, tracer)
    explanation = explain_request(
        tracer, result, args.request_id, energy=fleet_energy(result, tracer)
    )
    if not explanation["timeline"]:
        print(
            f"error: request {args.request_id} not found in this scenario "
            f"(ids run 0..{args.requests - 1})",
            file=sys.stderr,
        )
        return 1
    if args.format == "json":
        print(json.dumps(explanation, indent=2))
    else:
        print(format_explanation(explanation))
    _write_artifacts((args.json_out, explanation))
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    from repro.telemetry.power import (
        DEFAULT_CARBON_INTENSITY,
        PowerModel,
        fleet_energy,
        fleet_generated_tokens,
        request_energy,
    )

    model = (
        PowerModel(carbon_intensity=args.carbon_intensity)
        if args.carbon_intensity is not None
        else None
    )
    intensity = (
        args.carbon_intensity
        if args.carbon_intensity is not None
        else DEFAULT_CARBON_INTENSITY
    )

    if args.fleet_mode:
        from repro.check.schedule import validate_fleet_energy

        tracer = _deep_fleet_tracer()
        result = _run_fleet_scenario(args, tracer)
        fenergy = fleet_energy(result, tracer, model=model)
        violations = validate_fleet_energy(fenergy)
        parts = list(fenergy.replicas)
        if fenergy.interconnect is not None:
            parts.append(fenergy.interconnect)
        rows = [
            {
                "part": part.label,
                "dynamic_j": round(part.dynamic_joules, 1),
                "static_j": round(part.static_joules, 1),
                "total_j": round(part.total_joules, 1),
                "avg_w": round(part.avg_watts, 1),
                "gco2": round(part.grams_co2(), 3),
            }
            for part in parts
        ]
        print(
            format_table(
                rows,
                f"fleet energy [{args.policy}] — {args.requests} requests, "
                f"{'chaos' if not args.no_chaos else 'no faults'}, "
                f"carbon intensity {intensity:.0f} gCO2/kWh",
            )
        )
        tokens = fleet_generated_tokens(result)
        drift = abs(
            fenergy.metered_joules - (fenergy.dynamic_joules + fenergy.static_joules)
        )
        print(
            f"fleet total: {fenergy.total_joules:.0f} J over "
            f"{fenergy.horizon:.1f} s ({fenergy.avg_watts:.0f} W avg), "
            f"{fenergy.j_per_token(tokens):.2f} J/token "
            f"({tokens} tokens), {fenergy.grams_co2():.2f} gCO2"
        )
        verdict = "OK" if not violations else f"{len(violations)} violation(s)"
        print(
            f"ledger vs meter: drift {drift:.2e} J — reconciliation {verdict}"
        )
        for v in violations:
            print(f"  - {v.check}: {v.message}")
        document = {
            **fenergy.to_dict(),
            "j_per_token": fenergy.j_per_token(tokens),
            "generated_tokens": tokens,
            "reconciliation_ok": not violations,
        }
        _write_artifacts(
            (args.timeseries, lambda path: tracer.timeseries.save_jsonl(path)),
            (args.json_out, document),
        )
        return 0 if not violations else 1

    rows = []
    reports: dict[str, dict] = {}
    for name in ENGINE_CLASSES:
        try:
            engine = make_engine(
                name, args.model, args.machine, args.dtype, seed=args.seed
            )
        except OutOfMemoryError as exc:
            rows.append({"engine": name, "note": str(exc)[:60]})
            continue
        e = request_energy(
            engine, args.input_len, args.output_len, args.batch, model=model
        )
        rows.append(
            {
                "engine": name,
                "j_per_token": e.j_per_token,
                "total_j": e.total_joules,
                "avg_w": e.avg_watts,
                "gco2_per_req": e.grams_co2(),
            }
        )
        reports[name] = e.to_dict()
    rows.sort(key=lambda r: r.get("j_per_token", float("inf")))
    print(
        format_table(
            rows,
            f"{args.model} on {args.machine} ({args.dtype}) — "
            f"{args.input_len}+{args.output_len} tokens, batch {args.batch}, "
            f"carbon intensity {intensity:.0f} gCO2/kWh",
        )
    )
    if args.whatif:
        from repro.analysis import whatif_power_sensitivity

        engine = make_engine(
            "powerinfer", args.model, args.machine, args.dtype, seed=args.seed
        )
        ctx = args.input_len + args.output_len // 2
        tasks = engine.iteration_tasks(ctx, 1, args.batch)
        wrows = [r.as_row() for r in whatif_power_sensitivity(tasks, engine.machine)]
        print()
        print(
            format_table(
                wrows,
                f"perf-per-watt what-if (powerinfer decode at ctx={ctx})",
            )
        )
    _write_artifacts((args.json_out, reports))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.serving import poisson_arrivals, simulate_continuous_serving
    from repro.serving.metrics import merge_busy_intervals
    from repro.telemetry import Tracer, save_chrome_trace, save_jsonl
    from repro.workloads import CHATGPT_PROMPTS

    try:
        faults = _load_faults(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    engine = make_engine(args.engine, args.model, args.machine, args.dtype, seed=args.seed)
    requests = poisson_arrivals(
        CHATGPT_PROMPTS,
        rate=args.rate,
        n_requests=args.requests,
        rng=np.random.default_rng(args.seed),
        deadline=args.deadline,
    )
    tracer = Tracer()
    report = simulate_continuous_serving(
        engine,
        requests,
        policy="chunked",
        max_batch=args.max_batch,
        kv_budget_bytes=args.kv_gib * 2**30,
        max_prefill_tokens=32,
        faults=faults,
        deadline=args.deadline,
        max_retries=args.max_retries,
        max_queue=args.max_queue,
        tracer=tracer,
    )

    def plot(path: str) -> bool:
        from repro.telemetry.timeline import MissingDependencyError, plot_timeline

        try:
            plot_timeline(
                tracer,
                path,
                title=f"{args.engine} / {args.model} / {args.machine} ({args.dtype})",
            )
        except MissingDependencyError as exc:
            print(f"warning: skipped {path}: {exc}", file=sys.stderr)
            return False
        return True

    _write_artifacts(
        (args.out, lambda path: save_chrome_trace(tracer, path)),
        (args.jsonl, lambda path: save_jsonl(tracer, path)),
        (args.summary, tracer.metrics.merge_into(report.to_dict())),
        (args.png, plot),
    )

    busy = merge_busy_intervals(report.busy_intervals)
    drift = abs(tracer.busy_union() - busy)
    print(
        f"traced {report.n_iterations} iterations / {report.n_requests} "
        f"completed requests over {report.makespan:.1f} s — "
        f"{len(tracer.task_spans)} task spans, "
        f"{len(tracer.request_spans)} request spans, "
        f"{len(tracer.counters)} counter samples "
        f"(busy-time drift vs report: {drift:.2e} s)"
    )
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.analysis import throughput_bounds

    bounds = throughput_bounds(
        MODEL_PRESETS[args.model],
        MACHINE_PRESETS[args.machine],
        dtype=DTYPE_PRESETS[args.dtype],
    )
    print(
        format_table(
            bounds.as_rows(),
            f"Roofline bounds — {args.model} on {args.machine} ({args.dtype}); "
            f"GPU holds {bounds.gpu_weight_fraction:.0%} of weights, "
            f"{bounds.active_fraction:.0%} of bytes touched per token",
        )
    )
    return 0


def _cmd_attribution(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_iteration, whatif_sensitivity

    engine = make_engine(args.engine, args.model, args.machine, args.dtype, seed=args.seed)
    analysis = analyze_iteration(engine, args.ctx, 1, args.batch)
    deco, cp = analysis.decomposition, analysis.critical_path

    header = f"{args.engine} / {args.model} / {args.machine} ({args.dtype})"
    print(
        format_table(
            deco.as_rows(args.group),
            f"{header}: decode iteration at ctx={args.ctx} — seconds by {args.group}",
        )
    )
    shares = deco.shares()
    share_text = ", ".join(f"{k} {v:.0%}" for k, v in shares.items() if v > 0.005)
    print(f"\nshares: {share_text}")
    print(
        f"critical path: {len(cp.segments)} tasks, gating resource "
        f"{cp.gating_resource()} ({cp.time_by_resource()})"
    )
    gates = {}
    for seg in cp.segments:
        gates[seg.gate] = gates.get(seg.gate, 0) + 1
    print(f"gates along path: {gates}")

    tasks = engine.iteration_tasks(args.ctx, 1, args.batch)
    rows = [r.as_row() for r in whatif_sensitivity(tasks, engine.machine)]
    print()
    print(format_table(rows, "what-if sensitivity (analytic re-pricing)"))
    return 0


def _cmd_bench_baseline(args: argparse.Namespace) -> int:
    from repro.bench.baseline import write_baseline

    document = write_baseline(args.out, quick=args.quick)
    print(
        f"wrote {args.out}: {len(document['metrics'])} metrics "
        f"({document['suite']} suite)"
    )
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    import json

    from repro.bench.baseline import (
        check_against_baseline,
        format_diff,
        load_baseline,
        run_suite,
    )

    try:
        baseline = load_baseline(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {args.baseline}: {exc}", file=sys.stderr)
        return 2
    current = run_suite(quick=baseline.get("suite") == "quick")
    diff = check_against_baseline(baseline, current, tolerance=args.tolerance)
    print(format_diff(diff))
    _write_artifacts((args.report, diff.as_dict()))
    return 0 if diff.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    """``lint``, ``check-flow``, ``verify-schedule`` and ``check``.

    Each command names the tools it runs (``args.tools``, set by its
    parser); all four build one :class:`~repro.check.report.CheckReport`
    and print it the same way.
    """
    from repro.check.report import check_to_json, format_check_text, run_check

    rules = None
    if args.rules is not None:
        rules = [name.strip() for name in args.rules.split(",") if name.strip()]
    try:
        report = run_check(
            args.paths,
            tools=args.tools,
            lint_rules=rules,
            flow_rules=rules,
            quick=args.quick,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(check_to_json(report), end="")
    else:
        print(format_check_text(report))
    _write_artifacts((args.out, report.to_dict()))
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "models":
            return _cmd_models()
        if args.command == "machines":
            return _cmd_machines()
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "fleet":
            return _cmd_fleet(args)
        if args.command == "explain-request":
            return _cmd_explain_request(args)
        if args.command == "energy":
            return _cmd_energy(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "attribution":
            return _cmd_attribution(args)
        if args.command == "bench-baseline":
            return _cmd_bench_baseline(args)
        if args.command == "bench-check":
            return _cmd_bench_check(args)
        if args.command in ("lint", "check-flow", "verify-schedule", "check"):
            return _cmd_check(args)
    except OutOfMemoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

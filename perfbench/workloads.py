"""The benchmark's three workloads, each a batch job on one thread.

A workload is built from ``--seed`` alone, sets up every plan it needs in
:meth:`setup`, then runs identical *passes*: one pass is one operation,
and the benchmark times as many passes as fit the run.  Only
:meth:`run_pass` is timed; :meth:`summarize` turns its outputs into a
:class:`Pass` afterwards.  Every pass on one seed replays the same inputs,
so its simulated outputs (and their digest) must repeat exactly;
:meth:`check` holds the output checks that run outside the timed region.

* ``offline-sweep`` — the paper-figure path on OPT-30B / PC-High / FP16:
  Fig. 4 iterations, Fig. 15 stages and the Fig. 10 request grid.  No
  random inputs: the seed is accepted and ignored.
* ``fleet-serve`` — the canonical 3-replica chaos fleet
  (:mod:`repro.bench.fleet_chaos`) on a long seeded Poisson stream,
  telemetry off.
* ``fleet-observed`` — the same fleet on a short seeded stream with the
  deep-trace, energy, validation and Chrome-export products in the pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Recorded digest of the offline sweep's modeled rows (values rounded to
# 10 significant digits).  It changes only when the simulator's modeled
# numbers change, which a speed-only change must not do.
OFFLINE_DIGEST = "0fd0dda95e24d039f9bcbe641699190fc13f96a0c7bcbe5089bd95e0b27a7ea8"

# The seed used while the benchmark was written; 1009 was held out of it.
DEFAULT_SEED = 42

# The request streams, generated here so that the program receives only
# requests: Poisson arrivals at the fleet scenario's rate, ChatGPT-prompts
# input lengths (log-normal, mean 40 tokens, sigma 0.6, clipped to 8..128).
RATE_RPS = 2.5
PROMPT_MEAN, PROMPT_SIGMA, PROMPT_MIN, PROMPT_MAX = 40.0, 0.6, 8, 128


def request_stream(seed, n_requests, output_lengths, output_weights, deadline):
    """A seeded open-loop stream of :class:`repro.serving.Request`."""
    from repro.serving import Request

    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / RATE_RPS, size=n_requests))
    mu = math.log(PROMPT_MEAN) - 0.5 * PROMPT_SIGMA**2
    inputs = np.clip(rng.lognormal(mu, PROMPT_SIGMA, size=n_requests), PROMPT_MIN, PROMPT_MAX)
    weights = np.asarray(output_weights, dtype=float)
    outputs = rng.choice(output_lengths, size=n_requests, p=weights / weights.sum())
    return [
        Request(
            request_id=i,
            arrival_time=float(arrivals[i]),
            input_len=int(inputs[i]),
            output_len=int(outputs[i]),
            deadline=deadline,
        )
        for i in range(n_requests)
    ]


def digest(document) -> str:
    """SHA-256 of a JSON document with floats rounded to 10 digits."""

    def rounded(value):
        if isinstance(value, float):
            return float(f"{value:.10g}")
        if isinstance(value, dict):
            return {str(k): rounded(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [rounded(v) for v in value]
        return value

    text = json.dumps(rounded(document), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Pass:
    """What one pass produced: work done, simulated results, evidence."""

    iterations: int
    digest: str
    sim: dict[str, float]
    evidence: object = None
    problems: list[str] = field(default_factory=list)


def _ttft_tbt(report, with_p95: bool) -> dict[str, float]:
    """TTFT/TBT percentiles; p95 only when ten requests lie beyond it."""
    ttft = np.array([m.ttft for m in report.completed])
    sim = {"sim_ttft_p50_s": float(np.percentile(ttft, 50))}
    if with_p95:
        p95 = float(np.percentile(ttft, 95))
        if int((ttft > p95).sum()) >= 10:
            sim["sim_ttft_p95_s"] = p95
        gaps = np.array([g for m in report.completed for g in m.tbts])
        if gaps.size and int((gaps > np.percentile(gaps, 95)).sum()) >= 10:
            sim["sim_tbt_p95_s"] = float(np.percentile(gaps, 95))
    return sim


class OfflineSweep:
    name = "offline-sweep"
    MODEL, MACHINE, DTYPE = "opt-30b", "pc-high", "fp16"
    # (engine, placement policy) pairs whose plans the sweep consumes.
    PLANS = (("llama.cpp", None), ("powerinfer", "greedy"), ("powerinfer", "ilp"))
    ANCHORS = (
        "ablation.po_speedup.opt30b",
        "ablation.engine_speedup.opt30b",
        "ablation.policy_speedup.opt30b",
        "motivation.flexgen_transfer_share",
        "motivation.llamacpp_cpu_share",
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed  # the sweep has no random inputs

    def setup(self) -> None:
        from repro.bench.runner import make_engine

        for engine, policy in self.PLANS:
            make_engine(engine, self.MODEL, self.MACHINE, self.DTYPE, policy=policy)

    @staticmethod
    @contextmanager
    def _realized_schedules():
        """Collect ``(tasks, result)`` of every DAG scheduled in the block."""
        from repro.hardware.events import EventSimulator

        run = EventSimulator.run
        sink: list = []

        def capture(sim, tasks):
            result = run(sim, tasks)
            sink.append((tasks, result))
            return result

        EventSimulator.run = capture
        try:
            yield sink
        finally:
            EventSimulator.run = run

    def run_pass(self):
        from repro.bench.end_to_end import run_end_to_end
        from repro.bench.fig04 import run_fig04
        from repro.bench.fig15 import run_fig15

        with self._realized_schedules() as schedules:
            fig04 = run_fig04(self.MODEL, self.MACHINE)
            fig15 = run_fig15((self.MODEL,), self.MACHINE, self.DTYPE)
            fig10 = run_end_to_end(self.MACHINE, self.DTYPE, (self.MODEL,))
        return {"fig04": fig04, "fig15": fig15, "fig10": fig10}, schedules

    def summarize(self, outputs) -> Pass:
        rows, schedules = outputs
        return Pass(
            iterations=len(schedules),
            digest=digest(rows),
            sim={"paper_err": self.paper_err(rows["fig04"], rows["fig15"])},
            evidence=schedules,
        )

    def paper_err(self, fig04, fig15) -> float:
        """Mean |ln(reproduced / paper)| over the sweep's paper anchors."""
        from repro.bench.paper_reference import anchor

        speedup = {row["stage"]: row["speedup"] for row in fig15}
        batch1 = {row["engine"]: row for row in fig04 if row["batch"] == 1}
        reproduced = (
            speedup["+PO"],
            speedup["+Engine"],
            speedup["+Policy"],
            batch1["flexgen"]["transfer_share"],
            batch1["llama.cpp"]["cpu_share"],
        )
        return float(
            np.mean([abs(math.log(r / anchor(k))) for r, k in zip(reproduced, self.ANCHORS)])
        )

    def check(self, first: Pass) -> list[str]:
        import repro.check.schedule as schedule

        problems = []
        for tasks, result in first.evidence:
            for v in schedule.validate_schedule(result, tasks):
                problems.append(f"validate_schedule: {v.format()}")
        if first.digest != OFFLINE_DIGEST:
            problems.append(
                f"modeled rows changed: digest {first.digest} != recorded {OFFLINE_DIGEST}"
            )
        return problems


class _Fleet:
    """Shared set-up of the canonical chaos fleet (three replicas)."""

    N_REQUESTS = 0
    OUTPUT_LENGTHS: tuple[int, ...] = (8, 128, 512)
    OUTPUT_WEIGHTS: tuple[float, ...] = (0.2, 0.6, 0.2)

    def __init__(self, seed: int) -> None:
        from repro.bench.fleet_chaos import DEADLINE_S

        self.seed = seed
        self.requests = request_stream(
            seed, self.N_REQUESTS, self.OUTPUT_LENGTHS, self.OUTPUT_WEIGHTS, DEADLINE_S
        )

    def setup(self) -> None:
        from repro.bench import fleet_chaos
        from repro.bench.runner import make_engine

        for machine in fleet_chaos.FLEET_MACHINES:
            make_engine("powerinfer", fleet_chaos.MODEL, machine, fleet_chaos.DTYPE)

    def _accounting(self, result) -> list[str]:
        if result.report.n_submitted != len(self.requests):
            return [
                f"request accounting: {result.report.n_submitted} of "
                f"{len(self.requests)} requests have a disposition"
            ]
        return []


class FleetServe(_Fleet):
    name = "fleet-serve"
    # Long enough that cache misses (DAG builds, most of a pass's host time)
    # level off, so iterations per build, and the rate, barely vary by seed.
    N_REQUESTS = 700

    def run_pass(self):
        from repro.bench.fleet_chaos import build_fleet

        return build_fleet().run(self.requests)

    def summarize(self, result) -> Pass:
        from repro.bench.fleet_chaos import DEFAULT_SLO

        report = result.report
        sim = _ttft_tbt(report, with_p95=True)
        sim["sim_goodput_rps"] = report.goodput(DEFAULT_SLO)
        return Pass(
            iterations=sum(rep.report.n_iterations for rep in result.replicas),
            digest=digest(result.to_dict(slo=DEFAULT_SLO)),
            sim=sim,
            evidence=result,
        )

    def check(self, first: Pass) -> list[str]:
        import repro.check.schedule as schedule

        problems = self._accounting(first.evidence)
        for v in schedule.validate_fleet_run(first.evidence):
            problems.append(f"validate_fleet_run: {v.format()}")
        return problems


class FleetObserved(_Fleet):
    name = "fleet-observed"
    N_REQUESTS = 24
    # One output length (the paper's shortest), so every seed meters and
    # exports the same number of tokens and traced memory is comparable
    # across seeds; 24 arrivals at 2.5 req/s still cross the crash at 6 s.
    OUTPUT_LENGTHS = (8,)
    OUTPUT_WEIGHTS = (1.0,)

    def run_pass(self):
        import repro.check.schedule as schedule
        import repro.telemetry.exporters as exporters
        import repro.telemetry.power as power
        from repro.bench.fleet_chaos import DEFAULT_SLO, build_fleet, default_fleet_monitor
        from repro.telemetry import FleetTracer

        tracer = FleetTracer(monitor=default_fleet_monitor(), slo=DEFAULT_SLO)
        result = build_fleet(tracer=tracer).run(self.requests)
        energy = power.fleet_energy(result, tracer)
        violations = schedule.validate_fleet_run(result, tracer=tracer)
        violations += schedule.validate_fleet_energy(energy)
        events = exporters.to_chrome_trace_fleet(tracer)
        return result, tracer, energy, violations, len(events)

    def summarize(self, outputs) -> Pass:
        import repro.telemetry.power as power
        from repro.bench.fleet_chaos import DEFAULT_SLO

        result, tracer, energy, violations, n_events = outputs
        report = result.report
        tokens = power.fleet_generated_tokens(result)
        sim = _ttft_tbt(report, with_p95=False)
        sim["sim_goodput_rps"] = report.goodput(DEFAULT_SLO)
        sim["sim_j_per_token"] = energy.j_per_token(tokens)
        document = {
            "result": result.to_dict(slo=DEFAULT_SLO),
            "joules": energy.total_joules,
            "alerts": len(tracer.alerts),
            "trace_events": n_events,
        }
        return Pass(
            iterations=sum(rep.report.n_iterations for rep in result.replicas),
            digest=digest(document),
            sim=sim,
            problems=[f"{v.check}: {v.message}" for v in violations]
            + self._accounting(result),
        )

    def check(self, first: Pass) -> list[str]:
        return []  # reconciled inside every pass


WORKLOADS = {w.name: w for w in (OfflineSweep, FleetServe, FleetObserved)}

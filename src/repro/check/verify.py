"""Run the schedule validator across the bench suite (`repro verify-schedule`).

Sweeps the canonical benchmark grid — every registered engine on the
bench-suite (model, machine, dtype) combinations — validating a prompt
iteration, a decode iteration, and a batched decode iteration for each,
then replays the canonical continuous-serving scenarios (fault-free and
the chaos degrade/squeeze/stall timeline) with ``validate=True`` and a
tracer attached, so every invariant in :mod:`repro.check.schedule` is
exercised against real schedules.  The fleet chaos scenarios
(:mod:`repro.bench.fleet_chaos`) are replayed through
:func:`~repro.check.schedule.validate_fleet_run` — crashed replicas
served nothing, KV conservation across migration, router/replica
accounting reconciliation.  Energy ledgers of the traced chaos scenarios
are reconciled against the integrated power meter
(:func:`~repro.check.schedule.validate_energy_report`).  Engines that
legitimately cannot fit a configuration (OOM at plan time) are reported
as skipped, not failed.
"""

from __future__ import annotations

from typing import Iterator

from repro.check.schedule import ScheduleValidationError, validate_schedule

__all__ = ["run_verification"]

# One schedule per phase shape: prompt prefill, single-token decode, and
# a batched decode (the shapes continuous batching actually issues).
ITERATION_POINTS = (
    ("prompt", 0, 64, 1),
    ("decode", 128, 1, 1),
    ("batched-decode", 128, 1, 4),
)

SERVING_N_REQUESTS = {"full": 32, "quick": 10}


def _iteration_grid(quick: bool) -> Iterator[tuple[str, str, str, str]]:
    """(engine, model, machine, dtype) combos: bench hw × every engine."""
    from repro.bench.baseline import E2E_CONFIGS_FULL, E2E_CONFIGS_QUICK
    from repro.bench.runner import ENGINE_CLASSES

    configs = E2E_CONFIGS_QUICK if quick else E2E_CONFIGS_FULL
    hardware = sorted({(model, machine, dtype) for _, model, machine, dtype in configs})
    for model, machine, dtype in hardware:
        for engine_name in sorted(ENGINE_CLASSES):
            yield engine_name, model, machine, dtype


def _iteration_cases(quick: bool) -> list[dict]:
    from repro.bench.runner import make_engine
    from repro.hardware.memory import OutOfMemoryError

    cases: list[dict] = []
    for engine_name, model, machine, dtype in _iteration_grid(quick):
        prefix = f"iteration/{engine_name}/{model}/{machine}/{dtype}"
        try:
            engine = make_engine(engine_name, model, machine, dtype)
        except OutOfMemoryError as exc:
            cases.append(
                {
                    "case": prefix,
                    "status": "skipped",
                    "reason": f"does not fit: {exc}",
                    "violations": [],
                }
            )
            continue
        for kind, ctx, n_tokens, batch in ITERATION_POINTS:
            result = engine.simulate_iteration(ctx, n_tokens, batch)
            violations = validate_schedule(result)
            cases.append(
                {
                    "case": f"{prefix}/{kind}",
                    "status": "ok" if not violations else "fail",
                    "n_tasks": len(result.tasks),
                    "makespan_s": result.makespan,
                    "violations": [v.to_dict() for v in violations],
                }
            )
    return cases


def _serving_cases(quick: bool) -> list[dict]:
    from repro.bench.fault_tolerance import (
        DEADLINE_S,
        DTYPE,
        KV_BUDGET_BYTES,
        MACHINE,
        MAX_BATCH,
        MAX_QUEUE,
        MAX_RETRIES,
        MODEL,
        chaos_requests,
        default_fault_schedule,
    )
    from repro.bench.runner import make_engine
    from repro.serving.continuous import ContinuousServer
    from repro.telemetry.tracer import Tracer

    suite = "quick" if quick else "full"
    engine = make_engine("powerinfer", MODEL, MACHINE, DTYPE)
    requests = chaos_requests(SERVING_N_REQUESTS[suite])
    scenarios = (
        ("serving/no-fault", None),
        ("serving/chaos", default_fault_schedule()),
    )
    cases: list[dict] = []
    for case_name, faults in scenarios:
        tracer = Tracer()
        server = ContinuousServer(
            engine,
            policy="chunked",
            max_batch=MAX_BATCH,
            kv_budget_bytes=KV_BUDGET_BYTES,
            faults=faults,
            deadline=DEADLINE_S,
            max_retries=MAX_RETRIES,
            max_queue=MAX_QUEUE,
            tracer=tracer,
            validate=True,
        )
        try:
            report = server.run(requests)
        except ScheduleValidationError as exc:
            cases.append(
                {
                    "case": case_name,
                    "status": "fail",
                    "violations": [v.to_dict() for v in exc.violations],
                }
            )
            continue
        cases.append(
            {
                "case": case_name,
                "status": "ok",
                "n_iterations": report.n_iterations,
                "n_completed": len(report.completed),
                "makespan_s": report.makespan,
                "kv_events": len(server.last_kv_ledger),
                "violations": [],
            }
        )
    return cases


def _fleet_cases(quick: bool) -> list[dict]:
    """Replay the canonical fleet chaos scenarios through the validator.

    Covers the resilience mechanisms the fleet validator has dedicated
    checks for: failover under a crash, the blind (no-failover)
    ablation, and — in the full suite — the fault-free fleet, the
    disaggregated fleet (KV transfers under a decode-replica crash), and
    hedged dispatch (deliberate dual-residency the migration check must
    exempt).
    """
    from repro.bench.fleet_chaos import build_fleet, fleet_requests
    from repro.check.schedule import validate_fleet_run

    scenarios = [
        ("fleet/failover-chaos", dict(router_policy="round-robin", chaos=True)),
        ("fleet/blind-chaos", dict(router_policy="round-robin", chaos=True, failover=False)),
    ]
    if not quick:
        scenarios += [
            ("fleet/no-fault", dict(router_policy="least-loaded", chaos=False)),
            ("fleet/disagg-chaos", dict(router_policy="round-robin", chaos=True, disaggregate=True)),
            ("fleet/hedge-chaos", dict(router_policy="least-loaded", chaos=True, hedge=True)),
        ]
    cases: list[dict] = []
    for case_name, kwargs in scenarios:
        result = build_fleet(**kwargs).run(fleet_requests())
        violations = validate_fleet_run(result)
        cases.append(
            {
                "case": case_name,
                "status": "ok" if not violations else "fail",
                "n_replicas": len(result.replicas),
                "n_completed": len(result.report.completed),
                "availability": result.availability,
                "n_transfers": len(result.transfers.tasks) if result.transfers else 0,
                "violations": [v.to_dict() for v in violations],
            }
        )
    return cases


def _energy_cases(quick: bool) -> list[dict]:
    """Reconcile energy ledgers against the integrated power meter.

    Runs the two canonical traced scenarios — the single-server chaos
    timeline and the fleet chaos crash — through the energy meter and
    validates the ledger with
    :func:`~repro.check.schedule.validate_energy_report` /
    :func:`~repro.check.schedule.validate_fleet_energy` (sum of per-task
    energies == integrated meter to 1e-6, DVFS windows included).
    """
    from repro.bench.fault_tolerance import (
        DEADLINE_S,
        DTYPE,
        KV_BUDGET_BYTES,
        MACHINE,
        MAX_BATCH,
        MAX_QUEUE,
        MAX_RETRIES,
        MODEL,
        chaos_requests,
        default_fault_schedule,
    )
    from repro.bench.fleet_chaos import (
        DEFAULT_SLO,
        build_fleet,
        default_fleet_monitor,
        fleet_requests,
    )
    from repro.bench.runner import make_engine
    from repro.check.schedule import validate_energy_report, validate_fleet_energy
    from repro.serving.continuous import ContinuousServer
    from repro.telemetry.fleet import FleetTracer
    from repro.telemetry.power import fleet_energy, tracer_energy
    from repro.telemetry.tracer import Tracer

    suite = "quick" if quick else "full"
    cases: list[dict] = []

    engine = make_engine("powerinfer", MODEL, MACHINE, DTYPE)
    faults = default_fault_schedule()
    tracer = Tracer()
    server = ContinuousServer(
        engine,
        policy="chunked",
        max_batch=MAX_BATCH,
        kv_budget_bytes=KV_BUDGET_BYTES,
        faults=faults,
        deadline=DEADLINE_S,
        max_retries=MAX_RETRIES,
        max_queue=MAX_QUEUE,
        tracer=tracer,
    )
    report = server.run(chaos_requests(SERVING_N_REQUESTS[suite]))
    energy = tracer_energy(tracer, engine.machine, faults=faults, horizon=report.makespan)
    violations = validate_energy_report(energy)
    cases.append(
        {
            "case": "energy/serving-chaos",
            "status": "ok" if not violations else "fail",
            "total_joules": energy.total_joules,
            "metered_joules": energy.metered_joules,
            "violations": [v.to_dict() for v in violations],
        }
    )

    fleet_tracer = FleetTracer(monitor=default_fleet_monitor(), slo=DEFAULT_SLO)
    router = build_fleet(tracer=fleet_tracer)
    result = router.run(fleet_requests(SERVING_N_REQUESTS[suite]))
    fenergy = fleet_energy(result, fleet_tracer)
    violations = validate_fleet_energy(fenergy)
    cases.append(
        {
            "case": "energy/fleet-chaos",
            "status": "ok" if not violations else "fail",
            "total_joules": fenergy.total_joules,
            "metered_joules": fenergy.metered_joules,
            "violations": [v.to_dict() for v in violations],
        }
    )
    return cases


def run_verification(quick: bool = False) -> dict:
    """Validate the bench suite; returns the verification document."""
    cases = (
        _iteration_cases(quick)
        + _serving_cases(quick)
        + _fleet_cases(quick)
        + _energy_cases(quick)
    )
    n_violations = sum(len(c["violations"]) for c in cases)
    n_skipped = sum(1 for c in cases if c["status"] == "skipped")
    return {
        "suite": "quick" if quick else "full",
        "ok": all(c["status"] != "fail" for c in cases),
        "n_cases": len(cases),
        "n_skipped": n_skipped,
        "n_violations": n_violations,
        "cases": cases,
    }

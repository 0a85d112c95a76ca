"""Per-layer spans and counters, recorded from outside the simulator.

Every probe wraps one public function of a simulator layer by
reassigning the name where its caller looks it up: a method on its class,
or a module attribute that another module imported by name.  Nothing in
``src/`` is edited; :meth:`Probes.uninstall` puts every original back.

A span is ``(name, start, end, parent)``.  Spans live in flat arrays in
memory and are written out once, at the end of a traced run.  A span's
self time is its duration minus the time its direct child spans cover;
summing self time by layer splits a pass's host time without double
counting nested calls (``FleetRouter.run`` contains ``ServerSession.step``
contains ``IterationCostCache.cost`` contains ``iteration_tasks`` ...).
"""

from __future__ import annotations

import functools
import importlib
import weakref
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Every per-layer metric: (name, unit, which direction is better).  Time
# metrics are self time (nested probed calls excluded) per pass; counts are
# exact per pass; ``setup.*`` covers the one set-up of the traced run.
PER_LAYER = (
    ("setup.plans", "count", "lower"),
    ("setup.synth_calls", "count", "lower"),
    ("setup.synth_s", "s", "lower"),
    ("setup.solve_s", "s", "lower"),
    ("setup.synth_reuse", "ratio", "higher"),
    ("engine.dag_builds", "count", "lower"),
    ("engine.tasks_built", "count", "lower"),
    ("engine.dag_build_s", "s", "lower"),
    ("engine.split_calls", "count", "lower"),
    ("engine.split_s", "s", "lower"),
    ("costmodel.priced", "count", "lower"),
    ("costmodel.price_s", "s", "lower"),
    ("events.runs", "count", "lower"),
    ("events.tasks_scheduled", "count", "lower"),
    ("events.loop_s", "s", "lower"),
    ("events.tasks_per_s", "1/s", "higher"),
    ("faults.calls", "count", "lower"),
    ("faults.s", "s", "lower"),
    ("serving.steps", "count", "lower"),
    ("serving.step_s", "s", "lower"),
    ("serving.policy_s", "s", "lower"),
    ("serving.cache_s", "s", "lower"),
    ("serving.cache_lookups", "count", "lower"),
    ("serving.cache_misses", "count", "lower"),
    ("serving.cache_hit_ratio", "ratio", "higher"),
    ("fleet.router_s", "s", "lower"),
    ("fleet.choose_calls", "count", "lower"),
    ("fleet.choose_s", "s", "lower"),
    ("telemetry.replay_calls", "count", "lower"),
    ("telemetry.replay_s", "s", "lower"),
    ("telemetry.spans", "count", "lower"),
    ("telemetry.energy_s", "s", "lower"),
    ("telemetry.export_s", "s", "lower"),
    ("telemetry.events_exported", "count", "lower"),
    ("check.validate_s", "s", "lower"),
    ("check.violations", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


class SpanLog:
    """Open/close spans on one thread, with parent links and child time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child_s = array("d")
        self._open: list[int] = []

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.child_s.append(0.0)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        self._open.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child_s[parent] += t - self.start[idx]

    def self_seconds(self, lo: int, hi: int) -> dict[str, float]:
        """Self time by span name over spans ``lo:hi`` (closed spans only)."""
        if hi <= lo:
            return {}
        sl = slice(lo, hi)
        ids = np.frombuffer(self.name_id, dtype=np.int32)[sl]
        own = (
            np.frombuffer(self.end, dtype=np.float64)[sl]
            - np.frombuffer(self.start, dtype=np.float64)[sl]
            - np.frombuffer(self.child_s, dtype=np.float64)[sl]
        )
        sums = np.bincount(ids, weights=own, minlength=len(self.names))
        return {name: float(sums[i]) for i, name in enumerate(self.names) if sums[i]}

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Probes:
    """Installs span wrappers around every layer's public functions.

    ``counts`` holds exact work counters (calls, tasks, lookups) keyed by
    metric name; ``distinct_plans`` records the ``(model, seed)`` pairs
    plans were built for, which bounds how much synthesis is redundant.
    """

    def __init__(self) -> None:
        self.log = SpanLog()
        self.counts: Counter[str] = Counter()
        self.distinct_plans: set[tuple[str, int]] = set()
        self._layer_depth: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # ---- wrapping ---------------------------------------------------------------

    def _wrap(self, owner, attr: str, span: str, after=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        static = isinstance(raw, staticmethod)
        func = raw.__func__ if static else raw
        log = self.log
        nid = log.name_index(span)
        layer = _layer(span)
        depth = self._layer_depth
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            depth[layer] += 1
            idx = log.open(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                log.close(idx)
                depth[layer] -= 1
            counts[span] += 1
            if after is not None:
                after(args, kwargs, result, depth[layer] == 0)
            return result

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._restore.append((owner, attr, raw))

    def _wrap_overrides(self, base: type, attr: str, span: str, after=None) -> None:
        """Wrap ``attr`` on ``base`` and every subclass that defines it."""
        seen: set[type] = set()
        stack = [base]
        while stack:
            cls = stack.pop()
            if cls in seen:
                continue
            seen.add(cls)
            stack.extend(cls.__subclasses__())
            func = cls.__dict__.get(attr)
            if func is not None and not getattr(func, "__isabstractmethod__", False):
                self._wrap(cls, attr, span, after)

    def install(self) -> None:
        counts = self.counts
        plans = self.distinct_plans

        def n_tasks_built(args, kwargs, result, outermost):
            counts["engine.tasks_built"] += len(result)

        def n_tasks_scheduled(args, kwargs, result, outermost):
            counts["events.tasks_scheduled"] += len(args[1])

        def n_replayed(args, kwargs, result, outermost):
            counts["telemetry.spans"] += len(args[1].tasks)

        def n_task_added(args, kwargs, result, outermost):
            counts["telemetry.spans"] += 1

        def n_exported(args, kwargs, result, outermost):
            counts["telemetry.events_exported"] += len(result)

        def n_violations(args, kwargs, result, outermost):
            if outermost:
                counts["check.violations"] += len(result)

        def plan_key(args, kwargs, result, outermost):
            plans.add((result.model.name, kwargs.get("seed", 0)))

        def cache_growth(args, kwargs, result, outermost):
            cache = args[0]
            size = len(cache)
            counts["serving.cache_misses"] += size - cache_sizes.get(cache, 0)
            cache_sizes[cache] = size

        cache_sizes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

        # -- setup: plan building, profile synthesis, placement solvers.
        import repro.bench.runner as runner
        import repro.core.pipeline as pipeline

        self._wrap(runner, "build_plan", "setup.build_plan", plan_key)
        self._wrap(pipeline, "synthesize_model_probs", "setup.synthesize")
        self._wrap(pipeline, "solve_ilp", "setup.solve")
        self._wrap(pipeline, "greedy_placement", "setup.solve")

        # -- engine: DAG construction and expected activation splits.
        from repro.engine.base import PerfEngine
        from repro.engine.plan import DeploymentPlan

        for module in ("repro.engine.baselines", "repro.engine.powerinfer"):
            importlib.import_module(module)
        self._wrap_overrides(PerfEngine, "iteration_tasks", "engine.iteration_tasks", n_tasks_built)
        self._wrap(DeploymentPlan, "mlp_active_split", "engine.split")
        self._wrap(DeploymentPlan, "attn_active_split", "engine.split")

        # -- costmodel / events / faults.
        from repro.hardware.costmodel import CostModel
        from repro.hardware.events import EventSimulator
        from repro.hardware.faults import FaultSchedule

        self._wrap(CostModel, "op_cost", "costmodel.op_cost")
        self._wrap(CostModel, "transfer_cost", "costmodel.transfer_cost")
        self._wrap(EventSimulator, "run", "events.run", n_tasks_scheduled)
        self._wrap(FaultSchedule, "perturbed_machine", "faults.perturbed_machine")
        self._wrap(FaultSchedule, "epoch", "faults.epoch")

        # -- serving: the session loop, the cost cache, scheduler policies.
        from repro.serving.continuous import IterationCostCache, ServerSession
        from repro.serving.policies import SchedulerPolicy

        self._wrap(IterationCostCache, "cost", "serving.cache_cost", cache_growth)
        self._wrap(IterationCostCache, "schedule", "serving.cache_schedule", cache_growth)
        self._wrap(ServerSession, "step", "serving.step")
        self._wrap_overrides(SchedulerPolicy, "plan_iteration", "serving.plan_iteration")

        # -- fleet: the router loop and router policies.
        from repro.serving.fleet.policies import RouterPolicy
        from repro.serving.fleet.router import FleetRouter

        self._wrap(FleetRouter, "run", "fleet.run")
        self._wrap_overrides(RouterPolicy, "choose", "fleet.choose")

        # -- telemetry: trace replay, metering, export.
        import repro.telemetry.exporters as exporters
        import repro.telemetry.power as power
        from repro.telemetry.tracer import Tracer

        self._wrap(Tracer, "add_schedule", "telemetry.add_schedule", n_replayed)
        self._wrap(Tracer, "add_task", "telemetry.add_task", n_task_added)
        self._wrap(power, "fleet_energy", "telemetry.fleet_energy")
        self._wrap(exporters, "to_chrome_trace_fleet", "telemetry.export", n_exported)

        # -- check: the validators (module globals, so nested calls are seen).
        import repro.check.schedule as schedule

        for name in ("validate_schedule", "validate_fleet_run", "validate_fleet_energy"):
            self._wrap(schedule, name, f"check.{name}", n_violations)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # ---- per-layer metrics ------------------------------------------------------

    def window(self) -> tuple[int, Counter[str]]:
        """A mark to measure a later interval from (see :meth:`since`)."""
        return len(self.log), Counter(self.counts)

    def since(self, mark: tuple[int, Counter[str]]) -> dict[str, float]:
        """Per-layer metrics for the spans and counts recorded after ``mark``."""
        lo, counts0 = mark
        hi = len(self.log)
        n = Counter(self.counts)
        n.subtract(counts0)
        own = self.log.self_seconds(lo, hi)

        def s(*names: str) -> float:
            return sum(own.get(name, 0.0) for name in names)

        by_layer: Counter[str] = Counter()
        for name, sec in own.items():
            by_layer[_layer(name)] += sec
        synth_calls = n["setup.synthesize"]
        lookups = n["serving.cache_cost"] + n["serving.cache_schedule"]
        loop_s = s("events.run")
        return {
            "setup.plans": n["setup.build_plan"],
            "setup.synth_calls": synth_calls,
            "setup.synth_s": s("setup.synthesize"),
            "setup.solve_s": s("setup.solve"),
            "setup.synth_reuse": len(self.distinct_plans) / synth_calls if synth_calls else 0.0,
            "engine.dag_builds": n["engine.iteration_tasks"],
            "engine.tasks_built": n["engine.tasks_built"],
            "engine.dag_build_s": s("engine.iteration_tasks"),
            "engine.split_calls": n["engine.split"],
            "engine.split_s": s("engine.split"),
            "costmodel.priced": n["costmodel.op_cost"] + n["costmodel.transfer_cost"],
            "costmodel.price_s": by_layer["costmodel"],
            "events.runs": n["events.run"],
            "events.tasks_scheduled": n["events.tasks_scheduled"],
            "events.loop_s": loop_s,
            "events.tasks_per_s": n["events.tasks_scheduled"] / loop_s if loop_s else 0.0,
            "faults.calls": n["faults.perturbed_machine"] + n["faults.epoch"],
            "faults.s": by_layer["faults"],
            "serving.steps": n["serving.step"],
            "serving.step_s": s("serving.step"),
            "serving.policy_s": s("serving.plan_iteration"),
            "serving.cache_s": s("serving.cache_cost", "serving.cache_schedule"),
            "serving.cache_lookups": lookups,
            "serving.cache_misses": n["serving.cache_misses"],
            "serving.cache_hit_ratio": 1.0 - n["serving.cache_misses"] / lookups if lookups else 0.0,
            "fleet.router_s": s("fleet.run"),
            "fleet.choose_calls": n["fleet.choose"],
            "fleet.choose_s": s("fleet.choose"),
            "telemetry.replay_calls": n["telemetry.add_schedule"],
            "telemetry.replay_s": s("telemetry.add_schedule", "telemetry.add_task"),
            "telemetry.spans": n["telemetry.spans"],
            "telemetry.energy_s": s("telemetry.fleet_energy"),
            "telemetry.export_s": s("telemetry.export"),
            "telemetry.events_exported": n["telemetry.events_exported"],
            "check.validate_s": by_layer["check"],
            "check.violations": n["check.violations"],
            "trace.spans": hi - lo,
            "trace.self_s": sum(own.values()),
        }

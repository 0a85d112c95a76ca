"""Whole-request serving-loop simulation over a performance engine.

Local LLM deployments serve requests one at a time (batch size one,
Section 8.2); under a request stream the user-visible latency is queueing
delay plus service time.  :func:`simulate_serving` plays a request stream
through an engine, reusing the engine's deterministic per-shape service
times, and reports throughput/latency statistics — the metrics a downstream
user sizes their machine with.

Section 8.2 ("Batching Inference") also shows PowerInfer keeps a >4x
advantage up to batch 32 even though joint activations densify.  With
``max_batch > 1`` the same loop batches dynamically: when the server frees
up it takes up to ``max_batch`` queued requests and serves them as one
padded batch, trading per-request latency for throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.base import PerfEngine
from repro.serving.arrival import Request
from repro.serving.metrics import merge_busy_intervals, percentile
from repro.units import Hertz, Ratio, Seconds, TokensPerSecond

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.telemetry.tracer import Tracer

__all__ = ["CompletedRequest", "ServingReport", "simulate_serving"]


@dataclass(frozen=True)
class CompletedRequest:
    """Timing of one served request."""

    request: Request
    start_time: Seconds
    finish_time: Seconds

    @property
    def queue_delay(self) -> Seconds:
        return self.start_time - self.request.arrival_time

    @property
    def latency(self) -> Seconds:
        """Arrival-to-completion time (what the user experiences)."""
        return self.finish_time - self.request.arrival_time

    @property
    def service_time(self) -> Seconds:
        return self.finish_time - self.start_time


@dataclass
class ServingReport:
    """Aggregate statistics of a serving simulation."""

    completed: list[CompletedRequest] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        return len(self.completed)

    @property
    def makespan(self) -> Seconds:
        if not self.completed:
            return 0.0
        return max(c.finish_time for c in self.completed)

    @property
    def throughput_rps(self) -> Hertz:
        """Requests completed per second of simulated time."""
        span = self.makespan
        return self.n_requests / span if span else 0.0

    @property
    def tokens_per_second(self) -> TokensPerSecond:
        span = self.makespan
        total = sum(c.request.output_len for c in self.completed)
        return total / span if span else 0.0

    @property
    def utilization(self) -> Ratio:
        """Fraction of simulated time the server was busy.

        Busy time is the union of per-request service intervals: a batch
        of 8 occupies the server once, not 8 times, so utilization never
        exceeds 1.
        """
        span = self.makespan
        busy = merge_busy_intervals(
            (c.start_time, c.finish_time) for c in self.completed
        )
        return busy / span if span else 0.0

    def latency_percentile(self, q: float) -> Seconds:
        """User-visible latency percentile, ``q`` in [0, 100]."""
        return percentile((c.latency for c in self.completed), q)

    @property
    def mean_queue_delay(self) -> Seconds:
        if not self.completed:
            return 0.0
        return float(np.mean([c.queue_delay for c in self.completed]))


def simulate_serving(
    engine: PerfEngine,
    requests: list[Request],
    max_batch: int = 1,
    tracer: "Tracer | None" = None,
) -> ServingReport:
    """Serve ``requests`` FCFS on ``engine``; returns the timing report.

    When the server becomes free it dequeues every waiting request (up to
    ``max_batch``, FCFS) and serves them together; if none are waiting it
    idles until the next arrival.  All members of a batch complete when the
    batch completes, and its service time follows the engine's
    union-activation batch model, sized by the batch's longest prompt and
    output (the padded-batch semantics of static batching).  The default
    ``max_batch=1`` serves one request at a time.

    Service time for each padded ``(input_len, output_len, batch)`` shape is
    obtained from the engine's deterministic request simulation and
    memoized, so streams with repeated shapes simulate quickly.

    A ``tracer`` records each batch's sampled engine timeline at its
    service start plus one ``batch`` region per service window; because
    cached service times would skip the engine entirely, traced runs
    re-simulate cache hits to keep the span record complete — the report
    itself stays bit-identical.

    Raises:
        ValueError: On ``max_batch < 1``.
    """
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    tracing = tracer is not None and tracer.enabled
    pending = sorted(requests, key=lambda r: r.arrival_time)
    report = ServingReport()
    service_cache: dict[tuple[int, int, int], float] = {}
    now = 0.0
    i = 0
    n = len(pending)
    while i < n:
        # Idle until the next arrival if nothing is queued.
        now = max(now, pending[i].arrival_time)
        batch = [pending[i]]
        i += 1
        while i < n and len(batch) < max_batch and pending[i].arrival_time <= now:
            batch.append(pending[i])
            i += 1
        # Padded batch dimensions.
        input_len = max(r.input_len for r in batch)
        output_len = max(r.output_len for r in batch)
        shape = (input_len, output_len, len(batch))
        if tracing or shape not in service_cache:
            # A traced cache hit re-simulates so this window gets its spans.
            result = engine.simulate_request(
                input_len, output_len, batch=len(batch), tracer=tracer, trace_t0=now
            )
            service_cache.setdefault(shape, result.total_time)
        finish = now + service_cache[shape]
        if tracing:
            tracer.add_region("server", "batch", now, finish, args={"n": len(batch)})
        for request in batch:
            report.completed.append(
                CompletedRequest(request=request, start_time=now, finish_time=finish)
            )
        now = finish
    return report

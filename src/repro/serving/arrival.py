"""Request arrival processes for serving simulations.

The paper's target setting is a local deployment serving one user's
requests with low latency (Section 1).  To study that regime — and how far
a machine can be pushed before queueing delay dominates — we model request
streams as a Poisson process whose prompt/output lengths come from the
:mod:`repro.workloads.prompts` distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.units import Hertz, Seconds
from repro.workloads.prompts import PromptWorkload

__all__ = ["Request", "poisson_arrivals"]


@dataclass(frozen=True)
class Request:
    """One serving request.

    ``arrival_time`` is in seconds on the simulated clock, which starts at
    0; a negative or non-finite arrival raises ``ValueError``.

    ``deadline`` is an optional per-request completion deadline in seconds
    *relative to arrival*; ``None`` means the request never times out
    (unless the server imposes a default).  Deadline enforcement is the
    continuous server's job — see
    :class:`repro.serving.continuous.ContinuousServer`.

    ``priority`` ranks requests for fleet brownout (higher is more
    important; the router sheds the lowest classes first when surviving
    capacity drops).  ``session`` is an optional conversation id used by
    the session-affinity router policy to pin a conversation's requests
    to one replica (warm KV locality).  Both are inert outside the fleet
    layer (:mod:`repro.serving.fleet`).
    """

    request_id: int
    arrival_time: Seconds
    input_len: int
    output_len: int
    deadline: Seconds | None = None
    priority: int = 0
    session: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.arrival_time) and self.arrival_time >= 0):
            raise ValueError("arrival_time must be finite and non-negative")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if self.priority < 0:
            raise ValueError("priority must be non-negative")


def poisson_arrivals(
    workload: PromptWorkload,
    rate: Hertz,
    n_requests: int,
    rng: np.random.Generator,
    output_lengths: tuple[int, ...] = (8, 128, 512),
    output_weights: tuple[float, ...] = (0.2, 0.6, 0.2),
    deadline: Seconds | None = None,
) -> list[Request]:
    """Sample a Poisson request stream.

    Args:
        workload: Prompt-length distribution.
        rate: Mean arrivals per second.
        n_requests: Stream length.
        rng: Seeded generator.
        output_lengths: Possible response lengths (paper's 8/128/512).
        output_weights: Mixture weights over ``output_lengths``; they are
            normalized, so any non-negative weights with a positive sum
            are accepted.
        deadline: Optional per-request completion deadline (seconds after
            arrival) stamped on every request.

    Returns:
        Requests ordered by arrival time (empty for ``n_requests == 0``).

    Raises:
        ValueError: On ``rate <= 0``, ``n_requests < 0``, mismatched or
            empty length/weight vectors, or weights that are negative,
            non-finite, or sum to zero.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    if not output_lengths or len(output_lengths) != len(output_weights):
        raise ValueError(
            "output_lengths and output_weights must be non-empty and align"
        )
    if any(length <= 0 for length in output_lengths):
        raise ValueError("output_lengths must be positive")
    weights = np.asarray(output_weights, dtype=np.float64)
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("output_weights must be finite and non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("output_weights must sum to a positive value")
    weights = weights / total
    if n_requests == 0:
        return []

    gaps = rng.exponential(1.0 / rate, size=n_requests)
    arrivals = np.cumsum(gaps)
    inputs = workload.sample_input_lengths(n_requests, rng)
    outputs = rng.choice(output_lengths, size=n_requests, p=weights)
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

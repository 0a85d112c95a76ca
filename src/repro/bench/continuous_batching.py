"""Continuous vs static batching under Poisson load (beyond-paper study).

The paper's batching result (Figure 14) is throughput at a fixed batch
size; a serving deployment instead faces a request *stream*.  This driver
plays identical Poisson streams through the three schedulers the serving
subsystem offers — whole-request FCFS, static padded batching, and
iteration-level continuous batching — across arrival rates, and reports
the user-facing metrics (mean/p99 latency, TTFT, TBT, goodput) that show
why production systems schedule at token granularity.

All three schedulers see the same engine and the same streams, so the
comparison isolates the scheduling discipline.
"""

from __future__ import annotations

import numpy as np

from repro.bench.runner import make_engine
from repro.serving import (
    SLO,
    poisson_arrivals,
    simulate_continuous_serving,
    simulate_serving,
)
from repro.workloads import CHATGPT_PROMPTS

__all__ = ["ARRIVAL_RATES", "run_continuous_batching"]

MODEL = "opt-6.7b"
MACHINE = "pc-high"
DTYPE = "int4"
N_REQUESTS = 40
MAX_BATCH = 8
KV_CARVE_BYTES = 1.0 * 2**30
ARRIVAL_RATES = (0.1, 0.3, 1.0)
DEFAULT_SLO = SLO(ttft_target=5.0, tbt_target=0.5)


def _mean_latency(report) -> float:
    return float(np.mean([c.latency for c in report.completed]))


def run_continuous_batching() -> list[dict]:
    """FCFS vs static batching vs continuous batching across arrival rates."""
    engine = make_engine(
        "powerinfer", MODEL, MACHINE, DTYPE, kv_gpu_budget_bytes=KV_CARVE_BYTES
    )
    rows: list[dict] = []
    for rate in ARRIVAL_RATES:
        requests = poisson_arrivals(
            CHATGPT_PROMPTS,
            rate=rate,
            n_requests=N_REQUESTS,
            rng=np.random.default_rng(1234),
        )
        fcfs = simulate_serving(engine, requests)
        static = simulate_serving(engine, requests, max_batch=MAX_BATCH)
        cont = simulate_continuous_serving(engine, requests, max_batch=MAX_BATCH)

        # Whole-request schedulers deliver all tokens at completion, so the
        # first token arrives with the last: TTFT equals latency.
        for name, report in (("fcfs", fcfs), ("static-batch", static)):
            rows.append(
                {
                    "rate_rps": rate,
                    "scheduler": name,
                    "mean_latency_s": _mean_latency(report),
                    "p99_latency_s": report.latency_percentile(99),
                    "mean_ttft_s": _mean_latency(report),
                    "p99_tbt_ms": float("nan"),
                    "tokens_per_s": report.tokens_per_second,
                    "goodput_rps": float("nan"),
                    "utilization": report.utilization,
                }
            )
        rows.append(
            {
                "rate_rps": rate,
                "scheduler": "continuous",
                "mean_latency_s": cont.mean_latency,
                "p99_latency_s": cont.latency_percentile(99),
                "mean_ttft_s": cont.mean_ttft,
                "p99_tbt_ms": cont.tbt_percentile(99) * 1e3,
                "tokens_per_s": cont.tokens_per_second,
                "goodput_rps": cont.goodput(DEFAULT_SLO),
                "utilization": cont.utilization,
            }
        )
    return rows

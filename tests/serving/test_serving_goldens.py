"""Bit-identity goldens for the two serving loops.

The digests below were recorded from the serving code as it stood before
the continuous server lost its batch-mode intake and the dynamic-batching
loop was folded into :func:`simulate_serving`.  Any change to a report
float, a token timestamp or a trace record shows up here as a digest
mismatch; the digests are never re-recorded to make a refactor pass.

* ``chaos/*`` — the :mod:`repro.bench.fault_tolerance` chaos scenario
  (PCIe degrade, KV shrink, device stall) with degradation off and on,
  traced and validated.
* ``whole/*`` — per-request ``(start_time, finish_time)`` floats of the
  whole-request loop at ``max_batch`` 1 and 8 on a fixed seeded stream,
  plus the traced span records at ``max_batch=8``.
"""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench import fault_tolerance as ft
from repro.bench.runner import make_engine
from repro.engine.powerinfer import PowerInferEngine
from repro.serving import poisson_arrivals, simulate_continuous_serving, simulate_serving
from repro.telemetry.exporters import to_jsonl_records
from repro.telemetry.tracer import Tracer
from repro.workloads import CHATGPT_PROMPTS

GOLDEN = {
    "chaos/naive/report": "6f8fc85409121ec127b90df91bec6d7792f7945f4b339de93f3b4e5835d4e521",
    "chaos/naive/busy": "0c014f81ce25050960a2c17e83c4a9231579d450231fc65dde8d18b4fb6bd192",
    "chaos/naive/tokens": "1df2dd15c00bf5dd6199d31afdefe6bcb59a06fc4ad1067ad0afbfe91a974aca",
    "chaos/naive/trace": "b3a9a7273d854b4d42f760250e30f724ab41b95240297775240e6b8064e9813b",
    "chaos/degraded/report": "cd318c4b84bcc086e2e290359d4c02220096a5e7d5738d9fad9f77d585fe6c52",
    "chaos/degraded/busy": "b5d31cfd4c1bf01da3f18fb56d3577a23f8b8fe89221b5c7af5bbba8a9c3d969",
    "chaos/degraded/tokens": "9add46b1186ec6c72736eb79e9bcb0c6bfb5ad6b88e8765db7bce8f0ed16a3ca",
    "chaos/degraded/trace": "2d8b0e0d331e32578ec9c320fc0d09948924218dc5b9f3bdbd867ac3fdc36060",
    "whole/b1/times": "4b43d3b0fe4c0404c09faaad45c681e094e99ebcce7ff5f764abcfbb4ea73a9c",
    "whole/b8/times": "f1e084d44e609b1765e777d238e7566390bc9ad59910697783db56db3ba41615",
    "whole/b8/trace": "f7fcc410ccc732dcbfee8ada91a9605e65e557f358e957155b61d03c02635da4",
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


_RECORD_LISTS = (
    "task_spans", "request_spans", "request_events", "regions", "instants", "counters"
)


def _trace_digest(tracer, chunk: int = 50_000) -> str:
    """Digest of the tracer's JSONL records (``repr`` keeps floats exact).

    A traced chaos run holds about two million task spans, so their records
    are built and hashed a chunk at a time to keep memory bounded.
    """

    def records(**lists) -> bytes:
        part = SimpleNamespace(**{name: lists.get(name, ()) for name in _RECORD_LISTS})
        return repr(to_jsonl_records(part)).encode()

    h = hashlib.sha256()
    spans = tracer.task_spans
    for i in range(0, len(spans), chunk):
        h.update(records(task_spans=spans[i : i + chunk]))
    h.update(records(**{name: getattr(tracer, name) for name in _RECORD_LISTS[1:]}))
    return h.hexdigest()


def _chaos_digests(label: str, degradation: bool) -> dict[str, str]:
    engine = make_engine("powerinfer", ft.MODEL, ft.MACHINE, ft.DTYPE)
    requests = poisson_arrivals(
        CHATGPT_PROMPTS,
        rate=ft.RATE_RPS,
        n_requests=ft.N_REQUESTS,
        rng=np.random.default_rng(ft.SEED),
        deadline=ft.DEADLINE_S,
    )
    tracer = Tracer()
    report = simulate_continuous_serving(
        engine,
        requests,
        policy="chunked",
        max_batch=ft.MAX_BATCH,
        kv_budget_bytes=ft.KV_BUDGET_BYTES,
        max_prefill_tokens=32,
        faults=ft.default_fault_schedule(),
        max_retries=ft.MAX_RETRIES,
        max_queue=ft.MAX_QUEUE,
        degradation=degradation,
        tracer=tracer,
        validate=True,
    )
    return {
        f"chaos/{label}/report": _digest(report.to_dict(slo=ft.DEFAULT_SLO)),
        f"chaos/{label}/busy": _digest(report.busy_intervals),
        f"chaos/{label}/tokens": _digest(
            [[m.request.request_id, list(m.token_times)] for m in report.completed]
        ),
        f"chaos/{label}/trace": _trace_digest(tracer),
    }


def _whole_request_digests(engine) -> dict[str, str]:
    requests = poisson_arrivals(
        CHATGPT_PROMPTS,
        rate=20.0,
        n_requests=40,
        rng=np.random.default_rng(2024),
        output_lengths=(8, 32),
        output_weights=(0.5, 0.5),
    )
    digests = {}
    for max_batch in (1, 8):
        report = simulate_serving(engine, requests, max_batch=max_batch)
        digests[f"whole/b{max_batch}/times"] = _digest(
            [[c.request.request_id, c.start_time, c.finish_time] for c in report.completed]
        )
    tracer = Tracer()
    simulate_serving(engine, requests, max_batch=8, tracer=tracer)
    digests["whole/b8/trace"] = _trace_digest(tracer)
    return digests


@pytest.mark.parametrize("label,degradation", [("naive", False), ("degraded", True)])
def test_chaos_continuous_serving_bit_identical(label, degradation):
    digests = _chaos_digests(label, degradation)
    assert digests == {k: GOLDEN[k] for k in digests}


def test_whole_request_loop_bit_identical(mini_plan):
    digests = _whole_request_digests(PowerInferEngine(mini_plan))
    assert digests == {k: GOLDEN[k] for k in digests}

"""Tests for dynamic-batching serving."""

import pytest

from repro.engine.powerinfer import PowerInferEngine
from repro.serving.arrival import Request
from repro.serving.simulator import simulate_serving


@pytest.fixture(scope="module")
def engine(mini_plan):
    return PowerInferEngine(mini_plan)


def burst(n, input_len=16, output_len=32, gap=0.001):
    return [
        Request(request_id=i, arrival_time=gap * i, input_len=input_len, output_len=output_len)
        for i in range(n)
    ]


class TestBatchedServing:
    def test_all_requests_complete(self, engine):
        report = simulate_serving(engine, burst(10), max_batch=4)
        assert report.n_requests == 10

    def test_batch_members_finish_together(self, engine):
        report = simulate_serving(engine, burst(6), max_batch=8)
        finishes = sorted({round(c.finish_time, 9) for c in report.completed})
        # First request starts alone (nothing else has arrived); the other
        # five batch together on the second dispatch.
        assert len(finishes) <= 3

    def test_max_batch_respected(self, engine):
        report = simulate_serving(engine, burst(9), max_batch=2)
        starts = [c.start_time for c in report.completed]
        for start in set(starts):
            assert starts.count(start) <= 2

    def test_batching_beats_fcfs_on_makespan_under_burst(self, engine):
        requests = burst(12)
        fcfs = simulate_serving(engine, requests)
        batched = simulate_serving(engine, requests, max_batch=8)
        # Union-activation batching amortizes weight reads: the burst
        # drains faster (Figure 14's throughput effect).
        assert batched.makespan < fcfs.makespan

    def test_no_queue_degenerates_to_fcfs(self, engine):
        spaced = [
            Request(request_id=i, arrival_time=100.0 * i, input_len=16, output_len=32)
            for i in range(3)
        ]
        fcfs = simulate_serving(engine, spaced)
        batched = simulate_serving(engine, spaced, max_batch=8)
        assert batched.makespan == pytest.approx(fcfs.makespan, rel=1e-6)

    def test_padded_batch_dimensions(self, engine):
        # Mixed shapes: batch service time follows the largest member.
        requests = [
            Request(request_id=0, arrival_time=0.0, input_len=8, output_len=8),
            Request(request_id=1, arrival_time=0.0, input_len=32, output_len=64),
        ]
        report = simulate_serving(engine, requests, max_batch=2)
        big_alone = engine.simulate_request(32, 64, batch=2).total_time
        c0, c1 = sorted(report.completed, key=lambda c: c.request.request_id)
        assert c0.finish_time == pytest.approx(c1.finish_time)
        assert c0.service_time == pytest.approx(big_alone)

    def test_invalid_max_batch(self, engine):
        with pytest.raises(ValueError):
            simulate_serving(engine, burst(2), max_batch=0)

    def test_empty_request_list(self, engine):
        report = simulate_serving(engine, [], max_batch=4)
        assert report.n_requests == 0
        assert report.makespan == 0.0
        assert report.utilization == 0.0

    def test_utilization_never_exceeds_one(self, engine):
        # 8 requests dispatched as one batch: utilization counts the busy
        # interval once, not 8 times.
        simultaneous = [
            Request(request_id=i, arrival_time=0.0, input_len=16, output_len=32)
            for i in range(8)
        ]
        report = simulate_serving(engine, simultaneous, max_batch=8)
        assert 0.0 < report.utilization <= 1.0 + 1e-9

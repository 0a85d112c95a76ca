"""Bit-identity goldens for one iteration schedule per engine class.

Each digest covers a whole :class:`~repro.hardware.events.ScheduleResult`:
every task's ``(name, resource, start, end, tag, deps)`` in scheduling
order, the makespan, ``busy_time`` and ``tag_time``.  Floats are hashed by
their exact ``repr``, so a change in the event loop's tie-breaking, in an
expected activation split or in a priced duration shows up as a digest
mismatch.  The digests were recorded before plan splits were memoized and
``EventSimulator.run`` was restructured; they are never re-recorded to make
a refactor pass.
"""

import hashlib
import json

import pytest

from repro.core.pipeline import build_plan
from repro.engine.baselines import (
    DejaVuUmEngine,
    FlexGenEngine,
    LayerwiseSparseEngine,
    LlamaCppEngine,
    VllmEngine,
)
from repro.engine.powerinfer import PowerInferEngine
from repro.hardware.spec import A100_SERVER
from repro.quant.formats import FP16

GOLDEN = {
    "PowerInferEngine": "f0a85c5216f282ae58798f721f0b8f7a82ae9f85ec9f3188f15ee6ee1cb36602",
    "LlamaCppEngine": "4d7b43597efc69e2f3ba93470f7bac10021c7f84c102b8b45bddc1ded08b6759",
    "FlexGenEngine": "7d3c66878b768b41bacccf0d4996837a289e19d5c40781df25bc3768fb95e2c1",
    "DejaVuUmEngine": "21079720c504528c8f79231b282bbba7125621663ea5242c347a110e66f6f44c",
    "LayerwiseSparseEngine": "24335bf51b98ffc007bd9c21b35ca8450a982b0478e4aa89f27e4c2d8bb88e5d",
    "VllmEngine": "243e01128811748437f3d6e0812c73fc158c2a6a4983abe631583c8791f4b16d",
}


def schedule_digest(result) -> str:
    payload = {
        "tasks": [
            [t.name, t.resource, repr(t.start), repr(t.end), t.tag, list(t.deps)]
            for t in result.tasks.values()
        ],
        "makespan": repr(result.makespan),
        "busy_time": {k: repr(v) for k, v in result.busy_time.items()},
        "tag_time": {k: repr(v) for k, v in result.tag_time.items()},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def engines(mini_plan, mini_plan_none, mini_model):
    a100_plan = build_plan(mini_model, A100_SERVER, FP16, policy="none", seed=0)
    return {
        "PowerInferEngine": PowerInferEngine(mini_plan),
        "LlamaCppEngine": LlamaCppEngine(mini_plan_none),
        "FlexGenEngine": FlexGenEngine(mini_plan_none),
        "DejaVuUmEngine": DejaVuUmEngine(mini_plan),
        "LayerwiseSparseEngine": LayerwiseSparseEngine(mini_plan),
        "VllmEngine": VllmEngine(a100_plan),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_iteration_schedule_is_bit_identical(engines, name):
    # A decode step at batch 7 exercises the union-rate splits (batch > 1).
    result = engines[name].simulate_iteration(96, 1, 7)
    assert schedule_digest(result) == GOLDEN[name]

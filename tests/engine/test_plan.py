"""Tests for deployment plans: accounting and expected activation splits."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.bench.runner import cached_plan
from repro.engine.plan import DeploymentPlan, _union_rate
from repro.hardware.memory import OutOfMemoryError
from repro.hardware.spec import PC_HIGH
from repro.models.config import ModelConfig
from repro.quant.formats import FP16


@pytest.fixture(scope="module")
def model():
    return ModelConfig(
        name="plan-test", n_layers=2, d_model=128, d_ffn=512, n_heads=4, vocab_size=512
    )


def make_plan(model, gpu_frac=0.5, predictor_bytes=None, machine=PC_HIGH):
    n = model.n_layers
    rng = np.random.default_rng(0)
    mlp_probs = [rng.random(model.d_ffn) * 0.3 for _ in range(n)]
    attn_probs = [rng.random(model.n_heads) for _ in range(n)]
    mlp_masks = []
    attn_masks = []
    for li in range(n):
        m = np.zeros(model.d_ffn, dtype=bool)
        m[: int(gpu_frac * model.d_ffn)] = True
        mlp_masks.append(m)
        a = np.zeros(model.n_heads, dtype=bool)
        a[: int(gpu_frac * model.n_heads)] = True
        attn_masks.append(a)
    return DeploymentPlan(
        model=model,
        machine=machine,
        dtype=FP16,
        mlp_probs=mlp_probs,
        attn_probs=attn_probs,
        mlp_gpu_masks=mlp_masks,
        attn_gpu_masks=attn_masks,
        predictor_bytes=predictor_bytes or [1000.0] * n,
    )


class TestValidation:
    def test_shape_checks(self, model):
        plan_kwargs = dict(
            model=model,
            machine=PC_HIGH,
            dtype=FP16,
            mlp_probs=[np.zeros(model.d_ffn)] * 2,
            attn_probs=[np.zeros(model.n_heads)] * 2,
            mlp_gpu_masks=[np.zeros(model.d_ffn, dtype=bool)] * 2,
            attn_gpu_masks=[np.zeros(model.n_heads, dtype=bool)] * 2,
        )
        DeploymentPlan(**plan_kwargs)  # baseline ok
        bad = dict(plan_kwargs)
        bad["mlp_probs"] = [np.zeros(model.d_ffn)]
        with pytest.raises(ValueError, match="per layer"):
            DeploymentPlan(**bad)
        bad = dict(plan_kwargs)
        bad["attn_probs"] = [np.zeros(3)] * 2
        with pytest.raises(ValueError, match="n_heads"):
            DeploymentPlan(**bad)

    def test_default_predictor_bytes(self, model):
        plan = make_plan(model)
        plan_no_pred = DeploymentPlan(
            model=model,
            machine=PC_HIGH,
            dtype=FP16,
            mlp_probs=plan.mlp_probs,
            attn_probs=plan.attn_probs,
            mlp_gpu_masks=plan.mlp_gpu_masks,
            attn_gpu_masks=plan.attn_gpu_masks,
        )
        assert plan_no_pred.predictor_bytes == [0.0, 0.0]


class TestMemoryAccounting:
    def test_gpu_cpu_weight_split(self, model):
        plan = make_plan(model, gpu_frac=0.5)
        total = FP16.nbytes(model.n_layers * model.params_per_layer)
        assert plan.gpu_weight_bytes + plan.cpu_weight_bytes == pytest.approx(total)
        assert plan.gpu_weight_bytes == pytest.approx(total / 2, rel=0.01)

    def test_memory_report_fits_pc_high(self, model):
        report = make_plan(model).memory_report()
        assert 0 < report.gpu_fraction < 1
        assert 0 < report.cpu_fraction < 1

    def test_report_raises_when_gpu_overflows(self, model):
        import dataclasses

        from repro.hardware.spec import PC_HIGH as base

        tiny_gpu = dataclasses.replace(
            base, gpu=base.gpu.with_memory_capacity(1000.0)
        )
        plan = make_plan(model, machine=tiny_gpu)
        with pytest.raises(OutOfMemoryError):
            plan.memory_report()


class TestActivationSplits:
    def test_expected_split_sums_to_total_expectation(self, model):
        plan = make_plan(model)
        g, c = plan.mlp_active_split(0, batch=1)
        assert g + c == pytest.approx(plan.mlp_probs[0].sum())

    def test_union_split_grows_with_batch(self, model):
        plan = make_plan(model)
        g1, c1 = plan.mlp_active_split(0, batch=1)
        g8, c8 = plan.mlp_active_split(0, batch=8)
        assert g8 > g1 and c8 > c1

    def test_sampled_split_near_expectation(self, model, rng):
        plan = make_plan(model)
        samples = [plan.sampled_mlp_split(0, rng) for _ in range(200)]
        mean_gpu = np.mean([s[0] for s in samples])
        expected_gpu, _ = plan.mlp_active_split(0)
        assert mean_gpu == pytest.approx(expected_gpu, rel=0.1)

    def test_attn_split(self, model, rng):
        plan = make_plan(model)
        g, c = plan.attn_active_split(0)
        assert g + c == pytest.approx(plan.attn_probs[0].sum())
        sg, sc = plan.sampled_attn_split(0, rng)
        assert 0 <= sg <= model.n_heads and 0 <= sc <= model.n_heads


class TestImmutablePlan:
    def test_fields_cannot_be_reassigned(self, model):
        plan = make_plan(model)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.mlp_gpu_masks = [np.ones(model.d_ffn, dtype=bool)] * model.n_layers
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.expected_context = 1

    @pytest.mark.parametrize(
        "field", ["mlp_probs", "attn_probs", "mlp_gpu_masks", "attn_gpu_masks"]
    )
    def test_arrays_are_read_only(self, model, field):
        plan = make_plan(model)
        arr = getattr(plan, field)[0]
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[1]

    def test_arrays_are_not_copied(self, model):
        probs = [np.full(model.d_ffn, 0.1) for _ in range(model.n_layers)]
        plan = dataclasses.replace(make_plan(model), mlp_probs=probs)
        assert all(a is b for a, b in zip(plan.mlp_probs, probs))

    def test_replace_sees_fresh_splits(self, model):
        plan = make_plan(model, gpu_frac=0.5)
        warm = plan.mlp_active_split(0, batch=7)
        assert warm[1] > 0.0
        all_gpu = dataclasses.replace(
            plan, mlp_gpu_masks=[np.ones(model.d_ffn, dtype=bool)] * model.n_layers
        )
        gpu, cpu = all_gpu.mlp_active_split(0, batch=7)
        assert cpu == 0.0
        assert gpu == float(_union_rate(plan.mlp_probs[0], 7).sum())
        assert plan.mlp_active_split(0, batch=7) == warm


class TestMemoizedSplits:
    def test_memo_equals_fresh_union_rate_bit_for_bit(self, mini_plan):
        plan = dataclasses.replace(mini_plan)  # a cold memo
        for batch, li, kind in itertools.product(
            (1, 7, 64), range(plan.model.n_layers), ("mlp", "attn")
        ):
            split = getattr(plan, f"{kind}_active_split")
            probs = _union_rate(getattr(plan, f"{kind}_probs")[li], batch)
            mask = getattr(plan, f"{kind}_gpu_masks")[li]
            fresh = (float(probs[mask].sum()), float(probs[~mask].sum()))
            assert split(li, batch) == fresh  # cold: computed
            assert split(li, batch) == fresh  # warm: from the memo


def list_sort_demotion(plan, nbytes):
    """The original list-and-sort ``with_gpu_bytes_freed`` mask computation."""
    neuron_bytes = plan.model.mlp_neuron_bytes(plan.dtype)
    candidates = []
    for li in range(plan.model.n_layers):
        probs = plan.mlp_probs[li]
        for ni in np.flatnonzero(plan.mlp_gpu_masks[li]):
            candidates.append((float(probs[ni]), li, int(ni)))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    n_demote = min(len(candidates), int(np.ceil(nbytes / neuron_bytes)))
    masks = [mask.copy() for mask in plan.mlp_gpu_masks]
    for _, li, ni in candidates[:n_demote]:
        masks[li][ni] = False
    return masks


class TestGpuBytesFreed:
    def assert_matches_list_sort(self, plan, nbytes):
        freed = plan.with_gpu_bytes_freed(nbytes)
        expected = list_sort_demotion(plan, nbytes)
        for got, want in zip(freed.mlp_gpu_masks, expected):
            np.testing.assert_array_equal(got, want)
        assert all(a is b for a, b in zip(freed.attn_gpu_masks, plan.attn_gpu_masks))

    @pytest.mark.parametrize("nbytes", [1.0, 10 * 2**20, 1e15])
    def test_mini_plan_matches_list_sort(self, mini_plan, nbytes):
        self.assert_matches_list_sort(mini_plan, nbytes)

    def test_tied_probabilities_match_list_sort(self, model):
        plan = make_plan(model, gpu_frac=0.75)
        tied = dataclasses.replace(plan, mlp_probs=[np.round(p, 1) for p in plan.mlp_probs])
        self.assert_matches_list_sort(tied, 300 * model.mlp_neuron_bytes(FP16))

    def test_real_plan_matches_list_sort(self):
        plan = cached_plan("opt-6.7b", "pc-low", "int4")
        self.assert_matches_list_sort(plan, 0.4 * plan.gpu_weight_bytes)


class TestGpuLoadShare:
    def test_all_gpu_gives_one(self, model):
        plan = make_plan(model, gpu_frac=1.0)
        assert plan.gpu_neuron_load_share() == pytest.approx(1.0)

    def test_no_gpu_gives_zero(self, model):
        plan = make_plan(model, gpu_frac=0.0)
        assert plan.gpu_neuron_load_share() == 0.0

    def test_share_bounded(self, model):
        plan = make_plan(model, gpu_frac=0.5)
        assert 0.0 < plan.gpu_neuron_load_share() < 1.0

"""Tests for the plan data model."""

import pytest

from repro.baselines.extensions import plan_bpipe, plan_interleaved, plan_sqrt_checkpoint
from repro.baselines.offload import plan_offload
from repro.config import ParallelConfig, TrainingConfig
from repro.core.interleaved_adaptive import plan_interleaved_adaptive
from repro.core.plan import PipelinePlan, StagePlan, merge_unit_counts
from repro.core.refine import refine_partition
from repro.core.search import (
    PlannerContext,
    plan_adapipe,
    plan_even_partitioning,
    plan_policy,
)
from repro.core.strategies import RecomputePolicy
from repro.hardware.cluster import cluster_a
from repro.model.spec import bert_large, tiny_gpt
from repro.profiler.measured import plan_with_measured_profile
from repro.profiler.memory import StageMemory
from repro.training.modules import build_model


def _stage(stage=0, lo=0, hi=4, saved=None, fwd=1.0, bwd=2.0):
    return StagePlan(
        stage=stage,
        layer_start=lo,
        layer_end=hi,
        saved_unit_counts=saved or {"attn.out": 2, "ffn.out": 2},
        forward_time=fwd,
        backward_time=bwd,
        memory=StageMemory(10.0, 1.0, 2.0, 4 - stage),
    )


def _plan(stages):
    return PipelinePlan(
        method="Test",
        parallel=ParallelConfig(1, len(stages), 1),
        train=TrainingConfig(sequence_length=8, global_batch_size=4),
        stages=tuple(stages),
        modeled_iteration_time=1.0,
        hidden_size=64,
    )


class TestStagePlan:
    def test_num_layers(self):
        assert _stage(lo=3, hi=8).num_layers == 5

    def test_num_saved_units(self):
        assert _stage(saved={"a": 3, "b": 4}).num_saved_units == 7

    def test_micro_step_time(self):
        assert _stage(fwd=1.5, bwd=3.0).micro_step_time == pytest.approx(4.5)

    def test_to_stage_costs(self):
        costs = _stage().to_stage_costs()
        assert costs.forward == 1.0
        assert costs.backward == 2.0
        assert costs.activation_bytes == 2.0
        assert costs.static_bytes == 10.0
        assert costs.buffer_bytes == 1.0


class TestPipelinePlan:
    def test_layer_and_saved_counts(self):
        plan = _plan([_stage(0, 0, 3), _stage(1, 3, 8, saved={"x": 5})])
        assert plan.layer_counts() == (3, 5)
        assert plan.saved_unit_counts() == (4, 5)

    def test_peak_memory(self):
        plan = _plan([_stage(0), _stage(1)])
        # static 10 + buffer 1 + 2 * in_flight
        assert plan.peak_memory_bytes() == (10 + 1 + 2 * 4, 10 + 1 + 2 * 3)

    def test_describe_mentions_stages_and_method(self):
        text = _plan([_stage(0), _stage(1, 4, 8)]).describe()
        assert "Test" in text
        assert "stage 0" in text and "stage 1" in text
        assert "feasible=True" in text

    def test_stage_costs_tuple(self):
        plan = _plan([_stage(0), _stage(1)])
        assert len(plan.stage_costs()) == 2


class TestMergeUnitCounts:
    def test_merges_overlapping_keys(self):
        merged = merge_unit_counts([{"a": 1, "b": 2}, {"b": 3, "c": 4}])
        assert merged == {"a": 1, "b": 5, "c": 4}

    def test_empty(self):
        assert merge_unit_counts([]) == {}


def _refined_even_partitioning(ctx):
    even = plan_even_partitioning(ctx)
    refined = refine_partition(ctx, even)
    assert refined is not even  # built from a refinement candidate
    return refined


PLANNERS = {
    "adapipe": plan_adapipe,
    "even-partitioning": plan_even_partitioning,
    "dapple-full": lambda ctx: plan_policy(ctx, RecomputePolicy.FULL, "DAPPLE-Full"),
    "dapple-non": lambda ctx: plan_policy(ctx, RecomputePolicy.NONE, "DAPPLE-Non"),
    "sqrt-checkpoint": plan_sqrt_checkpoint,
    "bpipe": plan_bpipe,
    "interleaved": lambda ctx: plan_interleaved(ctx, RecomputePolicy.FULL, 2),
    "offload": plan_offload,
    "interleaved-adaptive": lambda ctx: plan_interleaved_adaptive(ctx, 2),
    "refine-candidate": _refined_even_partitioning,
}


def _assert_stage_params(plan, layers):
    assert plan.stages
    for stage in plan.stages:
        expected = sum(layer.params for layer in layers[stage.layer_start : stage.layer_end])
        assert expected > 0
        assert stage.params == expected, stage.stage


class TestEveryPlannerCarriesParams:
    """Every planner builds its stages through ``build_plan``, so each stage's
    ``params`` (which prices ZeRO-1 gradient sync at d > 1) is the sum over
    its layer range."""

    @pytest.fixture(scope="class")
    def ctx(self):
        return PlannerContext(
            cluster_a(1),
            bert_large(),
            TrainingConfig(sequence_length=512, global_batch_size=16),
            ParallelConfig(1, 4, 2),
        )

    @pytest.mark.parametrize("name", sorted(PLANNERS))
    def test_stage_params_sum_the_layer_range(self, ctx, name):
        _assert_stage_params(PLANNERS[name](ctx), ctx.layers)

    def test_measured_profile_plan(self):
        spec = tiny_gpt(num_layers=3, hidden_size=32, vocab_size=50)
        train = TrainingConfig(
            sequence_length=16,
            global_batch_size=4,
            micro_batch_size=1,
            sequence_parallel=False,
            flash_attention=False,
        )
        model = build_model(spec, seed=0)
        plan = plan_with_measured_profile(
            model, train, ParallelConfig(1, 2, 1), capacity_bytes=64 * 1024**2,
            iterations=1,
        )
        _assert_stage_params(plan, model.descriptors)

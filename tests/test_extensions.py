"""Tests for the extension baselines (sqrt(L), BPipe, interleaved)."""

import pytest

from repro.baselines.extensions import (
    plan_bpipe,
    plan_interleaved,
    plan_sqrt_checkpoint,
)
from repro.config import ParallelConfig, TrainingConfig
from repro.core.evaluate import evaluate_plan
from repro.core.search import PlannerContext, plan_adapipe, plan_policy
from repro.core.strategies import RecomputePolicy
from repro.hardware.cluster import cluster_a


@pytest.fixture
def pressured_ctx(gpt3):
    """GPT-3 at seq 8192: DAPPLE-Non OOMs, balanced/recompute methods fit."""
    train = TrainingConfig(sequence_length=8192, global_batch_size=16)
    return PlannerContext(cluster_a(8), gpt3, train, ParallelConfig(8, 8, 1))


class TestSqrtCheckpoint:
    def test_uses_less_memory_than_full_recompute(self, pressured_ctx):
        sqrt_plan = plan_sqrt_checkpoint(pressured_ctx)
        full = plan_policy(pressured_ctx, RecomputePolicy.FULL, "DAPPLE-Full")
        assert sqrt_plan.feasible
        assert max(sqrt_plan.peak_memory_bytes()) <= max(full.peak_memory_bytes())

    def test_slower_than_adapipe(self, pressured_ctx):
        """Coarse segments recompute everything; AdaPipe's unit knapsack
        dominates — the Section 2.2 motivation."""
        sqrt_eval = evaluate_plan(plan_sqrt_checkpoint(pressured_ctx), pressured_ctx.cluster)
        ada_eval = evaluate_plan(plan_adapipe(pressured_ctx), pressured_ctx.cluster)
        assert sqrt_eval.iteration_time > ada_eval.iteration_time

    def test_saved_units_are_segment_boundaries(self, pressured_ctx):
        plan = plan_sqrt_checkpoint(pressured_ctx)
        for stage in plan.stages:
            assert set(stage.saved_unit_counts) == {"segment.boundary"}
            assert 1 <= stage.saved_unit_counts["segment.boundary"] <= stage.num_layers

    def test_infeasible_when_nothing_fits(self, gpt3):
        train = TrainingConfig(sequence_length=8192, global_batch_size=16)
        ctx = PlannerContext(
            cluster_a(8),
            gpt3,
            train,
            ParallelConfig(8, 8, 1),
            memory_limit_bytes=1 * 1024**3,
        )
        # A 2-stage pipeline of the 175B model: static state alone exceeds
        # any device, so no segment length can rescue it.
        tiny = PlannerContext(cluster_a(8), gpt3, train, ParallelConfig(8, 2, 1))
        assert not plan_sqrt_checkpoint(tiny).feasible
        del ctx

    def test_segment_length_one_equals_layerwise(self, pressured_ctx):
        from repro.baselines.extensions import sqrt_checkpoint_stage_eval

        layers = pressured_ctx.layers[1:9]
        fixed = sqrt_checkpoint_stage_eval(
            pressured_ctx, 0, layers, pressured_ctx.hard_capacity_bytes, segment_length=1
        )
        assert fixed.saved_unit_counts["segment.boundary"] == len(layers)


class TestBPipe:
    def test_balances_memory_across_pairs(self, pressured_ctx):
        bpipe = plan_bpipe(pressured_ctx)
        non = plan_policy(pressured_ctx, RecomputePolicy.NONE, "DAPPLE-Non")
        assert max(bpipe.peak_memory_bytes()) < max(non.peak_memory_bytes())

    def test_rescues_dapple_non_from_oom(self, pressured_ctx):
        non = evaluate_plan(
            plan_policy(pressured_ctx, RecomputePolicy.NONE, "DAPPLE-Non"),
            pressured_ctx.cluster,
        )
        bpipe = evaluate_plan(plan_bpipe(pressured_ctx), pressured_ctx.cluster)
        assert non.iteration_time is None  # OOM
        assert bpipe.iteration_time is not None

    def test_faster_than_full_recompute_when_it_fits(self, pressured_ctx):
        bpipe = evaluate_plan(plan_bpipe(pressured_ctx), pressured_ctx.cluster)
        full = evaluate_plan(
            plan_policy(pressured_ctx, RecomputePolicy.FULL, "DAPPLE-Full"),
            pressured_ctx.cluster,
        )
        assert bpipe.iteration_time < full.iteration_time

    def test_transfer_overhead_nonzero(self, pressured_ctx):
        bpipe = plan_bpipe(pressured_ctx, overlap_fraction=0.0)
        non = plan_policy(pressured_ctx, RecomputePolicy.NONE, "DAPPLE-Non")
        # With no overlap, stage 0 pays visible eviction time.
        assert bpipe.stages[0].micro_step_time > non.stages[0].micro_step_time

    def test_cannot_balance_past_total_capacity(self, gpt3):
        train = TrainingConfig(sequence_length=16384, global_batch_size=8)
        ctx = PlannerContext(cluster_a(8), gpt3, train, ParallelConfig(8, 8, 1))
        assert not plan_bpipe(ctx).feasible  # average load alone exceeds 80 GB


class TestInterleaved:
    def test_builds_v_times_p_stages(self, pressured_ctx):
        plan = plan_interleaved(pressured_ctx, chunks=2)
        assert len(plan.stages) == 2 * 8

    def test_reduces_bubble_ratio(self, pressured_ctx):
        interleaved = evaluate_plan(
            plan_interleaved(pressured_ctx, RecomputePolicy.FULL, 2),
            pressured_ctx.cluster,
            "interleaved",
        )
        plain = evaluate_plan(
            plan_policy(pressured_ctx, RecomputePolicy.FULL, "DAPPLE-Full"),
            pressured_ctx.cluster,
        )
        assert interleaved.simulation.bubble_ratio < plain.simulation.bubble_ratio

    def test_oom_detection_through_simulation(self, gpt3):
        train = TrainingConfig(sequence_length=16384, global_batch_size=8)
        ctx = PlannerContext(cluster_a(8), gpt3, train, ParallelConfig(8, 8, 1))
        evaluation = evaluate_plan(
            plan_interleaved(ctx, RecomputePolicy.NONE, 2), ctx.cluster, "interleaved"
        )
        assert evaluation.oom

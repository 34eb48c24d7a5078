"""Tests for simulator-guided partition refinement."""

from unittest import mock

import pytest

from repro.config import ParallelConfig, TrainingConfig
from repro.core import refine
from repro.core.evaluate import evaluate_plan
from repro.core.isomorphism import StageEvaluator
from repro.core.partition_dp import phase_model_time
from repro.core.placement import device_classes
from repro.core.refine import _boundary_moves, plan_adapipe_refined, refine_partition
from repro.core.search import PlannerContext, plan_adapipe, plan_even_partitioning
from repro.hardware.cluster import cluster_a
from repro.hardware.device import a100_80gb, ascend910_32gb, derated
from repro.model.spec import bert_large


class TestBoundaryMoves:
    def test_generates_both_directions(self):
        moves = _boundary_moves([(0, 4), (4, 8)])
        assert [(0, 3), (3, 8)] in moves
        assert [(0, 5), (5, 8)] in moves

    def test_never_empties_a_stage(self):
        moves = _boundary_moves([(0, 1), (1, 8)])
        for move in moves:
            for lo, hi in move:
                assert hi > lo

    def test_move_count(self):
        # p-1 cuts, two directions each, minus blocked ones.
        moves = _boundary_moves([(0, 3), (3, 6), (6, 9)])
        assert len(moves) == 4


class TestRefinement:
    def test_never_worse_than_input(self, gpt3_ctx):
        base = plan_adapipe(gpt3_ctx)
        refined = refine_partition(gpt3_ctx, base, max_rounds=2)
        base_time = evaluate_plan(base, gpt3_ctx.cluster).iteration_time
        refined_time = evaluate_plan(refined, gpt3_ctx.cluster).iteration_time
        assert refined_time <= base_time + 1e-12

    def test_refined_at_least_matches_even_partitioning(self, gpt3_ctx):
        """The refinement closes the model-vs-simulator gap that can leave
        raw AdaPipe a hair behind the even partition."""
        refined = plan_adapipe_refined(gpt3_ctx)
        even = plan_even_partitioning(gpt3_ctx)
        refined_time = evaluate_plan(refined, gpt3_ctx.cluster).iteration_time
        even_time = evaluate_plan(even, gpt3_ctx.cluster).iteration_time
        assert refined_time <= even_time * 1.001

    def test_label_marks_refinement(self, gpt3_ctx):
        base = plan_adapipe(gpt3_ctx)
        refined = refine_partition(gpt3_ctx, base, max_rounds=4)
        if refined is not base:
            assert refined.method.endswith("+refine")
            assert refined.modeled_iteration_time is not None

    def test_infeasible_plan_passes_through(self, gpt3_ctx):
        base = plan_adapipe(gpt3_ctx)
        broken = type(base)(
            method=base.method,
            parallel=base.parallel,
            train=base.train,
            stages=base.stages,
            feasible=False,
            hidden_size=base.hidden_size,
        )
        assert refine_partition(gpt3_ctx, broken) is broken

    def test_refined_plan_still_covers_all_layers(self, gpt3_ctx):
        refined = plan_adapipe_refined(gpt3_ctx)
        assert refined.stages[0].layer_start == 0
        assert refined.stages[-1].layer_end == len(gpt3_ctx.layers)
        for a, b in zip(refined.stages, refined.stages[1:]):
            assert a.layer_end == b.layer_start


class TestRefinementOnDataParallelPlans:
    """At d > 1 every candidate carries its stages' parameter counts, so the
    simulated times refinement compares all include ZeRO-1 gradient sync."""

    @pytest.fixture(scope="class")
    def ctx(self):
        return PlannerContext(
            cluster_a(1),
            bert_large(),
            TrainingConfig(sequence_length=512, global_batch_size=16),
            ParallelConfig(1, 4, 2),
        )

    def test_returns_input_or_strictly_faster_new_boundaries(self, ctx):
        base = plan_adapipe(ctx)
        refined = refine_partition(ctx, base)
        if refined is base:
            return
        assert refined.layer_counts() != base.layer_counts()
        assert (
            evaluate_plan(refined, ctx.cluster).iteration_time
            < evaluate_plan(base, ctx.cluster).iteration_time
        )

    def test_refined_modeled_time_is_its_own_phase_model(self, ctx):
        refined = refine_partition(ctx, plan_even_partitioning(ctx))
        assert refined.method == "Even Partitioning+refine"
        evaluator = StageEvaluator(ctx.profiler, ctx.layers, ctx.capacity_bytes)
        evals = [
            evaluator.evaluate(s.stage, s.layer_start, s.layer_end - 1)
            for s in refined.stages
        ]
        assert refined.modeled_iteration_time == phase_model_time(
            evals, ctx.num_micro_batches, ctx.hop_time
        )


class TestRefinementOnAPool:
    """On a device pool, candidates are priced and simulated on the input
    plan's placement, and the refined plan keeps it."""

    @pytest.fixture(scope="class")
    def ctx(self):
        a100 = a100_80gb()
        pool = (a100, a100, derated(a100, 1.5), ascend910_32gb())
        return PlannerContext(
            cluster_a(1).with_device_pool(pool),
            bert_large(),
            TrainingConfig(sequence_length=2048, global_batch_size=16),
            ParallelConfig(1, 4, 1),
        )

    def test_candidates_are_priced_as_placed(self, ctx):
        base = plan_adapipe(ctx)
        placed = {k: v for k, v in base.metadata.items() if k.startswith("placement")}
        assert placed["placement_scales"] != [1.0] * 4  # a mixed placement
        classes = device_classes(ctx.cluster)
        evaluator = ctx.stage_evaluator(
            ctx.ranks([classes[i] for i in placed["placement"]])
        )
        with mock.patch.object(refine, "evaluate_plan", wraps=evaluate_plan) as spy:
            refined = refine_partition(ctx, base)
        candidates = [call.args[0] for call in spy.call_args_list[1:]]
        assert candidates
        for plan in [refined, *candidates]:
            assert {k: plan.metadata[k] for k in placed} == placed
            for stage in plan.stages:
                want = evaluator.evaluate(
                    stage.stage, stage.layer_start, stage.layer_end - 1
                )
                assert (stage.forward_time, stage.backward_time) == (
                    want.forward,
                    want.backward,
                )

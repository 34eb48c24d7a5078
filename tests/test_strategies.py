"""Tests for fixed recomputation policies."""

import pytest

from repro.core.search import plan_policy
from repro.core.strategies import RecomputePolicy, stage_eval_for_policy


class TestPolicySemantics:
    def test_full_keeps_only_always_saved(self):
        policy = RecomputePolicy.FULL
        assert policy.saves_unit("attn.out", always_saved=True)
        assert not policy.saves_unit("attn.q", always_saved=False)
        assert not policy.saves_unit("ffn.act", always_saved=False)

    def test_none_keeps_everything(self):
        policy = RecomputePolicy.NONE
        assert policy.saves_unit("attn.q", always_saved=False)
        assert policy.saves_unit("ffn.act", always_saved=False)

    def test_selective_recomputes_only_attention_core(self):
        policy = RecomputePolicy.SELECTIVE
        assert not policy.saves_unit("attn.core", always_saved=False)
        assert policy.saves_unit("attn.q", always_saved=False)
        assert policy.saves_unit("ffn.act", always_saved=False)


class TestStageEvaluation:
    def test_none_uses_more_memory_than_full(self, gpt3_ctx):
        layers = gpt3_ctx.layers[:10]
        full = stage_eval_for_policy(
            gpt3_ctx.profiler, 0, layers, RecomputePolicy.FULL,
            gpt3_ctx.hard_capacity_bytes,
        )
        none = stage_eval_for_policy(
            gpt3_ctx.profiler, 0, layers, RecomputePolicy.NONE,
            gpt3_ctx.hard_capacity_bytes,
        )
        assert none.memory.total_bytes > full.memory.total_bytes

    def test_full_has_slower_backward(self, gpt3_ctx):
        layers = gpt3_ctx.layers[:10]
        full = stage_eval_for_policy(
            gpt3_ctx.profiler, 0, layers, RecomputePolicy.FULL,
            gpt3_ctx.hard_capacity_bytes,
        )
        none = stage_eval_for_policy(
            gpt3_ctx.profiler, 0, layers, RecomputePolicy.NONE,
            gpt3_ctx.hard_capacity_bytes,
        )
        assert full.backward > none.backward
        assert full.forward == pytest.approx(none.forward)

    def test_selective_between_full_and_none(self, gpt3_ctx):
        layers = gpt3_ctx.layers[:10]
        evals = {
            policy: stage_eval_for_policy(
                gpt3_ctx.profiler, 0, layers, policy, gpt3_ctx.hard_capacity_bytes
            )
            for policy in RecomputePolicy
        }
        assert (
            evals[RecomputePolicy.NONE].backward
            <= evals[RecomputePolicy.SELECTIVE].backward
            <= evals[RecomputePolicy.FULL].backward
        )
        assert (
            evals[RecomputePolicy.FULL].memory.total_bytes
            <= evals[RecomputePolicy.SELECTIVE].memory.total_bytes
            <= evals[RecomputePolicy.NONE].memory.total_bytes
        )

    def test_feasibility_against_capacity(self, gpt3_ctx):
        layers = gpt3_ctx.layers[:10]
        roomy = stage_eval_for_policy(
            gpt3_ctx.profiler, 0, layers, RecomputePolicy.FULL, 1e15
        )
        cramped = stage_eval_for_policy(
            gpt3_ctx.profiler, 0, layers, RecomputePolicy.FULL, 1e6
        )
        assert roomy.feasible and not cramped.feasible

    def test_plan_policy_covers_all_stages(self, gpt3_ctx):
        p = gpt3_ctx.parallel.pipeline_parallel
        stages = plan_policy(gpt3_ctx, RecomputePolicy.FULL, "DAPPLE-Full").stages
        assert len(stages) == p
        # Later stages keep fewer in-flight micro-batches.
        in_flight = [stage.memory.in_flight_microbatches for stage in stages]
        assert in_flight == list(range(p, 0, -1))

    def test_saved_unit_counts_match_policy(self, gpt3_ctx):
        layers = gpt3_ctx.layers[1:5]  # ATT FFN ATT FFN
        full = stage_eval_for_policy(
            gpt3_ctx.profiler, 0, layers, RecomputePolicy.FULL,
            gpt3_ctx.hard_capacity_bytes,
        )
        assert full.saved_unit_counts == {"attn.out": 2, "ffn.out": 2}
        none = stage_eval_for_policy(
            gpt3_ctx.profiler, 0, layers, RecomputePolicy.NONE,
            gpt3_ctx.hard_capacity_bytes,
        )
        assert none.saved_unit_counts["attn.q"] == 2
        assert sum(none.saved_unit_counts.values()) == 2 * (6 + 4)

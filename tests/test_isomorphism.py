"""Tests for the isomorphism cache (Section 5.3)."""

import pytest

from repro.config import ParallelConfig, TrainingConfig
from repro.core.isomorphism import RANGE_KEY_FIELDS, StageEvaluator
from repro.core.search import PlannerContext
from repro.hardware.cluster import cluster_a
from repro.model.spec import gpt3_175b


@pytest.fixture
def evaluator():
    ctx = PlannerContext(
        cluster_a(),
        gpt3_175b(),
        TrainingConfig(sequence_length=2048, global_batch_size=8),
        ParallelConfig(8, 4, 1),
    )
    return StageEvaluator(ctx.profiler, ctx.layers, ctx.capacity_bytes)


class TestIsomorphismCache:
    def test_isomorphic_subsequences_share_results(self, evaluator):
        # Layers 3..4 and 5..6 are both (FFN, ATT) pairs away from the ends.
        first = evaluator.evaluate(1, 3, 6)
        invocations = evaluator.inner_dp_invocations
        second = evaluator.evaluate(1, 5, 8)
        assert evaluator.inner_dp_invocations == invocations  # cache hit
        assert second is first

    def test_different_stage_recomputes(self, evaluator):
        evaluator.evaluate(1, 3, 6)
        before = evaluator.inner_dp_invocations
        evaluator.evaluate(2, 3, 6)
        assert evaluator.inner_dp_invocations == before + 1

    def test_embedding_membership_breaks_isomorphism(self, evaluator):
        with_embed = evaluator.evaluate(0, 0, 4)
        without = evaluator.evaluate(0, 2, 6)  # same length, no embedding
        assert with_embed is not without
        assert with_embed.memory.static_bytes != without.memory.static_bytes

    def test_head_membership_breaks_isomorphism(self, evaluator):
        L = evaluator.num_layers
        with_head = evaluator.evaluate(3, L - 5, L - 1)
        without = evaluator.evaluate(3, L - 7, L - 3)
        assert with_head is not without

    def test_start_kind_breaks_isomorphism(self, evaluator):
        # (ATT, FFN, ATT) vs (FFN, ATT, FFN): different unit multisets.
        att_start = evaluator.evaluate(1, 1, 3)
        ffn_start = evaluator.evaluate(1, 2, 4)
        assert att_start is not ffn_start

    def test_invocation_count_is_linear_not_quadratic(self, evaluator):
        """The O(pL^2) -> O(pL) reduction the paper claims."""
        p = 4
        L = evaluator.num_layers
        pairs = 0
        for s in range(p):
            for i in range(L):
                for j in range(i, L):
                    evaluator.evaluate(s, i, j)
                    pairs += 1
        assert pairs > L * L  # we really did sweep quadratically many
        # Unique classes: stage x emb membership x head membership x
        # (#att, #ffn) combinations — linear in L, far below the sweep.
        assert evaluator.inner_dp_invocations <= 16 * p * L


class TestStageEvalContents:
    def test_forward_time_is_sum_of_units(self, evaluator):
        eval_ = evaluator.evaluate(0, 0, 4)
        profiles = [
            evaluator.profiler.profile_layer(layer.kind)
            for layer in evaluator.layers[0:5]
        ]
        assert eval_.forward == pytest.approx(
            sum(p.time_forward for p in profiles)
        )

    def test_backward_at_least_fixed_backward(self, evaluator):
        eval_ = evaluator.evaluate(0, 0, 4)
        profiles = [
            evaluator.profiler.profile_layer(layer.kind)
            for layer in evaluator.layers[0:5]
        ]
        fixed = sum(p.time_backward for p in profiles)
        assert eval_.backward >= fixed - 1e-12

    def test_later_stage_saves_more(self, evaluator):
        """Less in-flight pressure => more units saved, cheaper backward."""
        early = evaluator.evaluate(0, 40, 80)
        late = evaluator.evaluate(3, 40, 80)
        assert sum(late.saved_unit_counts.values()) >= sum(
            early.saved_unit_counts.values()
        )
        assert late.backward <= early.backward + 1e-12

    def test_memory_within_capacity_when_feasible(self, evaluator):
        eval_ = evaluator.evaluate(0, 0, 20)
        if eval_.feasible:
            assert eval_.memory.total_bytes <= evaluator.capacity_bytes + 1e-6

    def test_oversized_stage_is_infeasible(self, evaluator):
        L = evaluator.num_layers
        eval_ = evaluator.evaluate(0, 0, L - 1)  # whole 175B model on stage 0
        assert not eval_.feasible

    def test_always_saved_units_counted(self, evaluator):
        eval_ = evaluator.evaluate(3, 1, 4)  # ATT FFN ATT FFN
        assert eval_.saved_unit_counts.get("attn.out", 0) == 2
        assert eval_.saved_unit_counts.get("ffn.out", 0) == 2


def test_range_key_fields_name_every_key_field(evaluator):
    """Persisted cache rows split keys by RANGE_KEY_FIELDS: it must match
    the range key the evaluator builds, for every stage and slice."""
    L = evaluator.num_layers
    for stage, i, j in [(0, 0, 3), (1, 3, 6), (3, L - 5, L - 1)]:
        assert len(evaluator._key(stage, i, j)) == len(RANGE_KEY_FIELDS)

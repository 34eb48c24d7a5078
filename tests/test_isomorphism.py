"""Tests for the isomorphism cache (Section 5.3)."""

import functools
import math
from typing import Dict, List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ParallelConfig, TrainingConfig
from repro.core import isomorphism
from repro.core.isomorphism import RANGE_KEY_FIELDS, StageEval, StageEvaluator
from repro.core.recompute_dp import (
    RecomputeResult,
    UnitItem,
    optimize_stage_recompute,
)
from repro.core.search import PlannerContext
from repro.hardware.cluster import cluster_a
from repro.model.spec import bert_large, gpt3_175b, llama2_70b
from repro.profiler.memory import StageMemory
from repro.profiler.profiler import LayerProfile


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


def reference_evaluate(
    evaluator: StageEvaluator, stage: int, i: int, j: int
) -> Tuple[StageEval, List[UnitItem]]:
    """The per-layer loop the closed form replaced, kept as its oracle.

    It walks every unit of every layer of ``i..j``, stable-sorted by kind
    so that isomorphic slices sum in one order. Returns the evaluation and
    the knapsack items it built.
    """
    stage_layers = sorted(
        evaluator.layers[i : j + 1], key=lambda layer: layer.kind.value
    )
    in_flight = evaluator.memory_model.in_flight(stage)

    forward = 0.0
    backward_fixed = 0.0
    always_bytes = 0.0
    always_counts: Dict[str, int] = {}
    optional: Dict[str, UnitItem] = {}
    optional_total_value = 0.0

    for layer in stage_layers:
        profile: LayerProfile = evaluator.profiler.profile_layer(layer.kind)
        for unit in profile.units:
            forward += unit.time_forward
            backward_fixed += unit.time_backward
            if unit.always_saved:
                always_bytes += unit.saved_bytes
                always_counts[unit.name] = always_counts.get(unit.name, 0) + 1
            else:
                optional_total_value += unit.time_forward
                existing = optional.get(unit.name)
                if existing is None:
                    optional[unit.name] = UnitItem(
                        name=unit.name,
                        value=unit.time_forward,
                        weight_bytes=unit.saved_bytes,
                        copies=1,
                    )
                else:
                    optional[unit.name] = UnitItem(
                        name=existing.name,
                        value=existing.value,
                        weight_bytes=existing.weight_bytes,
                        copies=existing.copies + 1,
                    )

    static = evaluator.memory_model.static_bytes(stage_layers)
    buffer = evaluator.memory_model.recompute_buffer_bytes()
    budget = (
        evaluator._rank_capacity(stage) - static - buffer - in_flight * always_bytes
    )
    items = list(optional.values())
    result: RecomputeResult = optimize_stage_recompute(items, budget, in_flight)
    scale = evaluator._rank_scale(stage)
    if not result.feasible:
        return StageEval(
            feasible=False,
            forward=forward if scale == 1.0 else forward * scale,
            backward=float("inf"),
            saved_unit_counts={},
            saved_bytes_per_microbatch=0.0,
            memory=StageMemory(static, buffer, always_bytes, in_flight),
        ), items

    backward = backward_fixed + optional_total_value - result.saved_value
    if scale != 1.0:
        forward *= scale
        backward *= scale
    saved_counts = dict(always_counts)
    for name, count in result.saved_counts.items():
        saved_counts[name] = saved_counts.get(name, 0) + count
    saved_bytes = always_bytes + result.saved_bytes
    memory = StageMemory(
        static_bytes=static,
        buffer_bytes=buffer,
        saved_per_microbatch=saved_bytes,
        in_flight_microbatches=in_flight,
    )
    return StageEval(
        feasible=True,
        forward=forward,
        backward=backward,
        saved_unit_counts=saved_counts,
        saved_bytes_per_microbatch=saved_bytes,
        memory=memory,
    ), items


#: (model, t, p, sequence length) of the contexts the oracle test draws from.
_ORACLE_MODELS = {
    "gpt3-175b": (gpt3_175b, 8, 8, 2048),
    "llama2-70b": (llama2_70b, 4, 8, 4096),
    "bert-large": (bert_large, 1, 4, 2048),
}


@functools.lru_cache(maxsize=None)
def _oracle_context(model: str) -> PlannerContext:
    make_spec, t, p, seq = _ORACLE_MODELS[model]
    return PlannerContext(
        cluster_a(),
        make_spec(),
        TrainingConfig(sequence_length=seq, global_batch_size=16),
        ParallelConfig(t, p, 1),
    )


@st.composite
def _stage_ranges(draw, model: str):
    """A context, a (stage, i, j) with the ends drawn often, and optional
    per-rank scales and capacities around the context's capacity."""
    ctx = _oracle_context(model)
    p = ctx.parallel.pipeline_parallel
    last = len(ctx.layers) - 1
    i = draw(st.one_of(st.just(0), st.integers(0, last)))
    j = draw(st.one_of(st.just(last), st.integers(i, last), st.just(i)))
    stage = draw(st.integers(0, p - 1))
    scales = draw(
        st.none()
        | st.lists(st.sampled_from([1.0, 0.8, 1.3, 2.5]), min_size=p, max_size=p)
    )
    capacities = draw(
        st.none()
        | st.lists(
            st.sampled_from([0.1, 0.3, 0.6, 1.0, 1.7]).map(
                lambda share: share * ctx.capacity_bytes
            ),
            min_size=p,
            max_size=p,
        )
    )
    return ctx, stage, i, j, scales, capacities


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


class TestClosedFormOracle:
    """The closed form against the per-layer loop it replaced."""

    @pytest.mark.parametrize("model", sorted(_ORACLE_MODELS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_closed_form_matches_per_layer_loop(self, model, data):
        ctx, stage, i, j, scales, capacities = data.draw(_stage_ranges(model))
        evaluator = StageEvaluator(
            ctx.profiler,
            ctx.layers,
            ctx.capacity_bytes,
            rank_compute_scales=scales,
            rank_capacities=capacities,
        )
        with mock.patch.object(
            isomorphism, "optimize_stage_recompute", wraps=optimize_stage_recompute
        ) as knapsack:
            got = evaluator.evaluate(stage, i, j)
        want, want_items = reference_evaluate(evaluator, stage, i, j)
        assert knapsack.call_args.args[0] == want_items  # order included
        assert got.feasible == want.feasible
        assert list(got.saved_unit_counts.items()) == list(
            want.saved_unit_counts.items()
        )
        assert got.memory.in_flight_microbatches == want.memory.in_flight_microbatches
        for name in ("forward", "backward", "saved_bytes_per_microbatch"):
            assert _close(getattr(got, name), getattr(want, name)), name
        for name in ("static_bytes", "buffer_bytes", "saved_per_microbatch"):
            assert _close(getattr(got.memory, name), getattr(want.memory, name)), name

    def test_interleaved_members_of_one_class_are_bit_equal(self):
        """ATT FFN ATT FFN (layers 1-4) and FFN ATT FFN ATT (layers 2-5),
        each on a fresh evaluator with no cache to share."""
        ctx = _oracle_context("gpt3-175b")
        for stage in range(ctx.parallel.pipeline_parallel):
            first = StageEvaluator(ctx.profiler, ctx.layers, ctx.capacity_bytes)
            second = StageEvaluator(ctx.profiler, ctx.layers, ctx.capacity_bytes)
            assert first._key(stage, 1, 4) == second._key(stage, 2, 5)
            a = first.evaluate(stage, 1, 4)
            b = second.evaluate(stage, 2, 5)
            assert first.inner_dp_invocations == second.inner_dp_invocations == 1
            assert a == b
            assert (a.forward.hex(), a.backward.hex()) == (
                b.forward.hex(),
                b.backward.hex(),
            )

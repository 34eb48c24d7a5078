"""Tests for the isomorphism cache (Section 5.3)."""

import dataclasses
import functools
import math
from typing import Dict, List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.offload import OffloadModel, offload_stage_eval
from repro.config import ParallelConfig, TrainingConfig
from repro.core import isomorphism
from repro.core.interleaved_adaptive import plan_interleaved_adaptive
from repro.core.isomorphism import (
    RANGE_KEY_FIELDS,
    StageEval,
    StageEvalCache,
    StageEvaluator,
)
from repro.core.recompute_dp import (
    RecomputeResult,
    UnitItem,
    optimize_stage_recompute,
)
from repro.core.partition_dp import even_boundaries
from repro.core.search import PlannerContext
from repro.core.strategies import RecomputePolicy, stage_eval_for_policy
from repro.hardware.cluster import cluster_a
from repro.model.spec import bert_large, gpt3_175b, llama2_70b
from repro.profiler.memory import StageMemory, in_flight_micro_batches
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


def _bits(stage_eval: StageEval) -> Dict[str, object]:
    """Every field of a stage evaluation, floats as ``float.hex``."""
    fields = dataclasses.asdict(stage_eval)
    fields.update(fields.pop("memory"))
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in fields.items()
    }


class TestNominalEntries:
    """Entries are nominal: a rank's compute scale is applied after the
    lookup, so it never enters a key."""

    @pytest.mark.parametrize("model", sorted(_ORACLE_MODELS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_one_entry_per_class_and_budget_at_any_scale(self, model, data):
        ctx, stage, i, j, _, capacities = data.draw(_stage_ranges(model))
        p = ctx.parallel.pipeline_parallel
        scales = data.draw(
            st.lists(st.floats(0.5, 4.0), min_size=2, max_size=4, unique=True)
        )
        budgets = [None] if capacities is None else [None, capacities]
        shared = StageEvalCache()
        for budget in budgets:
            nominal = StageEvaluator(
                ctx.profiler, ctx.layers, ctx.capacity_bytes, rank_capacities=budget
            ).evaluate(stage, i, j)
            for scale in scales:
                evaluator = StageEvaluator(
                    ctx.profiler,
                    ctx.layers,
                    ctx.capacity_bytes,
                    shared_cache=shared,
                    rank_compute_scales=[scale] * p,
                    rank_capacities=budget,
                )
                got = evaluator.evaluate(stage, i, j)
                assert _bits(got) == _bits(nominal.scaled(scale))
        budget_keys = {
            ctx.capacity_bytes if budget is None else budget[stage]
            for budget in budgets
        }
        assert len(shared) == len(budget_keys)


# -- the other pricers' per-layer loops, kept as oracles -----------------------


def reference_policy_eval(
    profiler, stage: int, stage_layers, policy, capacity_bytes: float, compute_scale: float
) -> StageEval:
    """The per-layer loop ``stage_eval_for_policy`` replaced."""
    memory_model = profiler.memory
    in_flight = memory_model.in_flight(stage)
    forward = 0.0
    backward = 0.0
    saved_bytes = 0.0
    counts: Dict[str, int] = {}
    for layer in stage_layers:
        profile = profiler.profile_layer(layer.kind)
        for unit in profile.units:
            forward += unit.time_forward
            backward += unit.time_backward
            if policy.saves_unit(unit.name, unit.always_saved):
                saved_bytes += unit.saved_bytes
                counts[unit.name] = counts.get(unit.name, 0) + 1
            else:
                backward += unit.time_forward  # recompute cost
    if compute_scale != 1.0:
        forward *= compute_scale
        backward *= compute_scale
    memory = StageMemory(
        static_bytes=memory_model.static_bytes(stage_layers),
        buffer_bytes=memory_model.recompute_buffer_bytes(),
        saved_per_microbatch=saved_bytes,
        in_flight_microbatches=in_flight,
    )
    return StageEval(
        feasible=memory.fits(capacity_bytes),
        forward=forward,
        backward=backward,
        saved_unit_counts=counts,
        saved_bytes_per_microbatch=saved_bytes,
        memory=memory,
    )


def reference_offload_eval(
    ctx: PlannerContext, stage: int, stage_layers, capacity_bytes: float, offload
) -> StageEval:
    """The per-layer loop ``offload_stage_eval`` replaced. It lists the
    knapsack items from the stage's first layer on, so isomorphic stages
    can resolve knapsack ties differently."""
    memory_model = ctx.profiler.memory
    in_flight = memory_model.in_flight(stage)
    forward = 0.0
    backward_fixed = 0.0
    always_bytes = 0.0
    counts: Dict[str, int] = {}
    items: Dict[str, UnitItem] = {}
    evicted_cost_total = 0.0
    for layer in stage_layers:
        profile = ctx.profiler.profile_layer(layer.kind)
        for unit in profile.units:
            forward += unit.time_forward
            backward_fixed += unit.time_backward
            if unit.always_saved:
                always_bytes += unit.saved_bytes
                counts[unit.name] = counts.get(unit.name, 0) + 1
                continue
            eviction = min(unit.time_forward, offload.exposed_cost(unit.saved_bytes))
            evicted_cost_total += eviction
            existing = items.get(unit.name)
            if existing is None:
                items[unit.name] = UnitItem(unit.name, eviction, unit.saved_bytes, 1)
            else:
                items[unit.name] = UnitItem(
                    existing.name, existing.value, existing.weight_bytes,
                    existing.copies + 1,
                )
    static = memory_model.static_bytes(stage_layers)
    buffer = memory_model.recompute_buffer_bytes()
    budget = capacity_bytes - static - buffer - in_flight * always_bytes
    result = optimize_stage_recompute(list(items.values()), budget, in_flight)
    if not result.feasible:
        return StageEval(
            False, forward, float("inf"), {}, 0.0,
            StageMemory(static, buffer, always_bytes, in_flight),
        )
    for name, count in result.saved_counts.items():
        counts[name] = counts.get(name, 0) + count
    saved_bytes = always_bytes + result.saved_bytes
    return StageEval(
        True,
        forward,
        backward_fixed + evicted_cost_total - result.saved_value,
        counts,
        saved_bytes,
        StageMemory(static, buffer, saved_bytes, in_flight),
    )


def reference_interleaved_adaptive(ctx: PlannerContext, chunks: int) -> List[StageEval]:
    """The per-layer loop ``plan_interleaved_adaptive`` replaced: per device,
    one knapsack over its chunks' units, listed layer by layer."""
    p = ctx.parallel.pipeline_parallel
    boundaries = even_boundaries(len(ctx.layers), chunks * p)
    in_flight = [
        max(1, in_flight_micro_batches(
            "interleaved", stage, chunks * p, ctx.num_micro_batches, num_devices=p
        ))
        for stage in range(chunks * p)
    ]
    memory_model = ctx.profiler.memory
    buffer = memory_model.recompute_buffer_bytes()
    ordered: List[StageEval] = [None] * (chunks * p)  # type: ignore[list-item]
    for device in range(p):
        stages = [chunk * p + device for chunk in range(chunks)]
        items: Dict[Tuple[int, str], UnitItem] = {}
        forward = {s: 0.0 for s in stages}
        backward_fixed = {s: 0.0 for s in stages}
        optional_value = {s: 0.0 for s in stages}
        always_bytes = {s: 0.0 for s in stages}
        counts: Dict[int, Dict[str, int]] = {s: {} for s in stages}
        static_total = 0.0
        for stage in stages:
            lo, hi = boundaries[stage]
            static_total += memory_model.static_bytes(ctx.layers[lo:hi])
            for layer in ctx.layers[lo:hi]:
                for unit in ctx.profiler.profile_layer(layer.kind).units:
                    forward[stage] += unit.time_forward
                    backward_fixed[stage] += unit.time_backward
                    if unit.always_saved:
                        always_bytes[stage] += unit.saved_bytes
                        counts[stage][unit.name] = counts[stage].get(unit.name, 0) + 1
                        continue
                    optional_value[stage] += unit.time_forward
                    existing = items.get((stage, unit.name))
                    items[(stage, unit.name)] = (
                        UnitItem(
                            f"s{stage}:{unit.name}", unit.time_forward,
                            unit.saved_bytes * in_flight[stage], 1,
                        )
                        if existing is None
                        else UnitItem(
                            existing.name, existing.value, existing.weight_bytes,
                            existing.copies + 1,
                        )
                    )
        budget = ctx.capacity_bytes - static_total - buffer - sum(
            always_bytes[s] * in_flight[s] for s in stages
        )
        result = optimize_stage_recompute(list(items.values()), budget, in_flight=1)
        for stage in stages:
            lo, hi = boundaries[stage]
            saved_value = 0.0
            saved_bytes = always_bytes[stage]
            stage_counts = dict(counts[stage])
            if result.feasible:
                for (item_stage, unit_name), item in items.items():
                    kept = result.saved_counts.get(item.name, 0)
                    if item_stage == stage and kept:
                        stage_counts[unit_name] = stage_counts.get(unit_name, 0) + kept
                        saved_value += item.value * kept
                        saved_bytes += (item.weight_bytes / in_flight[stage]) * kept
            ordered[stage] = StageEval(
                result.feasible,
                forward[stage],
                backward_fixed[stage] + optional_value[stage] - saved_value,
                stage_counts,
                saved_bytes,
                StageMemory(
                    memory_model.static_bytes(ctx.layers[lo:hi]),
                    buffer / chunks,
                    saved_bytes,
                    in_flight[stage],
                ),
            )
    return ordered


def _assert_same_times(got: StageEval, want: StageEval) -> None:
    assert got.memory.in_flight_microbatches == want.memory.in_flight_microbatches
    for name in ("forward", "backward"):
        assert _close(getattr(got, name), getattr(want, name)), name
    for name in ("static_bytes", "buffer_bytes"):
        assert _close(getattr(got.memory, name), getattr(want.memory, name)), name


class TestPricersMatchTheirPerLayerLoops:
    """Every pricer starts from ``stage_totals``; each against the per-layer
    loop it replaced."""

    @pytest.mark.parametrize("model", sorted(_ORACLE_MODELS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_policies(self, model, data):
        """Feasibility, memory and saved counts exactly; times to 1e-12."""
        ctx, stage, i, j, _, _ = data.draw(_stage_ranges(model))
        policy = data.draw(st.sampled_from(list(RecomputePolicy)))
        capacity = data.draw(st.sampled_from([0.1, 0.5, 1.0, 2.0])) * ctx.capacity_bytes
        scale = data.draw(st.sampled_from([1.0, 0.8, 1.3]))
        stage_layers = ctx.layers[i : j + 1]
        got = stage_eval_for_policy(
            ctx.profiler, stage, stage_layers, policy, capacity
        ).scaled(scale)
        want = reference_policy_eval(
            ctx.profiler, stage, stage_layers, policy, capacity, scale
        )
        assert got.feasible == want.feasible
        assert got.memory == want.memory
        assert got.saved_bytes_per_microbatch == want.saved_bytes_per_microbatch
        assert got.saved_unit_counts == want.saved_unit_counts
        for name in ("forward", "backward"):
            assert _close(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("model", sorted(_ORACLE_MODELS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_offload(self, model, data):
        """Feasibility and times; saved counts may differ only on knapsack
        ties, where both choices fit and earn the same value."""
        ctx, stage, i, j, _, _ = data.draw(_stage_ranges(model))
        offload = OffloadModel(
            bandwidth=data.draw(st.sampled_from([1e8, 5e9, 25e9, 1e12])),
            overlap_fraction=data.draw(st.sampled_from([0.0, 0.5, 0.9])),
        )
        capacity = data.draw(st.sampled_from([0.1, 0.5, 1.0, 2.0])) * ctx.capacity_bytes
        stage_layers = ctx.layers[i : j + 1]
        got = offload_stage_eval(ctx, stage, stage_layers, capacity, offload)
        want = reference_offload_eval(ctx, stage, stage_layers, capacity, offload)
        assert got.feasible == want.feasible
        _assert_same_times(got, want)
        if got.feasible and got.saved_unit_counts != want.saved_unit_counts:
            assert got.memory.fits(capacity) and want.memory.fits(capacity)

    @pytest.mark.parametrize("model", sorted(_ORACLE_MODELS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_interleaved_adaptive(self, model, data):
        """Feasibility, forward times and each device's backward total. A
        knapsack tie may move a saved unit between two chunks of a device
        (``attn.norm`` and ``ffn.norm`` cost the same), so a stage's
        backward time is compared only where its saved counts agree."""
        base = _oracle_context(model)
        chunks = data.draw(st.sampled_from([1, 2, 3]))
        share = data.draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
        ctx = PlannerContext(
            base.cluster, base.spec, base.train, base.parallel,
            memory_limit_bytes=share * base.capacity_bytes,
        )
        plan = plan_interleaved_adaptive(ctx, chunks=chunks)
        want = reference_interleaved_adaptive(ctx, chunks)
        assert plan.feasible == all(e.feasible for e in want)
        p = ctx.parallel.pipeline_parallel
        for device in range(p):
            stages = range(device, chunks * p, p)
            assert _close(
                sum(plan.stages[s].backward_time for s in stages),
                sum(want[s].backward for s in stages),
            )
            for s in stages:
                got = plan.stages[s]
                assert _close(got.forward_time, want[s].forward)
                assert got.memory.static_bytes == want[s].memory.static_bytes
                assert got.memory.buffer_bytes == want[s].memory.buffer_bytes
                assert got.memory.in_flight_microbatches == (
                    want[s].memory.in_flight_microbatches
                )
                if dict(got.saved_unit_counts) == dict(want[s].saved_unit_counts):
                    assert _close(got.backward_time, want[s].backward)

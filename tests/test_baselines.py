"""Tests for the baseline method registry."""

import pytest

from repro.baselines import ALL_METHODS, BASELINE_METHODS, evaluate_method, method_spec
from repro.config import ConfigError, ParallelConfig, TrainingConfig
from repro.core.search import PlannerContext
from repro.hardware.cluster import cluster_a


class TestRegistry:
    def test_contains_all_eight_methods(self):
        assert set(ALL_METHODS) == {
            "DAPPLE-Full",
            "DAPPLE-Non",
            "Chimera-Full",
            "Chimera-Non",
            "ChimeraD-Full",
            "ChimeraD-Non",
            "Even Partitioning",
            "AdaPipe",
        }

    def test_baseline_subset(self):
        assert all(name in ALL_METHODS for name in BASELINE_METHODS)
        assert "AdaPipe" not in BASELINE_METHODS

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            method_spec("MegaPipe")

    def test_chimera_uses_simulation_memory(self, gpt3):
        """Chimera's OOM verdict is the simulator's: its planner keeps a plan
        the 1F1B model rejects alive, where DAPPLE's reports it infeasible."""
        train = TrainingConfig(sequence_length=16384, global_batch_size=8)
        ctx = PlannerContext(cluster_a(8), gpt3, train, ParallelConfig(8, 8, 1))
        dapple = method_spec("DAPPLE-Non").planner(ctx)
        chimera = method_spec("Chimera-Non").planner(ctx)
        assert not dapple.feasible
        assert chimera.feasible and chimera.modeled_iteration_time is None
        assert chimera.stages == dapple.stages


class TestEvaluateMethod:
    def test_all_methods_run_on_small_config(self, gpt3_ctx):
        for name in ALL_METHODS:
            evaluation = evaluate_method(name, gpt3_ctx)
            assert evaluation.plan.method == name
            # At seq 2048 on 80 GB everything should be feasible except
            # possibly the Chimera variants (doubled parameters).
            if name.startswith("DAPPLE") or name in ("Even Partitioning", "AdaPipe"):
                assert evaluation.iteration_time is not None, name

    def test_dapple_full_slower_than_non_when_memory_allows(self, gpt3_ctx):
        full = evaluate_method("DAPPLE-Full", gpt3_ctx)
        non = evaluate_method("DAPPLE-Non", gpt3_ctx)
        assert full.iteration_time > non.iteration_time

    def test_chimera_odd_micro_batches_reported_infeasible(self, gpt3):
        train = TrainingConfig(sequence_length=2048, global_batch_size=7)
        ctx = PlannerContext(cluster_a(8), gpt3, train, ParallelConfig(8, 8, 1))
        evaluation = evaluate_method("Chimera-Full", ctx)
        assert evaluation.oom  # cannot split 7 micro-batches over 2 pipelines

    def test_chimera_full_duplicates_parameters(self, gpt3_ctx):
        chimera = evaluate_method("Chimera-Full", gpt3_ctx)
        dapple = evaluate_method("DAPPLE-Full", gpt3_ctx)
        assert max(chimera.peak_memory_per_device()) > max(
            dapple.peak_memory_per_device()
        )

    def test_adapipe_at_least_matches_even_partitioning_model(self, gpt3_ctx):
        adapipe = evaluate_method("AdaPipe", gpt3_ctx)
        even = evaluate_method("Even Partitioning", gpt3_ctx)
        assert (
            adapipe.plan.modeled_iteration_time
            <= even.plan.modeled_iteration_time + 1e-9
        )

"""Differential tests for elastic warm-start replanning.

The soundness argument being pinned: stage evaluations are keyed by a
content digest covering everything the knapsack reads — including the
rank's DP budget — while the evaluator fingerprint excludes fleet *shape*,
and every entry is the nominal-speed evaluation, scaled by its rank's
compute scale after the lookup. So a warm replan on a changed pool must
(a) select a plan bit-identical to a cold sweep on that pool, (b) run the
knapsack only for classes the surviving cache lacks, and (c) return, for
a drifted rank, the nominal entry at its new slowdown and never the stale
times (the drift regression).
"""

import dataclasses

import pytest

from repro.config import ParallelConfig, TrainingConfig
from repro.core.isomorphism import (
    StageEvalCache,
    StageEvaluator,
    evaluator_fingerprint,
)
from repro.core.replan import (
    pool_with_drift,
    pool_with_rank,
    pool_without_rank,
    replan,
)
from repro.core.search import PlannerContext
from repro.core.serialize import plan_signature
from repro.core.sweep import SweepConfig, run_sweep
from repro.hardware.cluster import cluster_a
from repro.hardware.device import a100_80gb, derated
from repro.model.spec import tiny_gpt

LIMIT = 8 * 1024**2


@pytest.fixture
def pooled(tiny_spec, tiny_train):
    """A cold-searched 3-rank pool (nominal, derated 1.3x, nominal)."""
    base = a100_80gb()
    cluster = cluster_a(1).with_device_pool(
        (base, derated(base, 1.3), base)
    )
    cache = StageEvalCache()
    cold = run_sweep(
        cluster,
        tiny_spec,
        tiny_train,
        3,
        config=SweepConfig(workers=1),
        eval_cache=cache,
        memory_limit_bytes=LIMIT,
    )
    assert cold.best is not None
    return cluster, cold, cache, tiny_spec, tiny_train


def _cold(cluster, spec, train, num_devices):
    return run_sweep(
        cluster,
        spec,
        train,
        num_devices,
        config=SweepConfig(workers=1),
        eval_cache=StageEvalCache(),
        memory_limit_bytes=LIMIT,
    )


class TestElasticDifferential:
    """Warm replan == cold sweep on the changed pool, with real reuse."""

    def test_device_leave_matches_cold_sweep(self, pooled):
        cluster, cold, cache, spec, train = pooled
        shrunken = pool_without_rank(cluster, 1)
        warm = replan(
            cold.best, shrunken, spec, eval_cache=cache,
            memory_limit_bytes=LIMIT,
        )
        reference = _cold(shrunken, spec, train, 2)
        # Bit-identical on the deterministic selection key and the full
        # serialized plan (stage boundaries, recompute sets, times).
        assert warm.best.modeled_iteration_time == (
            reference.best.modeled_iteration_time
        )
        assert plan_signature(warm.best) == plan_signature(reference.best)
        assert warm.evals_reused > 0
        assert warm.evals_recomputed < 0.5 * reference.stats.inner_dp_invocations

    def test_device_join_matches_cold_sweep(self, pooled):
        cluster, cold, cache, spec, train = pooled
        grown = pool_with_rank(cluster, a100_80gb())
        warm = replan(
            cold.best, grown, spec, eval_cache=cache,
            memory_limit_bytes=LIMIT,
        )
        reference = _cold(grown, spec, train, 4)
        assert plan_signature(warm.best) == plan_signature(reference.best)
        assert warm.evals_reused > 0
        assert warm.evals_recomputed < reference.stats.inner_dp_invocations

    def test_drift_matches_cold_sweep(self, pooled):
        cluster, cold, cache, spec, train = pooled
        drifted = pool_with_drift(cluster, 1, 1.7)
        warm = replan(
            cold.best, drifted, spec, eval_cache=cache,
            memory_limit_bytes=LIMIT,
        )
        reference = _cold(drifted, spec, train, 3)
        assert plan_signature(warm.best) == plan_signature(reference.best)
        # Every rank keeps the 8 MiB budget, so the drifted rank's nominal
        # entries serve it at its new slowdown: no knapsack re-runs.
        assert warm.evals_reused > 0
        assert warm.evals_recomputed == 0

    def test_hit_counters_track_reuse(self, pooled):
        cluster, cold, cache, spec, train = pooled
        hits_before = cache.hits
        warm = replan(
            cold.best, pool_without_rank(cluster, 1), spec,
            eval_cache=cache, memory_limit_bytes=LIMIT,
        )
        assert cache.hits - hits_before == warm.evals_reused
        assert warm.reuse_rate == warm.evals_reused / (
            warm.evals_reused + warm.evals_recomputed
        )


def _bits(stage_eval):
    """Every field of a stage evaluation, floats as ``float.hex``."""
    fields = dataclasses.asdict(stage_eval)
    fields.update(fields.pop("memory"))
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in fields.items()
    }


class TestDriftRegression:
    """A drifted rank reuses the nominal entry at its new slowdown."""

    def test_stale_scale_never_reused(self, tiny_spec, tiny_train):
        ctx = PlannerContext(
            cluster_a(1),
            tiny_spec,
            tiny_train,
            ParallelConfig(1, 2, 1),
            memory_limit_bytes=LIMIT,
        )
        capacity = float(a100_80gb().usable_memory_bytes)

        def evaluator(scale, shared, budget=capacity):
            return StageEvaluator(
                ctx.profiler, ctx.layers, ctx.capacity_bytes,
                shared_cache=shared,
                rank_compute_scales=(scale, scale),
                rank_capacities=(budget, budget),
            )

        shared = StageEvalCache()
        old = evaluator(1.3, shared)
        stale = old.evaluate(0, 0, 2)
        drifted = evaluator(1.6, shared)
        fresh = drifted.evaluate(0, 0, 2)
        # The budget is unchanged, so the key is too: the nominal entry is
        # reused and no knapsack runs...
        assert drifted.inner_dp_invocations == 0
        assert drifted.cache_hits == 1
        assert len(shared) == 1
        # ...and scaled by the new slowdown, bit for bit what a cold 1.6x
        # evaluator prices, never the stale 1.3x times.
        cold = evaluator(1.6, StageEvalCache()).evaluate(0, 0, 2)
        assert _bits(fresh) == _bits(cold)
        assert fresh.forward != stale.forward
        assert fresh.backward != stale.backward
        # Another budget is another key: it misses and runs its knapsack.
        smaller = evaluator(1.3, shared, budget=capacity / 2)
        smaller.evaluate(0, 0, 2)
        assert smaller.inner_dp_invocations == 1
        assert smaller.cache_hits == 0
        assert len(shared) == 2

    def test_drifted_pool_changes_device_class(self):
        base = a100_80gb()
        cluster = cluster_a(1).with_device_pool((base, derated(base, 1.3)))
        drifted = pool_with_drift(cluster, 1, 1.6)
        assert drifted.device_pool[1].slowdown == 1.6
        assert drifted.device_pool[1].name == f"{base.name}*1.6"
        assert cluster.rank_compute_factor(1) != drifted.rank_compute_factor(1)
        # Drifting back to nominal restores the base part exactly.
        restored = pool_with_drift(drifted, 1, 1.0)
        assert restored.device_pool[1] == base


class TestFingerprintElasticity:
    """The evaluator fingerprint ignores fleet shape, not pricing inputs."""

    def _fingerprint(self, cluster, tiny_spec, tiny_train):
        ctx = PlannerContext(
            cluster,
            tiny_spec,
            tiny_train,
            ParallelConfig(1, 2, 1),
            memory_limit_bytes=LIMIT,
        )
        return evaluator_fingerprint(ctx.profiler, ctx.capacity_bytes)

    def test_fleet_shape_is_invisible(self, tiny_spec, tiny_train):
        base = self._fingerprint(cluster_a(1), tiny_spec, tiny_train)
        grown = self._fingerprint(cluster_a(4), tiny_spec, tiny_train)
        pooled = self._fingerprint(
            cluster_a(1).with_device_pool(
                (a100_80gb(), derated(a100_80gb(), 1.3))
            ),
            tiny_spec,
            tiny_train,
        )
        assert base == grown == pooled

    def test_device_change_breaks_fingerprint(self, tiny_spec, tiny_train):
        import dataclasses

        base = cluster_a(1)
        slower = dataclasses.replace(
            base, device=derated(base.device, 1.5)
        )
        assert self._fingerprint(
            base, tiny_spec, tiny_train
        ) != self._fingerprint(slower, tiny_spec, tiny_train)

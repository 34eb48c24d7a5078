"""Ablation bench: the isomorphism cache (Section 5.3).

The partitioning DP touches O(pL^2) (stage, i, j) candidates; the paper's
observation is that homogeneity collapses them to O(pL) distinct inner-DP
solves. This bench runs Algorithm 1 with the cache and reports the
invocation count and the ``StageEvaluator.evaluate`` lookups the DP makes
(one per class per stage, plus the backtrack's one per stage); the
assertions pin both to the complexity class.
"""

from unittest import mock

from repro.config import ParallelConfig, TrainingConfig
from repro.core.isomorphism import StageEvaluator
from repro.core.partition_dp import optimize_partition
from repro.core.search import PlannerContext
from repro.hardware.cluster import cluster_a
from repro.model.spec import gpt3_175b


def test_isomorphism_cache_collapses_inner_dp(benchmark):
    train = TrainingConfig(sequence_length=4096, global_batch_size=32)
    ctx = PlannerContext(
        cluster_a(),
        gpt3_175b(),
        train,
        ParallelConfig(8, 8, 1),
        memory_limit_bytes=70 * 1024**3,
    )
    lookups = 0
    evaluate = StageEvaluator.evaluate

    def counted(self, stage, i, j):
        nonlocal lookups
        lookups += 1
        return evaluate(self, stage, i, j)

    def run():
        nonlocal lookups
        lookups = 0
        evaluator = StageEvaluator(ctx.profiler, ctx.layers, ctx.capacity_bytes)
        with mock.patch.object(StageEvaluator, "evaluate", counted):
            result = optimize_partition(evaluator, 8, 32, hop_time=ctx.hop_time)
        return evaluator, result

    evaluator, result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.feasible
    p, L = 8, len(ctx.layers)
    candidates_touched = p * L * L // 2
    print(
        f"\ninner-DP invocations: {evaluator.inner_dp_invocations}, "
        f"evaluate lookups: {lookups} "
        f"(vs ~{candidates_touched} (s,i,j) candidates without the cache)"
    )
    assert evaluator.inner_dp_invocations <= 16 * p * L  # O(pL), not O(pL^2)
    assert evaluator.inner_dp_invocations < candidates_touched / 20
    assert lookups <= 16 * p * L  # one lookup per class, not per candidate

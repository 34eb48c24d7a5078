"""Ablation bench: combining AdaPipe with interleaved 1F1B (future work).

The paper applies adaptive recomputation to plain 1F1B. This bench extends
it to Megatron's interleaved schedule — per-stage in-flight multipliers are
*measured* from a schedule simulation (no closed form exists) and a
shared-budget knapsack runs per device across its chunks. Expected outcome:
the combination beats both plain AdaPipe (smaller bubbles) and
Interleaved-Full (less recomputation).
"""

from repro.baselines.extensions import plan_interleaved
from repro.config import ParallelConfig, TrainingConfig
from repro.core.evaluate import evaluate_plan
from repro.core.interleaved_adaptive import plan_interleaved_adaptive
from repro.core.search import PlannerContext, plan_adapipe
from repro.core.strategies import RecomputePolicy
from repro.hardware.cluster import cluster_a
from repro.model.spec import gpt3_175b


def test_adaptive_interleaved_combination(benchmark):
    train = TrainingConfig(sequence_length=16384, global_batch_size=32)
    ctx = PlannerContext(
        cluster_a(),
        gpt3_175b(),
        train,
        ParallelConfig(8, 8, 1),
        memory_limit_bytes=70 * 1024**3,
    )

    def run():
        return {
            "AdaPipe (1F1B)": evaluate_plan(plan_adapipe(ctx), ctx.cluster),
            "Interleaved-Full": evaluate_plan(
                plan_interleaved(ctx, RecomputePolicy.FULL, 2), ctx.cluster, "interleaved"
            ),
            "AdaPipe-Interleaved": evaluate_plan(
                plan_interleaved_adaptive(ctx, 2), ctx.cluster, "interleaved"
            ),
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for name, evaluation in rows.items():
        time = evaluation.iteration_time
        print(f"{name:22s} {'OOM' if time is None else f'{time:7.2f}s'}")

    combo = rows["AdaPipe-Interleaved"].iteration_time
    assert combo is not None
    assert combo < rows["AdaPipe (1F1B)"].iteration_time
    assert combo < rows["Interleaved-Full"].iteration_time

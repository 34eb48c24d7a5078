"""Ablation bench: AdaPipe against the wider design space.

Compares AdaPipe to the memory-management alternatives the paper discusses
but does not plot (Sections 2.2 and 8): sqrt(L) segment checkpointing,
BPipe-style activation balancing, and Megatron's interleaved 1F1B — all on
GPT-3 at sequence length 8192, where activation memory is binding but not
hopeless (DAPPLE-Non OOMs, balanced no-recompute fits).
"""

from repro.baselines.extensions import (
    plan_bpipe,
    plan_interleaved,
    plan_sqrt_checkpoint,
)
from repro.config import ParallelConfig, TrainingConfig
from repro.core.evaluate import evaluate_plan
from repro.core.search import PlannerContext, plan_adapipe, plan_policy
from repro.core.strategies import RecomputePolicy
from repro.hardware.cluster import cluster_a
from repro.model.spec import gpt3_175b


def _context():
    train = TrainingConfig(sequence_length=8192, global_batch_size=64)
    return PlannerContext(cluster_a(), gpt3_175b(), train, ParallelConfig(8, 8, 1))


def test_design_space_comparison(benchmark):
    ctx = _context()

    def run():
        rows = {}
        rows["DAPPLE-Full"] = evaluate_plan(
            plan_policy(ctx, RecomputePolicy.FULL, "DAPPLE-Full"), ctx.cluster
        )
        rows["DAPPLE-Non"] = evaluate_plan(
            plan_policy(ctx, RecomputePolicy.NONE, "DAPPLE-Non"), ctx.cluster
        )
        rows["Checkpoint-sqrtL"] = evaluate_plan(
            plan_sqrt_checkpoint(ctx), ctx.cluster
        )
        rows["BPipe"] = evaluate_plan(plan_bpipe(ctx), ctx.cluster)
        rows["Interleaved-Full"] = evaluate_plan(
            plan_interleaved(ctx, RecomputePolicy.FULL, 2), ctx.cluster, "interleaved"
        )
        rows["AdaPipe"] = evaluate_plan(plan_adapipe(ctx), ctx.cluster)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    for name, evaluation in rows.items():
        time = evaluation.iteration_time
        peak = max(evaluation.peak_memory_per_device()) / 1024**3
        print(f"{name:18s} {'OOM' if time is None else f'{time:7.2f}s'}  peak {peak:5.1f} GiB")

    times = {n: e.iteration_time for n, e in rows.items()}
    assert times["DAPPLE-Non"] is None  # OOM at 8192
    assert times["BPipe"] is not None  # balancing rescues no-recompute
    # AdaPipe wins the whole design space at this operating point.
    competitors = [t for n, t in times.items() if t is not None and n != "AdaPipe"]
    assert times["AdaPipe"] <= min(competitors) * 1.001
    # sqrt(L) checkpointing trades too much compute: slower than DAPPLE-Full.
    assert times["Checkpoint-sqrtL"] >= times["DAPPLE-Full"] * 0.99

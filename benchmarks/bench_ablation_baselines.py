"""Ablation bench: AdaPipe against the wider design space.

Compares AdaPipe to the memory-management alternatives the paper discusses
but does not plot (Sections 2.2 and 8): sqrt(L) segment checkpointing,
BPipe-style activation balancing, and Megatron's interleaved 1F1B — all on
GPT-3 at sequence length 8192, where activation memory is binding but not
hopeless (DAPPLE-Non OOMs, balanced no-recompute fits). A second run plans
the fixed-partition baselines on a device pool, which must slow each down.
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
from repro.hardware.device import a100_80gb, derated
from repro.model.spec import gpt3_175b


def _context(cluster=None):
    train = TrainingConfig(sequence_length=8192, global_batch_size=64)
    return PlannerContext(
        cluster or cluster_a(), gpt3_175b(), train, ParallelConfig(8, 8, 1)
    )


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


#: Fixed-partition baselines and the schedule their plans run under.
FIXED_PARTITION = {
    "DAPPLE-Full": (
        lambda ctx: plan_policy(ctx, RecomputePolicy.FULL, "DAPPLE-Full"), "1f1b"
    ),
    "Checkpoint-sqrtL": (plan_sqrt_checkpoint, "1f1b"),
    "BPipe": (plan_bpipe, "1f1b"),
    "Interleaved-Full": (
        lambda ctx: plan_interleaved(ctx, RecomputePolicy.FULL, 2), "interleaved"
    ),
}


def test_fixed_partition_baselines_on_a_pool(benchmark):
    """Six A100 ranks and two derated 1.3x: each baseline is placed on the
    pool, so it simulates strictly slower than on eight nominal A100s."""
    a100 = a100_80gb()
    pool = (a100,) * 6 + (derated(a100, 1.3),) * 2
    nominal = _context()
    pooled = _context(cluster_a().with_device_pool(pool))

    def run():
        return {
            name: tuple(
                evaluate_plan(planner(ctx), ctx.cluster, kind).iteration_time
                for ctx in (nominal, pooled)
            )
            for name, (planner, kind) in FIXED_PARTITION.items()
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    for name, (nominal_time, pooled_time) in rows.items():
        print(f"{name:18s} {nominal_time:8.3f}s -> {pooled_time:8.3f}s on the pool")
    for name, (nominal_time, pooled_time) in rows.items():
        assert nominal_time is not None and pooled_time is not None, name
        assert pooled_time > nominal_time, name

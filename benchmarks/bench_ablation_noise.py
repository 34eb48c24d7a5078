"""Ablation bench: robustness of the search to profiling noise.

The paper's profiler averages 5-10 measured iterations; real measurements
jitter. This bench plans with increasingly noisy unit profiles, then
re-prices every plan under the *clean* cost model and reports the regret
against the clean-searched plan — showing the two-level DP degrades
gracefully rather than chasing measurement noise.
"""

from repro.config import ParallelConfig, TrainingConfig
from repro.core.plan import PipelinePlan
from repro.core.search import PlannerContext, plan_adapipe
from repro.hardware.cluster import cluster_a
from repro.model.spec import gpt3_175b

NOISE_LEVELS = (0.0, 0.02, 0.05, 0.10)


def _clean_reprice(ctx: PlannerContext, plan: PipelinePlan) -> float:
    """Re-evaluate a plan's iteration time under the noise-free profiler."""
    from repro.core.isomorphism import StageEval
    from repro.core.partition_dp import phase_model_time
    from repro.profiler.memory import StageMemory

    evals = []
    for stage in plan.stages:
        layers = ctx.layers[stage.layer_start : stage.layer_end]
        forward = backward = 0.0
        remaining = dict(stage.saved_unit_counts)
        for layer in layers:
            profile = ctx.profiler.profile_layer(layer.kind)
            for unit in profile.units:
                forward += unit.time_forward
                backward += unit.time_backward
                if unit.always_saved:
                    remaining[unit.name] = remaining.get(unit.name, 0) - 1
                    continue
                if remaining.get(unit.name, 0) > 0:
                    remaining[unit.name] -= 1
                else:
                    backward += unit.time_forward  # recomputed
        evals.append(
            StageEval(
                feasible=True,
                forward=forward,
                backward=backward,
                saved_unit_counts=stage.saved_unit_counts,
                saved_bytes_per_microbatch=stage.memory.saved_per_microbatch,
                memory=StageMemory(0, 0, 0, 1),
            )
        )
    return phase_model_time(evals, ctx.num_micro_batches, ctx.hop_time)


def test_noise_robustness(benchmark):
    train = TrainingConfig(sequence_length=16384, global_batch_size=32)

    def context(noise):
        return PlannerContext(
            cluster_a(),
            gpt3_175b(),
            train,
            ParallelConfig(8, 8, 1),
            memory_limit_bytes=70 * 1024**3,
            profile_noise=noise,
        )

    clean_ctx = context(0.0)

    def run():
        results = []
        for noise in NOISE_LEVELS:
            plan = plan_adapipe(context(noise))
            results.append((noise, _clean_reprice(clean_ctx, plan)))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    base = results[0][1]
    print()
    for noise, repriced in results:
        print(f"noise {noise:4.0%}: clean-model time {repriced:7.2f}s "
              f"(regret {repriced / base - 1.0:+.2%})")
    # Even 10% measurement jitter costs only a few percent of plan quality.
    for _, repriced in results:
        assert repriced <= base * 1.05

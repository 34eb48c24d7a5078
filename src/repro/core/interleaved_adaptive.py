"""Extension: adaptive recomputation under interleaved 1F1B.

The paper applies adaptive recomputation to plain 1F1B, where stage ``s``
pins exactly ``min(n, p - s)`` micro-batches. Megatron's interleaved
schedule has no simple closed form — each device hosts ``v`` chunks whose
in-flight counts follow the interleaved warmup pattern — but the task
order is cost-independent combinatorics, so the exact per-stage peaks come
from :func:`repro.profiler.memory.in_flight_micro_batches` (which replays
that order; it provably matches the simulator-measured
:func:`repro.pipeline.tracing.stage_in_flight_micro_batch_peaks`). This
extension then solves one knapsack **per device** over the union of its
chunks' computation units, with each item weighted by its own stage's
multiplier and all chunks drawing on the device's shared memory budget.

This is a natural "future work" completion of the paper: the same
cost-model-plus-knapsack machinery, driven by the schedule-aware
in-flight accounting.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.isomorphism import StageEval, StageTotals, kind_counts, stage_totals
from repro.core.plan import PipelinePlan
from repro.core.recompute_dp import UnitItem, optimize_stage_recompute
from repro.core.search import PlannerContext, plan_fixed_partition
from repro.profiler.memory import StageMemory, in_flight_micro_batches


def plan_interleaved_adaptive(
    ctx: PlannerContext,
    chunks: int = 2,
    method: Optional[str] = None,
) -> PipelinePlan:
    """Adaptive recomputation on an interleaved-1F1B layout.

    Args:
        ctx: planning context; ``ctx.parallel.pipeline_parallel`` devices.
        chunks: model chunks per device (``v``).
        method: plan label.

    Returns:
        A plan with ``chunks * p`` stages; feasibility judged against the
        exact per-stage in-flight peaks of the interleaved schedule and
        each device's DP budget.
    """
    method = method or f"AdaPipe-Interleaved(v={chunks})"
    p = ctx.parallel.pipeline_parallel

    def price(boundaries, ranks):
        # Step 1: the exact in-flight peaks of the interleaved task order (a
        # schedule property — recomputation choices don't move them). These
        # are computed analytically; earlier revisions simulated a probe
        # schedule to measure the same numbers.
        in_flight = [
            max(
                1,
                in_flight_micro_batches(
                    "interleaved", stage, chunks * p, ctx.num_micro_batches, num_devices=p
                ),
            )
            for stage in range(chunks * p)
        ]

        # Step 2: one shared-budget knapsack per device over its chunks.
        memory_model = ctx.profiler.memory
        buffer = memory_model.recompute_buffer_bytes()
        evals: List[StageEval] = [None] * (chunks * p)  # type: ignore[list-item]
        for device in range(p):
            stages = [chunk * p + device for chunk in range(chunks)]
            totals: Dict[int, StageTotals] = {}
            static: Dict[int, float] = {}
            items: List[UnitItem] = []
            for stage in stages:
                lo, hi = boundaries[stage]
                totals[stage] = stage_totals(ctx.profiler, kind_counts(ctx.layers[lo:hi]))
                static[stage] = memory_model.static_bytes(ctx.layers[lo:hi])
                # Bake the per-stage multiplier into the weight so one
                # knapsack covers chunks with different in-flight counts.
                items.extend(
                    UnitItem(
                        f"s{stage}:{item.name}",
                        item.value,
                        item.weight_bytes * in_flight[stage],
                        item.copies,
                    )
                    for item in totals[stage].items
                )
            budget = ranks[device].capacity_bytes - sum(static.values()) - buffer - sum(
                totals[s].always_bytes * in_flight[s] for s in stages
            )
            result = optimize_stage_recompute(items, budget, in_flight=1)
            for stage in stages:
                stage_cost = totals[stage]
                saved_value = 0.0
                saved_bytes = stage_cost.always_bytes
                counts = dict(stage_cost.always_counts)
                if result.feasible:
                    for item in stage_cost.items:
                        kept = result.saved_counts.get(f"s{stage}:{item.name}", 0)
                        if kept:
                            counts[item.name] = counts.get(item.name, 0) + kept
                            saved_value += item.value * kept
                            saved_bytes += item.weight_bytes * kept
                evals[stage] = StageEval(
                    feasible=result.feasible,
                    forward=stage_cost.forward,
                    backward=stage_cost.backward_fixed
                    + stage_cost.optional_value
                    - saved_value,
                    saved_unit_counts=counts,
                    saved_bytes_per_microbatch=saved_bytes,
                    memory=StageMemory(
                        static_bytes=static[stage],
                        buffer_bytes=buffer / chunks,
                        saved_per_microbatch=saved_bytes,
                        in_flight_microbatches=in_flight[stage],
                    ),
                )
        return evals

    return plan_fixed_partition(ctx, method, price, chunks)

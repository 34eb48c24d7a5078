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

from typing import Dict, List, Tuple

from repro.core.isomorphism import StageEval
from repro.core.partition_dp import even_boundaries
from repro.core.plan import PipelinePlan, build_plan
from repro.core.recompute_dp import UnitItem, optimize_stage_recompute
from repro.core.search import PlannerContext
from repro.profiler.memory import StageMemory, in_flight_micro_batches


def plan_interleaved_adaptive(
    ctx: PlannerContext,
    chunks: int = 2,
    method: str = None,
) -> PipelinePlan:
    """Adaptive recomputation on an interleaved-1F1B layout.

    Args:
        ctx: planning context; ``ctx.parallel.pipeline_parallel`` devices.
        chunks: model chunks per device (``v``).
        method: plan label.

    Returns:
        A plan with ``chunks * p`` stages; feasibility judged against the
        exact per-stage in-flight peaks of the interleaved schedule.
    """
    p = ctx.parallel.pipeline_parallel
    method = method or f"AdaPipe-Interleaved(v={chunks})"
    boundaries = even_boundaries(len(ctx.layers), chunks * p)

    # Step 1: the exact in-flight peaks of the interleaved task order (a
    # schedule property — recomputation choices don't move them). These
    # are computed analytically; earlier revisions simulated a probe
    # schedule to measure the same numbers.
    in_flight = {
        stage: in_flight_micro_batches(
            "interleaved", stage, chunks * p, ctx.num_micro_batches, num_devices=p
        )
        for stage in range(chunks * p)
    }

    # Step 2: one shared-budget knapsack per device over its chunks.
    memory_model = ctx.profiler.memory
    device_stage_evals: Dict[int, List[Tuple[int, StageEval]]] = {}
    for device in range(p):
        stages = [chunk * p + device for chunk in range(chunks)]
        items: Dict[Tuple[int, str], UnitItem] = {}
        forward = {s: 0.0 for s in stages}
        backward_fixed = {s: 0.0 for s in stages}
        optional_value = {s: 0.0 for s in stages}
        always_bytes = {s: 0.0 for s in stages}
        counts: Dict[int, Dict[str, int]] = {s: {} for s in stages}
        static_total = 0.0
        for stage in stages:
            lo, hi = boundaries[stage]
            stage_layers = ctx.layers[lo:hi]
            static_total += memory_model.static_bytes(stage_layers)
            flight = max(1, in_flight.get(stage, 1))
            for layer in stage_layers:
                profile = ctx.profiler.profile_layer(layer.kind)
                for unit in profile.units:
                    forward[stage] += unit.time_forward
                    backward_fixed[stage] += unit.time_backward
                    if unit.always_saved:
                        always_bytes[stage] += unit.saved_bytes
                        counts[stage][unit.name] = counts[stage].get(unit.name, 0) + 1
                        continue
                    optional_value[stage] += unit.time_forward
                    key = (stage, unit.name)
                    existing = items.get(key)
                    # Bake the per-stage multiplier into the weight so one
                    # knapsack covers chunks with different in-flight counts.
                    if existing is None:
                        items[key] = UnitItem(
                            name=f"s{stage}:{unit.name}",
                            value=unit.time_forward,
                            weight_bytes=unit.saved_bytes * flight,
                            copies=1,
                        )
                    else:
                        items[key] = UnitItem(
                            existing.name, existing.value,
                            existing.weight_bytes, existing.copies + 1,
                        )
        buffer = memory_model.recompute_buffer_bytes()
        budget = ctx.capacity_bytes - static_total - buffer - sum(
            always_bytes[s] * max(1, in_flight.get(s, 1)) for s in stages
        )
        result = optimize_stage_recompute(list(items.values()), budget, in_flight=1)
        evals: List[Tuple[int, StageEval]] = []
        for stage in stages:
            lo, hi = boundaries[stage]
            stage_layers = ctx.layers[lo:hi]
            flight = max(1, in_flight.get(stage, 1))
            saved_value = 0.0
            saved_bytes = always_bytes[stage]
            stage_counts = dict(counts[stage])
            if result.feasible:
                for (item_stage, unit_name), item in items.items():
                    if item_stage != stage:
                        continue
                    kept = result.saved_counts.get(item.name, 0)
                    if kept:
                        stage_counts[unit_name] = stage_counts.get(unit_name, 0) + kept
                        saved_value += item.value * kept
                        saved_bytes += (item.weight_bytes / flight) * kept
            backward = backward_fixed[stage] + optional_value[stage] - saved_value
            memory = StageMemory(
                static_bytes=memory_model.static_bytes(stage_layers),
                buffer_bytes=buffer / chunks,
                saved_per_microbatch=saved_bytes,
                in_flight_microbatches=flight,
            )
            evals.append(
                (
                    stage,
                    StageEval(
                        feasible=result.feasible,
                        forward=forward[stage],
                        backward=backward,
                        saved_unit_counts=stage_counts,
                        saved_bytes_per_microbatch=saved_bytes,
                        memory=memory,
                    ),
                )
            )
        device_stage_evals[device] = evals

    ordered: List[StageEval] = [None] * (chunks * p)  # type: ignore[list-item]
    for evals in device_stage_evals.values():
        for stage, eval_ in evals:
            ordered[stage] = eval_
    return build_plan(
        method, ctx.parallel, ctx.train, ctx.layers, boundaries, ordered,
        ctx.spec.hidden_size, ctx.hop_time,
    )

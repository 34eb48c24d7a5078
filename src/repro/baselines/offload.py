"""Offloading-augmented recomputation (MPress / SuperNeurons style, §8).

The paper's related work discusses systems that *offload* activations to
host memory instead of (or combined with) recomputing them, and argues the
CPU-GPU link makes this increasingly hard to overlap. This module models
that third option so it can be compared quantitatively:

Every optional unit now has three dispositions — **save** in HBM,
**recompute**, or **offload** over the host link. A unit not kept in HBM
pays ``min(recompute_cost, exposed_offload_cost)`` of backward time, where
the offload cost is its round-trip bytes over the host link minus whatever
overlaps with compute. The keep-in-HBM knapsack then runs with *capped*
values: AdaPipe's plain knapsack is recovered exactly when the host link is
slow (offload never wins), and a free host link collapses every value to ~0
(keeping HBM space becomes worthless).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.isomorphism import StageEval
from repro.core.partition_dp import even_boundaries
from repro.core.plan import PipelinePlan, build_plan
from repro.core.recompute_dp import UnitItem, optimize_stage_recompute
from repro.core.search import PlannerContext
from repro.profiler.memory import StageMemory

DEFAULT_HOST_LINK_BANDWIDTH = 25e9  # PCIe 4.0 x16, achievable


@dataclass(frozen=True)
class OffloadModel:
    """Cost model for the host link.

    Attributes:
        bandwidth: bytes/s to host memory (per direction).
        overlap_fraction: share of the transfer hidden under compute;
            the paper argues this shrinks as accelerators get faster.
    """

    bandwidth: float = DEFAULT_HOST_LINK_BANDWIDTH
    overlap_fraction: float = 0.5

    def exposed_cost(self, num_bytes: float) -> float:
        """Visible backward-time cost of round-tripping ``num_bytes``."""
        round_trip = 2.0 * num_bytes / self.bandwidth
        return (1.0 - self.overlap_fraction) * round_trip


def offload_stage_eval(
    ctx: PlannerContext,
    stage: int,
    stage_layers,
    capacity_bytes: float,
    offload: OffloadModel,
) -> StageEval:
    """Per-stage optimum when units may be saved, recomputed, or offloaded."""
    memory_model = ctx.profiler.memory
    in_flight = memory_model.in_flight(stage)

    forward = 0.0
    backward_fixed = 0.0
    always_bytes = 0.0
    counts = {}
    items: dict = {}
    evicted_cost_total = 0.0
    for layer in stage_layers:
        profile = ctx.profiler.profile_layer(layer.kind)
        for unit in profile.units:
            forward += unit.time_forward
            backward_fixed += unit.time_backward
            if unit.always_saved:
                always_bytes += unit.saved_bytes
                counts[unit.name] = counts.get(unit.name, 0) + 1
                continue
            # Not keeping the unit in HBM costs the cheaper of recompute
            # and offload; keeping it earns exactly that much back.
            eviction = min(
                unit.time_forward, offload.exposed_cost(unit.saved_bytes)
            )
            evicted_cost_total += eviction
            existing = items.get(unit.name)
            if existing is None:
                items[unit.name] = UnitItem(
                    name=unit.name,
                    value=eviction,
                    weight_bytes=unit.saved_bytes,
                    copies=1,
                )
            else:
                items[unit.name] = UnitItem(
                    existing.name, existing.value, existing.weight_bytes,
                    existing.copies + 1,
                )

    static = memory_model.static_bytes(stage_layers)
    buffer = memory_model.recompute_buffer_bytes()
    budget = capacity_bytes - static - buffer - in_flight * always_bytes
    result = optimize_stage_recompute(list(items.values()), budget, in_flight)
    if not result.feasible:
        return StageEval(
            feasible=False,
            forward=forward,
            backward=float("inf"),
            saved_unit_counts={},
            saved_bytes_per_microbatch=0.0,
            memory=StageMemory(static, buffer, always_bytes, in_flight),
        )
    backward = backward_fixed + evicted_cost_total - result.saved_value
    for name, count in result.saved_counts.items():
        counts[name] = counts.get(name, 0) + count
    saved_bytes = always_bytes + result.saved_bytes
    memory = StageMemory(static, buffer, saved_bytes, in_flight)
    return StageEval(
        feasible=True,
        forward=forward,
        backward=backward,
        saved_unit_counts=counts,
        saved_bytes_per_microbatch=saved_bytes,
        memory=memory,
    )


def plan_offload(
    ctx: PlannerContext,
    offload: Optional[OffloadModel] = None,
    method: str = "Recompute+Offload",
) -> PipelinePlan:
    """Uniform partition with the three-way save/recompute/offload optimum."""
    offload = offload or OffloadModel()
    boundaries = even_boundaries(len(ctx.layers), ctx.parallel.pipeline_parallel)
    evals: List[StageEval] = [
        offload_stage_eval(ctx, s, ctx.layers[lo:hi], ctx.capacity_bytes, offload)
        for s, (lo, hi) in enumerate(boundaries)
    ]
    return build_plan(
        method, ctx.parallel, ctx.train, ctx.layers, boundaries, evals,
        ctx.spec.hidden_size, ctx.hop_time,
    )

"""Offloading-augmented recomputation (MPress / SuperNeurons style, §8).

The paper's related work discusses systems that *offload* activations to
host memory instead of (or combined with) recomputing them, and argues the
CPU-GPU link makes this increasingly hard to overlap. This module models
that third option so it can be compared quantitatively:

Every optional unit now has three dispositions — **save** in HBM,
**recompute**, or **offload** over the host link. A unit not kept in HBM
pays ``min(recompute_time, exposed_offload_cost)`` of backward time, where
the offload cost is its round-trip bytes over the host link minus whatever
overlaps with compute. The keep-in-HBM knapsack then runs with *capped*
values: AdaPipe's plain knapsack is recovered exactly when the host link is
slow (offload never wins), and a free host link collapses every value to ~0
(keeping HBM space becomes worthless).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.core.isomorphism import StageEval, kind_counts, stage_totals
from repro.core.plan import PipelinePlan
from repro.core.recompute_dp import optimize_stage_recompute
from repro.core.search import PlannerContext, plan_fixed_partition
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
    """Per-stage optimum when units may be saved, recomputed, or offloaded.

    The stage's :func:`~repro.core.isomorphism.stage_totals` items carry
    their eviction value instead of their recompute time: not keeping a
    unit in HBM costs the cheaper of recompute and offload, and keeping it
    earns exactly that much back.
    """
    memory_model = ctx.profiler.memory
    in_flight = memory_model.in_flight(stage)
    totals = stage_totals(ctx.profiler, kind_counts(stage_layers))
    items = [
        dataclasses.replace(
            item, value=min(item.value, offload.exposed_cost(item.weight_bytes))
        )
        for item in totals.items
    ]
    evicted_cost_total = sum(item.copies * item.value for item in items)

    static = memory_model.static_bytes(stage_layers)
    buffer = memory_model.recompute_buffer_bytes()
    always_bytes = totals.always_bytes
    budget = capacity_bytes - static - buffer - in_flight * always_bytes
    result = optimize_stage_recompute(items, budget, in_flight)
    if not result.feasible:
        return StageEval(
            feasible=False,
            forward=totals.forward,
            backward=float("inf"),
            saved_unit_counts={},
            saved_bytes_per_microbatch=0.0,
            memory=StageMemory(static, buffer, always_bytes, in_flight),
        )
    backward = totals.backward_fixed + evicted_cost_total - result.saved_value
    counts = dict(totals.always_counts)
    for name, count in result.saved_counts.items():
        counts[name] = counts.get(name, 0) + count
    saved_bytes = always_bytes + result.saved_bytes
    memory = StageMemory(static, buffer, saved_bytes, in_flight)
    return StageEval(
        feasible=True,
        forward=totals.forward,
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
    """Uniform partition with the three-way save/recompute/offload optimum,
    each stage against its rank's DP budget."""
    offload = offload or OffloadModel()

    def price(boundaries, ranks):
        return [
            offload_stage_eval(
                ctx, s, ctx.layers[lo:hi], ranks[s].capacity_bytes, offload
            )
            for s, (lo, hi) in enumerate(boundaries)
        ]

    return plan_fixed_partition(ctx, method, price)

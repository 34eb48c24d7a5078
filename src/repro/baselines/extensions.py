"""Extension baselines beyond the paper's evaluated set.

These implement techniques the paper discusses in Sections 2 and 8 but does
not carry into its figures, so AdaPipe can be compared against the wider
design space:

* **sqrt(L) checkpointing** (Chen et al. 2016, Section 2.2): keep only a
  layer-boundary activation every ``k`` layers, re-running whole segments
  in backward; the recompute buffer grows to ``k`` layers. Per stage we
  pick the fastest feasible ``k`` — the classic memory/time curve AdaPipe's
  unit knapsack dominates.
* **BPipe-style activation balancing** (Kim et al. 2023, Section 8):
  no recomputation anywhere; instead, stage ``s`` (holding ``p - s``
  micro-batches) evicts activations to its memory-rich partner stage
  ``p - 1 - s``, balancing the pair's load at the price of extra
  point-to-point traffic.
* **Interleaved 1F1B** (Megatron, Section 2.1): ``v`` model chunks per
  device shrink bubbles to ``1/v`` at ``v``-fold stage-boundary
  communication; combined here with full/no recomputation.

Each planner is a pricer for
:func:`~repro.core.search.plan_fixed_partition`, which splits the layers,
places the stages on a device pool and scales each stage by its rank.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.core.isomorphism import StageEval
from repro.core.plan import PipelinePlan
from repro.core.search import PlannerContext, plan_fixed_partition
from repro.core.strategies import RecomputePolicy, stage_eval_for_policy
from repro.hardware.comm import CommModel
from repro.profiler.memory import StageMemory


# -- sqrt(L) checkpointing ----------------------------------------------------


def sqrt_checkpoint_stage_eval(
    ctx: PlannerContext,
    stage: int,
    stage_layers,
    capacity_bytes: float,
    segment_length: Optional[int] = None,
) -> StageEval:
    """Evaluate one stage under segment checkpointing.

    Args:
        ctx: planning context.
        stage: stage index (sets the ``p - s`` in-flight multiplier).
        stage_layers: the stage's layer slice.
        capacity_bytes: device capacity.
        segment_length: checkpoint spacing ``k`` in layers; ``None`` picks
            the fastest feasible ``k`` per stage (k = sqrt(L) is the
            classic memory-optimal point).
    """
    memory_model = ctx.profiler.memory
    in_flight = memory_model.in_flight(stage)
    profiles = [ctx.profiler.profile_layer(layer.kind) for layer in stage_layers]
    num_layers = len(stage_layers)

    forward = sum(p.time_forward for p in profiles)
    backward_fixed = sum(p.time_backward for p in profiles)
    static = memory_model.static_bytes(stage_layers)
    per_layer_all_bytes = [p.saved_bytes_all for p in profiles]
    per_layer_boundary = [p.saved_bytes_always for p in profiles]

    candidates = (
        [segment_length]
        if segment_length is not None
        else list(range(1, num_layers + 1))
    )
    best: Optional[StageEval] = None
    for k in candidates:
        # One checkpoint at the entry of every segment of k layers.
        num_segments = math.ceil(num_layers / k)
        saved = sum(
            per_layer_boundary[seg * k - 1] if seg > 0 else per_layer_boundary[0]
            for seg in range(num_segments)
        )
        # Backward recomputes every segment's forward (including the
        # units a per-layer scheme would keep), buffering k layers.
        recompute = forward
        buffer = max(
            (
                sum(per_layer_all_bytes[i : i + k])
                for i in range(0, num_layers, k)
            ),
            default=0.0,
        )
        memory = StageMemory(
            static_bytes=static,
            buffer_bytes=buffer,
            saved_per_microbatch=saved,
            in_flight_microbatches=in_flight,
        )
        feasible = memory.fits(capacity_bytes)
        eval_ = StageEval(
            feasible=feasible,
            forward=forward,
            backward=backward_fixed + recompute,
            saved_unit_counts={"segment.boundary": num_segments},
            saved_bytes_per_microbatch=saved,
            memory=memory,
        )
        if feasible and (best is None or eval_.memory.total_bytes < best.memory.total_bytes):
            best = eval_
    if best is not None:
        return best
    # Nothing fits: report the smallest-memory candidate as infeasible.
    return StageEval(
        feasible=False,
        forward=forward,
        backward=math.inf,
        saved_unit_counts={},
        saved_bytes_per_microbatch=0.0,
        memory=StageMemory(static, 0.0, 0.0, in_flight),
    )


def plan_sqrt_checkpoint(
    ctx: PlannerContext, method: str = "Checkpoint-sqrtL"
) -> PipelinePlan:
    """Uniform partition with per-stage segment checkpointing, judged
    against each rank's hard capacity."""

    def price(boundaries, ranks):
        return [
            sqrt_checkpoint_stage_eval(
                ctx, s, ctx.layers[lo:hi], ranks[s].hard_capacity_bytes
            )
            for s, (lo, hi) in enumerate(boundaries)
        ]

    return plan_fixed_partition(ctx, method, price)


# -- BPipe-style activation balancing -----------------------------------------


def plan_bpipe(
    ctx: PlannerContext,
    method: str = "BPipe",
    overlap_fraction: float = 0.7,
) -> PipelinePlan:
    """No recomputation; pair stages (s, p-1-s) and balance their loads.

    Stage ``s`` holds ``(p - s) * A`` activation bytes under 1F1B; its
    partner holds ``(s + 1) * A``. BPipe evicts the difference/2 to the
    partner, so both sit at the pair average, judged against the rank's
    hard capacity. The evicted bytes travel over the inter-node network
    twice per micro-batch (evict + fetch-back); ``overlap_fraction`` of
    that hides under computation. The exposed rest is part of the stage
    times, so on a slow rank it is scaled with them.
    """

    def price(boundaries, ranks):
        p = len(boundaries)
        base = [
            stage_eval_for_policy(
                ctx.profiler,
                s,
                ctx.layers[lo:hi],
                RecomputePolicy.NONE,
                float("inf"),  # feasibility judged after balancing
            )
            for s, (lo, hi) in enumerate(boundaries)
        ]
        comm = CommModel(ctx.cluster)
        evals: List[StageEval] = []
        for s, eval_ in enumerate(base):
            in_flight = eval_.memory.in_flight_microbatches
            partner = base[p - 1 - s]
            own_load = in_flight * eval_.saved_bytes_per_microbatch
            partner_load = (
                partner.memory.in_flight_microbatches
                * partner.saved_bytes_per_microbatch
            )
            balanced = (own_load + partner_load) / 2.0
            moved = max(0.0, own_load - balanced)
            transfer = 2.0 * comm.p2p_time(moved / max(1, in_flight))
            exposed = (1.0 - overlap_fraction) * transfer
            memory = StageMemory(
                static_bytes=eval_.memory.static_bytes,
                buffer_bytes=eval_.memory.buffer_bytes,
                saved_per_microbatch=balanced / max(1, in_flight),
                in_flight_microbatches=in_flight,
            )
            evals.append(
                StageEval(
                    feasible=memory.fits(ranks[s].hard_capacity_bytes),
                    forward=eval_.forward + exposed / 2.0,
                    backward=eval_.backward + exposed / 2.0,
                    saved_unit_counts=dict(eval_.saved_unit_counts),
                    saved_bytes_per_microbatch=memory.saved_per_microbatch,
                    memory=memory,
                )
            )
        return evals

    return plan_fixed_partition(ctx, method, price)


# -- interleaved 1F1B ----------------------------------------------------------


def plan_interleaved(
    ctx: PlannerContext,
    policy: RecomputePolicy = RecomputePolicy.FULL,
    chunks: int = 2,
    method: Optional[str] = None,
) -> PipelinePlan:
    """Even partition into ``chunks * p`` global stages, fixed policy.

    Feasibility is judged by the simulator (devices host several chunks, so
    the 1F1B ``p - s`` in-flight model does not apply); the pricer judges
    no budget.
    """
    p = ctx.parallel.pipeline_parallel
    method = method or f"Interleaved-{policy.value.capitalize()}(v={chunks})"

    def price(boundaries, ranks):
        return [
            stage_eval_for_policy(
                ctx.profiler, min(s, p - 1), ctx.layers[lo:hi], policy, float("inf")
            )
            for s, (lo, hi) in enumerate(boundaries)
        ]

    return plan_fixed_partition(ctx, method, price, chunks)

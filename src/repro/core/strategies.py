"""Fixed recomputation policies (the baselines' strategies).

The paper's baselines run one uniform policy on every stage:

* ``FULL`` — full recomputation: only layer inputs (our always-saved
  closing units) survive the forward pass; everything else is recomputed.
* ``NONE`` — no recomputation: every unit is saved.
* ``SELECTIVE`` — Megatron's selective recomputation: only the attention
  core (softmax/dropout/batched-matmul block) is recomputed. With
  FlashAttention enabled this is essentially superseded (Section 2.2), but
  it matters for the non-flash ablation.

``stage_eval_for_policy`` produces the same :class:`StageEval` records the
adaptive DP yields, so baselines and AdaPipe flow through identical
downstream code (cost model, simulator, plan building).
"""

from __future__ import annotations

import enum
from typing import Dict, Sequence

from repro.core.isomorphism import StageEval, kind_counts, stage_totals
from repro.model.layers import Layer
from repro.profiler.memory import StageMemory
from repro.profiler.profiler import Profiler


class RecomputePolicy(enum.Enum):
    FULL = "full"
    NONE = "none"
    SELECTIVE = "selective"

    def saves_unit(self, unit_name: str, always_saved: bool) -> bool:
        """Whether this policy keeps the unit's intermediates."""
        if always_saved:
            return True
        if self is RecomputePolicy.NONE:
            return True
        if self is RecomputePolicy.SELECTIVE:
            return unit_name != "attn.core"
        return False  # FULL


def stage_eval_for_policy(
    profiler: Profiler,
    stage: int,
    stage_layers: Sequence[Layer],
    policy: RecomputePolicy,
    capacity_bytes: float,
) -> StageEval:
    """Evaluate a stage under a fixed (non-searched) recomputation policy.

    The stage's :func:`~repro.core.isomorphism.stage_totals` are priced
    with the policy's keep rule in place of the knapsack: a kept unit type
    pins its bytes, a dropped one adds its recompute time to backward.
    Times are nominal; a placed stage is scaled by
    :meth:`~repro.core.isomorphism.StageEval.scaled`.
    """
    memory_model = profiler.memory
    totals = stage_totals(profiler, kind_counts(stage_layers))
    forward = totals.forward
    backward = totals.backward_fixed
    saved_bytes = totals.always_bytes
    counts: Dict[str, int] = dict(totals.always_counts)
    for item in totals.items:
        if policy.saves_unit(item.name, always_saved=False):
            saved_bytes += item.copies * item.weight_bytes
            counts[item.name] = counts.get(item.name, 0) + item.copies
        else:
            backward += item.copies * item.value  # recompute cost

    memory = StageMemory(
        static_bytes=memory_model.static_bytes(stage_layers),
        buffer_bytes=memory_model.recompute_buffer_bytes(),
        saved_per_microbatch=saved_bytes,
        in_flight_microbatches=memory_model.in_flight(stage),
    )
    return StageEval(
        feasible=memory.fits(capacity_bytes),
        forward=forward,
        backward=backward,
        saved_unit_counts=counts,
        saved_bytes_per_microbatch=saved_bytes,
        memory=memory,
    )


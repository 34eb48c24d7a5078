"""Memory model (Section 4.2 of the paper).

Per-stage memory splits into three parts:

1. **Static** state, independent of recomputation: fp16 parameters ``2N/t``
   and gradients ``2N/t``, plus ZeRO-1-sharded optimizer state
   ``kN/(td)`` (k = 8 for the two FP32 Adam moments) and optional FP32
   master weights.
2. The **recompute buffer**: with the closing GEMM outputs of each
   Attention/Feed-Forward layer restricted to always-saved, the backward
   pass re-materialises at most one decoder layer's intermediates at a time,
   so the buffer is bounded by one layer's worth of activations.
3. **Saved intermediates**: every unit configured *saved* holds
   ``Mem(U)`` bytes per in-flight micro-batch, times the number of
   micro-batches the *schedule* keeps live on the stage —
   ``min(n, p - s)`` under 1F1B, all ``n`` under GPipe, and the
   schedule-specific counts of :func:`in_flight_micro_batches` for the
   interleaved and Chimera variants. Each rule lives on its row of the
   schedule-family table (:mod:`repro.pipeline.schedules.families`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config import ParallelConfig, TrainingConfig
from repro.model.layers import Layer, LayerKind
from repro.model.spec import ModelSpec
from repro.model.units import ComputationUnit, units_for_layer
from repro.pipeline.schedules.families import SCHEDULE_KINDS as SCHEDULE_KINDS
from repro.pipeline.schedules.families import schedule_family


def in_flight_micro_batches(
    schedule_kind: str,
    stage: int,
    num_stages: int,
    num_micro_batches: int,
    num_devices: Optional[int] = None,
) -> int:
    """Micro-batches whose activations stage ``s`` keeps live at peak.

    Dispatches to the family's rule in
    :data:`~repro.pipeline.schedules.families.SCHEDULE_FAMILIES`. Exact
    for the 1F1B family (``min(n, p - s)``: 1F1B, 2BP and overlapped
    recomputation, ALGORITHMS.md §13), GPipe (``n``) and interleaved 1F1B
    (replayed from the deterministic task order); an admissible upper
    bound for the Chimera variants, whose greedy list scheduler depends on
    task durations. ChimeraD counts are in micro-batch units — each
    doubled forward entity pins two micro-batches of activations.

    Args:
        schedule_kind: one of :data:`SCHEDULE_KINDS`.
        stage: stage index (a *global* stage for ``interleaved``).
        num_stages: stage count ``p`` (``chunks * devices`` for
            ``interleaved``).
        num_micro_batches: micro-batches ``n`` per iteration (per pipeline
            replica pair for Chimera, which splits them over directions).
        num_devices: pipeline group size; required for ``interleaved``.
    """
    family = schedule_family(schedule_kind)
    if not 0 <= stage < num_stages:
        raise ValueError(f"stage {stage} out of range for {num_stages} stages")
    if num_micro_batches < 1:
        raise ValueError(f"need at least one micro-batch, got {num_micro_batches}")
    return family.in_flight(stage, num_stages, num_micro_batches, num_devices)


@dataclass(frozen=True)
class StageMemory:
    """Memory breakdown of one pipeline stage, in bytes."""

    static_bytes: float
    buffer_bytes: float
    saved_per_microbatch: float
    in_flight_microbatches: int

    @property
    def total_bytes(self) -> float:
        return (
            self.static_bytes
            + self.buffer_bytes
            + self.saved_per_microbatch * self.in_flight_microbatches
        )

    def fits(self, capacity_bytes: float) -> bool:
        return self.total_bytes <= capacity_bytes


@dataclass(frozen=True)
class MemoryModel:
    """Evaluates the three-part memory model for a fixed workload.

    ``schedule_kind`` selects the in-flight accounting rule (default
    ``"1f1b"``, the paper's schedule). Interleaved layouts replicate the
    model over ``chunks * p`` global stages and should query
    :func:`in_flight_micro_batches` directly with the global stage count.
    """

    spec: ModelSpec
    train: TrainingConfig
    parallel: ParallelConfig
    schedule_kind: str = "1f1b"

    def with_schedule(self, schedule_kind: str) -> "MemoryModel":
        """A copy of this model accounting for ``schedule_kind``."""
        schedule_family(schedule_kind)  # reject unknown kinds here, not later
        return dataclasses.replace(self, schedule_kind=schedule_kind)

    @property
    def num_micro_batches(self) -> int:
        return self.train.num_micro_batches(self.parallel)

    def unit_saved_bytes(self, unit: ComputationUnit) -> float:
        """The paper's ``Mem(U)``: bytes held when ``unit`` is saved."""
        return unit.saved_elements * self.train.bytes_per_value

    def static_bytes(self, layers: Sequence[Layer]) -> float:
        """Parameters + gradients + optimizer state for a stage's layers.

        ZeRO sharding (``train.zero_stage``) divides successive terms by the
        data-parallel size: stage 1 shards the optimizer state and master
        weights (the paper's setting), stage 2 also gradients, stage 3 also
        the fp16 parameters.
        """
        return self.static_bytes_of_params(sum(layer.params for layer in layers))

    def static_bytes_of_params(self, params: int) -> float:
        """:meth:`static_bytes` of layers holding ``params`` parameters."""
        t = self.parallel.tensor_parallel
        d = self.parallel.data_parallel
        zero = self.train.zero_stage
        param_bytes = 2.0 * params / t / (d if zero >= 3 else 1)
        grad_bytes = 2.0 * params / t / (d if zero >= 2 else 1)
        state_divisor = t * (d if zero >= 1 else 1)
        optimizer_bytes = self.train.optimizer_state_factor * params / state_divisor
        master_bytes = self.train.master_weight_bytes * params / state_divisor
        return param_bytes + grad_bytes + optimizer_bytes + master_bytes

    def recompute_buffer_bytes(self) -> float:
        """Upper bound on the backward re-materialisation buffer.

        One decoder layer's intermediates: the Attention plus Feed-Forward
        units that are *not* restricted to always-saved (those are counted
        in the saved intermediates instead).
        """
        buffer = 0.0
        for kind in (LayerKind.ATTENTION, LayerKind.FFN):
            for unit in units_for_layer(
                kind, self.spec, self.train, self.parallel.tensor_parallel
            ):
                if not unit.always_saved:
                    buffer += self.unit_saved_bytes(unit)
        return buffer

    def in_flight(self, stage: int) -> int:
        """Micro-batches stage ``s`` keeps live under ``schedule_kind``.

        ``min(n, p - s)`` for the default 1F1B — the unclamped ``p - s``
        overstated memory whenever ``n < p``, rejecting plans the schedule
        actually fits (and the converse rule, had it under-stated, would
        have admitted OOMs).
        """
        return in_flight_micro_batches(
            self.schedule_kind,
            stage,
            self.parallel.pipeline_parallel,
            self.num_micro_batches,
            num_devices=self.parallel.pipeline_parallel,
        )

    def intermediate_budget(
        self, stage: int, layers: Sequence[Layer], capacity_bytes: float
    ) -> float:
        """Memory left for saved intermediates after static state and buffer.

        This is the knapsack capacity ``M`` of Section 4.3 (before the
        in-flight multiplier of :meth:`in_flight`, which the DP applies to
        item weights).
        """
        return capacity_bytes - self.static_bytes(layers) - self.recompute_buffer_bytes()

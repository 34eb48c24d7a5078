"""Plan data model: what the search engine outputs.

A :class:`PipelinePlan` fixes, for every stage, its layer range and its
recomputation choice (how many copies of each computation-unit type are
saved). Plans are self-describing enough to (a) print the paper's Table 4,
(b) feed the pipeline simulator, and (c) drive the real mini-framework
executor in :mod:`repro.training.pipeline_exec`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.config import ParallelConfig, TrainingConfig
from repro.core.isomorphism import StageEval
from repro.core.partition_dp import phase_model_time
from repro.model.layers import Layer
from repro.pipeline.tasks import StageCosts
from repro.profiler.memory import StageMemory


@dataclass(frozen=True)
class StagePlan:
    """One stage of a pipeline plan.

    Attributes:
        stage: 0-based stage index.
        layer_start / layer_end: the stage's half-open layer range in the
            model's layer sequence.
        saved_unit_counts: per unit type (e.g. ``"ffn.act"``), how many
            instances across the stage's layers are *saved*; always-saved
            units are included.
        forward_time / backward_time: modelled per-micro-batch times; the
            backward time includes the recomputation this plan performs.
        memory: the stage's modelled memory breakdown.
        params: parameter count of the stage's layers (whole tensor-parallel
            group), used for gradient-synchronisation costs.
    """

    stage: int
    layer_start: int
    layer_end: int
    saved_unit_counts: Mapping[str, int]
    forward_time: float
    backward_time: float
    memory: StageMemory
    params: int = 0

    @property
    def num_layers(self) -> int:
        return self.layer_end - self.layer_start

    @property
    def num_saved_units(self) -> int:
        """Table 4's "Saved Units" figure for this stage."""
        return sum(self.saved_unit_counts.values())

    @property
    def micro_step_time(self) -> float:
        """Forward plus backward time of one micro-batch (Figure 9)."""
        return self.forward_time + self.backward_time

    def to_stage_costs(self, hop_time: float = 0.0) -> StageCosts:
        """Convert to the simulator's cost record."""
        del hop_time  # hops live on schedule edges, not stage costs
        return StageCosts(
            forward=self.forward_time,
            backward=self.backward_time,
            activation_bytes=self.memory.saved_per_microbatch,
            static_bytes=self.memory.static_bytes,
            buffer_bytes=self.memory.buffer_bytes,
        )


@dataclass(frozen=True)
class PipelinePlan:
    """A complete AdaPipe (or baseline) plan.

    Attributes:
        method: label such as ``"AdaPipe"`` or ``"DAPPLE-Full"``.
        parallel: the 3D strategy the plan was built for.
        train: the workload it serves.
        stages: per-stage sub-plans, in pipeline order.
        modeled_iteration_time: the analytic ``W_0 + E_0 + S_0`` estimate
            (Section 5.1); ``None`` for plans built without the cost model.
        feasible: False when some stage exceeds device memory (OOM).
        hidden_size: model dimension, retained for stage-boundary
            communication sizing.
        metadata: search observability counters and annotations (inner-DP
            invocations, cache hits, per-strategy wall clock, ...). Values
            must be JSON-compatible; the mapping never influences execution
            and is excluded from plan-equivalence comparisons.
    """

    method: str
    parallel: ParallelConfig
    train: TrainingConfig
    stages: Tuple[StagePlan, ...]
    modeled_iteration_time: Optional[float] = None
    feasible: bool = True
    hidden_size: int = 0
    metadata: Mapping[str, object] = field(default_factory=dict)

    def with_metadata(self, **entries: object) -> "PipelinePlan":
        """A copy of this plan with ``entries`` merged into its metadata."""
        return dataclasses.replace(
            self, metadata={**dict(self.metadata), **entries}
        )

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def layer_counts(self) -> Tuple[int, ...]:
        """Table 4's "# Layers" row."""
        return tuple(stage.num_layers for stage in self.stages)

    def saved_unit_counts(self) -> Tuple[int, ...]:
        """Table 4's "Saved Units" row."""
        return tuple(stage.num_saved_units for stage in self.stages)

    def stage_costs(self) -> Tuple[StageCosts, ...]:
        return tuple(stage.to_stage_costs() for stage in self.stages)

    def peak_memory_bytes(
        self, schedule_kind: Optional[str] = None
    ) -> Tuple[float, ...]:
        """Modelled per-stage peak bytes.

        With ``schedule_kind=None`` (default), returns the totals baked in
        at planning time. Given a kind, re-derives each stage's total with
        that schedule's in-flight count (via
        :func:`repro.profiler.memory.in_flight_micro_batches`) — e.g. a
        plan built for 1F1B re-priced for GPipe's all-``n`` liveness. The
        pipeline-group size is inferred from the plan's own stage count
        (``num_stages`` globals for ``interleaved`` layouts).
        """
        if schedule_kind is None:
            return tuple(stage.memory.total_bytes for stage in self.stages)
        from repro.profiler.memory import in_flight_micro_batches

        n = self.train.num_micro_batches(self.parallel)
        devices = self.parallel.pipeline_parallel
        return tuple(
            stage.memory.static_bytes
            + stage.memory.buffer_bytes
            + stage.memory.saved_per_microbatch
            * in_flight_micro_batches(
                schedule_kind, s, self.num_stages, n, num_devices=devices
            )
            for s, stage in enumerate(self.stages)
        )

    def describe(self) -> str:
        """Multi-line human-readable plan summary."""
        lines = [
            f"{self.method} on {self.parallel}, "
            f"seq={self.train.sequence_length}, "
            f"feasible={self.feasible}"
        ]
        if self.modeled_iteration_time is not None:
            lines.append(f"modeled iteration: {self.modeled_iteration_time * 1e3:.1f} ms")
        for stage in self.stages:
            mem_gib = stage.memory.total_bytes / 1024**3
            lines.append(
                f"  stage {stage.stage}: layers [{stage.layer_start}, "
                f"{stage.layer_end}) saved_units={stage.num_saved_units} "
                f"fwd={stage.forward_time * 1e3:.2f}ms "
                f"bwd={stage.backward_time * 1e3:.2f}ms mem={mem_gib:.1f}GiB"
            )
        return "\n".join(lines)


def build_plan(
    method: str,
    parallel: ParallelConfig,
    train: TrainingConfig,
    layers: Sequence[Layer],
    boundaries: Sequence[Tuple[int, int]],
    evals: Sequence[StageEval],
    hidden_size: int,
    hop_time: float = 0.0,
) -> PipelinePlan:
    """The one constructor of planner output.

    Every planner hands its stage boundaries and their evaluations here,
    so each stage's ``params`` is the sum over its layer range (gradient
    sync is priced from it), and the plan is feasible when every stage is.
    The modelled time is the phase model over ``evals``
    (:func:`~repro.core.partition_dp.phase_model_time`, one ``hop_time``
    per stage boundary and direction), which for the partition DP's own
    stages is its total bit for bit; it is ``None`` for an infeasible
    plan and for a chunked layout (more stages than pipeline ranks),
    which the 1F1B phase model does not describe.
    """
    stages = tuple(
        StagePlan(
            stage=s,
            layer_start=lo,
            layer_end=hi,
            saved_unit_counts=dict(evals[s].saved_unit_counts),
            forward_time=evals[s].forward,
            backward_time=evals[s].backward,
            memory=evals[s].memory,
            params=sum(layer.params for layer in layers[lo:hi]),
        )
        for s, (lo, hi) in enumerate(boundaries)
    )
    feasible = all(e.feasible for e in evals)
    modeled: Optional[float] = None
    if feasible and len(boundaries) == parallel.pipeline_parallel:
        modeled = phase_model_time(evals, train.num_micro_batches(parallel), hop_time)
    return PipelinePlan(
        method=method,
        parallel=parallel,
        train=train,
        stages=stages,
        modeled_iteration_time=modeled,
        feasible=feasible,
        hidden_size=hidden_size,
    )


def merge_unit_counts(counts: Sequence[Mapping[str, int]]) -> Dict[str, int]:
    """Sum several per-type saved-unit count mappings."""
    merged: Dict[str, int] = {}
    for mapping in counts:
        for name, count in mapping.items():
            merged[name] = merged.get(name, 0) + count
    return merged

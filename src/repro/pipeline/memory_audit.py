"""Differential audit: memory model vs simulator, per stage and device.

The Section 4.2 memory model gates the entire search — knapsack budgets,
partition feasibility, the sweep's pruning bound — so a wrong in-flight
count silently corrupts every plan. This module cross-checks the model
against the simulator's ground truth: the analytic per-stage in-flight
counts of :func:`repro.profiler.memory.in_flight_micro_batches` against
the measured :func:`repro.pipeline.tracing.stage_in_flight_micro_batch_peaks`,
and the modelled per-device peaks against ``SimulationResult.device_peak_bytes``.

The contract being audited:

* **Conservativeness** — the model must never under-state: modelled
  in-flight >= simulated in-flight on every (pipe, stage), and modelled
  device peak >= simulated device peak on every device, for every
  schedule kind. (The converse — a model that under-counts — is exactly
  the planner-admits-OOM failure mode this audit exists to catch.)
* **Tightness where claimed** — families marked ``exact_in_flight`` in
  :data:`~repro.pipeline.schedules.SCHEDULE_FAMILIES` (the 1F1B family,
  GPipe, interleaved 1F1B) must match the measured in-flight count on
  every stage — the audit reports those stages "exact", not merely
  "conservative". Where each device hosts a single stage (1F1B, 2BP,
  overlapped recomputation, GPipe) the device peaks then agree to
  floating-point tolerance as well.

``adapipe audit`` runs this over the schedule zoo; ``adapipe validate``
registers it as a differential check; :func:`repro.core.evaluate.evaluate_plan`
surfaces the summary numbers in plan metadata next to the ``sim_*`` keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.pipeline.schedules import SCHEDULE_FAMILIES
from repro.pipeline.simulator import SimulationResult, simulate
from repro.pipeline.tasks import Schedule, TaskKind
from repro.pipeline.tracing import stage_in_flight_micro_batch_peaks
from repro.profiler.memory import in_flight_micro_batches

#: Relative slack below which modelled < simulated is treated as float
#: noise rather than an under-count.
_REL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class StageFlightAudit:
    """In-flight accounting for one (pipe, stage): model vs measurement."""

    pipe: int
    stage: int
    device: int
    modeled_in_flight: int
    simulated_in_flight: int
    saved_per_microbatch: float

    @property
    def conservative(self) -> bool:
        return self.modeled_in_flight >= self.simulated_in_flight

    @property
    def exact(self) -> bool:
        return self.modeled_in_flight == self.simulated_in_flight


@dataclass(frozen=True)
class DeviceAudit:
    """Peak-memory accounting for one device: model vs simulator.

    ``capacity_bytes`` is the device's *own* usable capacity when the
    audit runs against a heterogeneous pool (each rank gets the budget of
    the part the plan placed there); ``None`` on homogeneous clusters,
    where the caller compares against the uniform capacity itself.
    """

    device: int
    modeled_peak_bytes: float
    simulated_peak_bytes: float
    capacity_bytes: Optional[float] = None

    @property
    def gap_bytes(self) -> float:
        """Modelled minus simulated; negative means the model under-counts."""
        return self.modeled_peak_bytes - self.simulated_peak_bytes

    @property
    def rel_gap(self) -> float:
        denom = max(abs(self.simulated_peak_bytes), 1.0)
        return self.gap_bytes / denom

    @property
    def conservative(self) -> bool:
        return self.rel_gap >= -_REL_TOLERANCE

    @property
    def within_budget(self) -> bool:
        """Simulated peak within this rank's own capacity (True if unknown)."""
        if self.capacity_bytes is None:
            return True
        return self.simulated_peak_bytes <= self.capacity_bytes


@dataclass(frozen=True)
class MemoryAuditReport:
    """Full differential report for one schedule."""

    schedule_kind: str
    schedule_name: str
    stages: Tuple[StageFlightAudit, ...]
    devices: Tuple[DeviceAudit, ...]

    @property
    def conservative(self) -> bool:
        """True when the model never under-states memory anywhere."""
        return all(s.conservative for s in self.stages) and all(
            d.conservative for d in self.devices
        )

    @property
    def max_rel_gap(self) -> float:
        """Largest relative over-statement across devices (0 if exact)."""
        return max((d.rel_gap for d in self.devices), default=0.0)

    @property
    def max_abs_rel_gap(self) -> float:
        """Largest |relative gap| — 0 means model == simulator everywhere."""
        return max((abs(d.rel_gap) for d in self.devices), default=0.0)

    @property
    def within_budget(self) -> bool:
        """Every rank's simulated peak fits its own device's capacity.

        Trivially True when the audit ran without per-rank capacities
        (homogeneous cluster).
        """
        return all(d.within_budget for d in self.devices)

    def summary(self) -> Dict[str, object]:
        """JSON-compatible numbers for plan metadata / reports."""
        return {
            "schedule_kind": self.schedule_kind,
            "conservative": self.conservative,
            "within_budget": self.within_budget,
            "max_rel_gap": self.max_rel_gap,
            "modeled_peak_bytes": max(
                (d.modeled_peak_bytes for d in self.devices), default=0.0
            ),
            "simulated_peak_bytes": max(
                (d.simulated_peak_bytes for d in self.devices), default=0.0
            ),
            "stages_exact": sum(1 for s in self.stages if s.exact),
            "stages_total": len(self.stages),
        }

    def describe(self) -> str:
        """Human-readable per-stage / per-device discrepancy table."""
        lines = [
            f"memory audit: {self.schedule_name} [{self.schedule_kind}] — "
            + ("model conservative" if self.conservative else "MODEL UNDER-COUNTS")
        ]
        lines.append("  pipe stage device  in-flight model/sim   saved/mb")
        for s in self.stages:
            flag = "" if s.conservative else "  << UNDER"
            lines.append(
                f"  {s.pipe:4d} {s.stage:5d} {s.device:6d}  "
                f"{s.modeled_in_flight:9d}/{s.simulated_in_flight:<9d} "
                f"{s.saved_per_microbatch / 1024**2:8.1f}MiB{flag}"
            )
        lines.append("  device  peak model / sim (GiB)    rel gap")
        for d in self.devices:
            flag = "" if d.conservative else "  << UNDER"
            lines.append(
                f"  {d.device:6d}  {d.modeled_peak_bytes / 1024**3:10.3f} / "
                f"{d.simulated_peak_bytes / 1024**3:<10.3f} "
                f"{d.rel_gap:+9.2%}{flag}"
            )
        return "\n".join(lines)


def _stage_layout(
    schedule: Schedule,
) -> Dict[Tuple[int, int], Tuple[int, float]]:
    """Per (pipe, stage): (device, per-micro-batch activation bytes)."""
    layout: Dict[Tuple[int, int], Tuple[int, float]] = {}
    for task in schedule.all_tasks():
        if task.key.kind != TaskKind.FORWARD:
            continue
        key = (task.key.pipe, task.key.stage)
        per_mb = task.activation_bytes / max(task.weight, 1)
        prev = layout.get(key)
        if prev is None or per_mb > prev[1]:
            layout[key] = (task.device, per_mb)
    return layout


def modeled_stage_in_flight(
    schedule: Schedule, schedule_kind: str
) -> Dict[Tuple[int, int], int]:
    """Analytic in-flight counts for every (pipe, stage) of ``schedule``."""
    layout = _stage_layout(schedule)
    num_stages = max((stage for _, stage in layout), default=-1) + 1
    counts: Dict[Tuple[int, int], int] = {}
    for pipe, stage in layout:
        counts[(pipe, stage)] = in_flight_micro_batches(
            schedule_kind,
            stage,
            num_stages,
            schedule.num_micro_batches,
            num_devices=schedule.num_devices,
        )
    return counts


def modeled_device_peaks(schedule: Schedule, schedule_kind: str) -> List[float]:
    """The memory model's per-device peak for ``schedule``.

    Statics and recompute buffers are taken from the schedule itself (so
    Chimera's two-stages-per-device doubling is included), and each hosted
    stage contributes ``in_flight * saved_per_microbatch`` with the
    schedule-aware analytic count.
    """
    statics = schedule.device_static_bytes or [0.0] * schedule.num_devices
    buffers = schedule.device_buffer_bytes or [0.0] * schedule.num_devices
    peaks = [float(s) + float(b) for s, b in zip(statics, buffers)]
    layout = _stage_layout(schedule)
    flights = modeled_stage_in_flight(schedule, schedule_kind)
    for key, (device, per_mb) in layout.items():
        peaks[device] += flights[key] * per_mb
    return peaks


def audit_schedule_memory(
    schedule: Schedule,
    schedule_kind: str,
    result: Optional[SimulationResult] = None,
    capacities: Optional[Sequence[float]] = None,
) -> MemoryAuditReport:
    """Differential model-vs-simulator audit of one schedule.

    ``capacities`` (per-device usable bytes, heterogeneous pools) makes
    every :class:`DeviceAudit` carry its own budget so the report's
    ``within_budget`` reflects per-rank limits instead of a uniform one.
    """
    if result is None:
        result = simulate(schedule)
    layout = _stage_layout(schedule)
    flights = modeled_stage_in_flight(schedule, schedule_kind)
    measured = stage_in_flight_micro_batch_peaks(result)
    stages = tuple(
        StageFlightAudit(
            pipe=pipe,
            stage=stage,
            device=layout[(pipe, stage)][0],
            modeled_in_flight=flights[(pipe, stage)],
            simulated_in_flight=measured.get((pipe, stage), 0),
            saved_per_microbatch=layout[(pipe, stage)][1],
        )
        for pipe, stage in sorted(layout)
    )
    modeled = modeled_device_peaks(schedule, schedule_kind)
    devices = tuple(
        DeviceAudit(
            device=device,
            modeled_peak_bytes=modeled[device],
            simulated_peak_bytes=result.device_peak_bytes[device],
            capacity_bytes=(
                float(capacities[device])
                if capacities is not None and device < len(capacities)
                else None
            ),
        )
        for device in range(schedule.num_devices)
    )
    return MemoryAuditReport(
        schedule_kind=schedule_kind,
        schedule_name=schedule.name,
        stages=stages,
        devices=devices,
    )


def audit_plan_memory(
    plan,
    cluster,
    schedule_kind: str = "1f1b",
    result: Optional[SimulationResult] = None,
) -> MemoryAuditReport:
    """Audit a :class:`~repro.core.plan.PipelinePlan` under one schedule.

    On a pooled (heterogeneous) cluster each device audit carries the
    capacity of the part the plan's placement metadata puts on that rank,
    so ``report.within_budget`` checks per-rank peaks against per-rank
    budgets.
    """
    # Imported lazily: core.evaluate imports this module for metadata.
    from repro.core.evaluate import build_schedule_for_plan

    schedule = build_schedule_for_plan(plan, cluster, schedule_kind)
    capacities: Optional[List[float]] = None
    if getattr(cluster, "device_pool", None):
        from repro.core.placement import apply_plan_placement

        placed = apply_plan_placement(cluster, plan)
        capacities = [
            float(device.usable_memory_bytes) for device in placed.device_pool
        ]
    return audit_schedule_memory(
        schedule, schedule_kind, result=result, capacities=capacities
    )


def audit_plan_over_schedules(
    plan,
    cluster,
    schedule_kinds: Optional[Sequence[str]] = None,
) -> Mapping[str, MemoryAuditReport]:
    """Audit a plan across the schedule zoo; skips kinds the plan can't run.

    ``schedule_kinds`` defaults to every family a plain (un-chunked) plan
    can run. A kind is skipped (absent from the result) when the schedule
    builder rejects the configuration — e.g. Chimera needs an even stage
    count.
    """
    if schedule_kinds is None:
        schedule_kinds = [
            family.name for family in SCHEDULE_FAMILIES if not family.chunked
        ]
    reports: Dict[str, MemoryAuditReport] = {}
    for kind in schedule_kinds:
        try:
            reports[kind] = audit_plan_memory(plan, cluster, kind)
        except (ValueError, KeyError):
            continue
    return reports

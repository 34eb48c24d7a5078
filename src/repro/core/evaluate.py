"""Bridging plans to the pipeline simulator.

The planners produce analytic cost-model estimates; this module *executes*
a plan on the event-driven simulator, which is the reproduction's
equivalent of running the training job and timing an iteration. Simulated
numbers are what the experiment harness reports, with the analytic model
kept alongside for validation (they should agree closely for 1F1B — a
property the test suite asserts).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

from repro.core.placement import apply_plan_placement
from repro.core.plan import PipelinePlan
from repro.core.robust import evaluate_robustness, robust_metadata
from repro.hardware.cluster import ClusterSpec
from repro.hardware.comm import CommModel
from repro.pipeline.memory_audit import audit_schedule_memory
from repro.pipeline.perturb import PerturbationSpec
from repro.pipeline.schedules import schedule_family
from repro.pipeline.simulator import SimulationResult, simulate_with_info
from repro.pipeline.tasks import Schedule


@dataclass(frozen=True)
class PlanEvaluation:
    """A plan together with its simulated execution.

    Attributes:
        plan: the evaluated plan.
        simulation: the simulator run, or ``None`` when the plan was
            infeasible (OOM) and never executed.
        oom: whether the plan is memory-infeasible — declared by the
            planner or discovered by the simulator's memory tracker.
    """

    plan: PipelinePlan
    simulation: Optional[SimulationResult]
    oom: bool

    @property
    def iteration_time(self) -> Optional[float]:
        if self.oom or self.simulation is None:
            return None
        return self.simulation.iteration_time

    @property
    def label(self) -> str:
        return self.plan.method

    def peak_memory_per_device(self) -> List[float]:
        if self.simulation is not None:
            return list(self.simulation.device_peak_bytes)
        return list(self.plan.peak_memory_bytes())


def build_schedule_for_plan(
    plan: PipelinePlan,
    cluster: ClusterSpec,
    schedule_kind: str = "1f1b",
    comm: Optional[CommModel] = None,
) -> Schedule:
    """Materialise a plan as an executable schedule.

    Args:
        plan: the pipeline plan.
        cluster: hardware, for the stage-boundary hop time.
        schedule_kind: a family name from
            :data:`~repro.pipeline.schedules.SCHEDULE_FAMILIES`
            (``"interleaved"`` reads the chunk count off the plan:
            ``num_stages / pipeline_parallel``).
        comm: an existing communication model for ``cluster``, to avoid
            rebuilding one per call.
    """
    family = schedule_family(schedule_kind)
    hop = (comm or CommModel(cluster)).pipeline_hop_time(plan.hidden_size, plan.train)
    return family.build(
        list(plan.stage_costs()),
        plan.train.num_micro_batches(plan.parallel),
        hop,
        plan.method,
        plan.parallel.pipeline_parallel,
    )


def evaluate_plan(
    plan: PipelinePlan,
    cluster: ClusterSpec,
    schedule_kind: str = "1f1b",
    enforce_memory: bool = True,
    include_gradient_sync: bool = True,
    perturbation: Optional[PerturbationSpec] = None,
    robust_draws: int = 16,
) -> PlanEvaluation:
    """Simulate ``plan`` and check it against device memory.

    When ``include_gradient_sync`` is set and the plan is data-parallel,
    the per-iteration ZeRO-1 gradient reduce-scatter and parameter
    all-gather of the heaviest stage is added to the iteration time (all
    stages synchronise concurrently after the last backward).

    The returned evaluation's plan carries simulator observability in its
    metadata (``sim_cache_hit`` and the cumulative simulation-cache
    counters), mirroring the sweep's search counters, and
    the memory audit's summary (``mem_model_peak_bytes``,
    ``mem_sim_peak_bytes``, ``mem_model_conservative``,
    ``mem_model_max_rel_gap``) cross-checking the Section 4.2 model against
    the simulator's memory tracker under the executed schedule.

    With a ``perturbation`` spec, the schedule is additionally executed
    under a ``robust_draws``-member perturbation ensemble
    (:func:`repro.core.robust.evaluate_robustness`) and the ensemble's
    statistics land in metadata as ``robust_*`` keys (nominal / mean /
    p95 / worst iteration time and per-device straggler criticality).
    The headline ``iteration_time`` stays nominal.
    """
    if not plan.feasible:
        return PlanEvaluation(plan=plan, simulation=None, oom=True)
    comm = CommModel(cluster)
    schedule = build_schedule_for_plan(plan, cluster, schedule_kind, comm=comm)
    result, sim_info = simulate_with_info(schedule)
    audit = audit_schedule_memory(schedule, schedule_kind, result=result)
    robustness = None
    if perturbation is not None:
        robustness = evaluate_robustness(schedule, perturbation, robust_draws)
    if include_gradient_sync and plan.parallel.data_parallel > 1:
        sync = max(
            comm.gradient_sync_time(stage.params, plan.parallel)
            for stage in plan.stages
        )
        result = dataclasses.replace(
            result, iteration_time=result.iteration_time + sync
        )
    oom = False
    if enforce_memory:
        if cluster.device_pool:
            # Heterogeneous fleet: each simulated device peak is judged
            # against the capacity of the part the plan placed on that
            # rank (the plan's placement metadata re-orders the pool).
            placed = apply_plan_placement(cluster, plan)
            pool_size = len(placed.device_pool or ())
            oom = any(
                peak
                > (
                    placed.rank_device(rank)
                    if rank < pool_size
                    else cluster.device
                ).usable_memory_bytes
                for rank, peak in enumerate(result.device_peak_bytes)
            )
        else:
            oom = bool(result.oom_devices(cluster.device.usable_memory_bytes))
    summary = audit.summary()
    plan = plan.with_metadata(
        sim_cache_hit=sim_info["cache_hit"],
        sim_cache_hits=sim_info["cache_hits"],
        sim_cache_misses=sim_info["cache_misses"],
        mem_model_peak_bytes=summary["modeled_peak_bytes"],
        mem_sim_peak_bytes=summary["simulated_peak_bytes"],
        mem_model_conservative=summary["conservative"],
        mem_model_max_rel_gap=summary["max_rel_gap"],
    )
    if robustness is not None:
        plan = plan.with_metadata(**robust_metadata(robustness))
    return PlanEvaluation(plan=plan, simulation=result, oom=oom)

"""The method registry: plan + schedule for every evaluated system."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.config import ConfigError
from repro.core.evaluate import PlanEvaluation, evaluate_plan
from repro.core.plan import PipelinePlan
from repro.core.search import (
    PlannerContext,
    plan_adapipe,
    plan_even_partitioning,
    plan_policy,
)
from repro.core.strategies import RecomputePolicy


@dataclass(frozen=True)
class MethodSpec:
    """One evaluated method: how to plan and how to schedule it.

    Attributes:
        name: figure label.
        planner: builds the pipeline plan from a context.
        schedule_kind: simulator schedule ("1f1b", "chimera", "chimerad").
    """

    name: str
    planner: Callable[[PlannerContext], PipelinePlan]
    schedule_kind: str = "1f1b"


def _policy_planner(policy: RecomputePolicy, name: str, for_chimera: bool = False):
    def planner(ctx: PlannerContext) -> PipelinePlan:
        plan = plan_policy(ctx, policy, name)
        if for_chimera and not plan.feasible:
            # Chimera feasibility is decided by the simulator's memory
            # tracker (its in-flight profile differs from 1F1B, and its
            # bidirectional replicas double static memory); keep the plan
            # alive so the simulation can run and judge it.
            plan = dataclasses.replace(
                plan, modeled_iteration_time=None, feasible=True
            )
        return plan

    return planner


ALL_METHODS: Dict[str, MethodSpec] = {
    "DAPPLE-Full": MethodSpec(
        "DAPPLE-Full", _policy_planner(RecomputePolicy.FULL, "DAPPLE-Full")
    ),
    "DAPPLE-Non": MethodSpec(
        "DAPPLE-Non", _policy_planner(RecomputePolicy.NONE, "DAPPLE-Non")
    ),
    "Chimera-Full": MethodSpec(
        "Chimera-Full",
        _policy_planner(RecomputePolicy.FULL, "Chimera-Full", for_chimera=True),
        schedule_kind="chimera",
    ),
    "Chimera-Non": MethodSpec(
        "Chimera-Non",
        _policy_planner(RecomputePolicy.NONE, "Chimera-Non", for_chimera=True),
        schedule_kind="chimera",
    ),
    "ChimeraD-Full": MethodSpec(
        "ChimeraD-Full",
        _policy_planner(RecomputePolicy.FULL, "ChimeraD-Full", for_chimera=True),
        schedule_kind="chimerad",
    ),
    "ChimeraD-Non": MethodSpec(
        "ChimeraD-Non",
        _policy_planner(RecomputePolicy.NONE, "ChimeraD-Non", for_chimera=True),
        schedule_kind="chimerad",
    ),
    "Even Partitioning": MethodSpec("Even Partitioning", plan_even_partitioning),
    "AdaPipe": MethodSpec("AdaPipe", plan_adapipe),
}

BASELINE_METHODS: Tuple[str, ...] = (
    "DAPPLE-Full",
    "DAPPLE-Non",
    "Chimera-Full",
    "Chimera-Non",
    "ChimeraD-Full",
    "ChimeraD-Non",
)


def method_spec(name: str) -> MethodSpec:
    try:
        return ALL_METHODS[name]
    except KeyError:
        raise ConfigError(
            f"unknown method {name!r}; known: {sorted(ALL_METHODS)}"
        ) from None


def evaluate_method(name: str, ctx: PlannerContext) -> PlanEvaluation:
    """Plan and simulate one method on one context.

    Chimera variants that cannot split the micro-batches over two
    directions (odd counts) are reported as infeasible, mirroring how such
    configurations are simply absent from the paper's figures.
    """
    spec = method_spec(name)
    plan = spec.planner(ctx)
    try:
        return evaluate_plan(
            plan,
            ctx.cluster,
            schedule_kind=spec.schedule_kind,
            enforce_memory=True,
        )
    except ConfigError:
        return PlanEvaluation(plan=plan, simulation=None, oom=True)

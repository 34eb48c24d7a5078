"""Simulator-guided refinement of a searched partition.

Algorithm 1 optimizes the analytic phase model, which is near-exact on the
balanced pipelines it produces but can be off by a few percent against the
event-driven simulator on edge cases (the model charges the steady backlog
only at stage 0's micro-batch count). This refiner closes that gap: starting
from the DP's plan, it hill-climbs over single-layer boundary moves,
re-pricing every candidate with the *simulator* and keeping strict
improvements. Because each boundary move re-runs only the per-stage inner
DP (cached by isomorphism class) plus one simulation, a full refinement
pass costs a handful of simulations.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.core.evaluate import evaluate_plan
from repro.core.placement import device_classes
from repro.core.plan import PipelinePlan, build_plan
from repro.core.search import PlannerContext, _canonical_placement, plan_adapipe


def _boundary_moves(
    boundaries: List[Tuple[int, int]]
) -> List[List[Tuple[int, int]]]:
    """All partitions reachable by moving one stage boundary by one layer."""
    candidates = []
    for cut in range(len(boundaries) - 1):
        for delta in (-1, +1):
            moved = [list(b) for b in boundaries]
            moved[cut][1] += delta
            moved[cut + 1][0] += delta
            if moved[cut][1] > moved[cut][0] and moved[cut + 1][1] > moved[cut + 1][0]:
                candidates.append([tuple(b) for b in moved])
    return candidates


def refine_partition(
    ctx: PlannerContext,
    plan: PipelinePlan,
    max_rounds: int = 8,
    method_suffix: str = "+refine",
) -> PipelinePlan:
    """Hill-climb ``plan``'s boundaries against the simulator.

    Args:
        ctx: the plan's planning context.
        plan: a feasible starting plan (typically from :func:`plan_adapipe`).
        max_rounds: maximum improvement rounds; each round tries every
            single-layer boundary move and keeps the best.
        method_suffix: appended to the plan's method label when refinement
            changes it.

    Returns:
        The refined plan (the input plan if no move improves it).
    """
    if not plan.feasible:
        return plan
    # Candidates are priced, and simulated, on the input's placement.
    placement = plan.metadata.get("placement")
    if placement is not None and ctx.cluster.device_pool:
        classes = device_classes(ctx.cluster)
        ranks = ctx.ranks([classes[int(i)] for i in placement])
    else:
        ranks = ctx.ranks(_canonical_placement(ctx)[0])
    evaluator = ctx.stage_evaluator(ranks)
    placed = {
        key: value for key, value in plan.metadata.items() if key.startswith("placement")
    }
    hop_time = ctx.hop_time
    best_plan = plan
    best_time = evaluate_plan(plan, ctx.cluster, enforce_memory=False).iteration_time
    boundaries = [(s.layer_start, s.layer_end) for s in plan.stages]

    for _ in range(max_rounds):
        round_best = None
        round_best_time = best_time
        for candidate in _boundary_moves(boundaries):
            candidate_plan = build_plan(
                plan.method, ctx.parallel, ctx.train, ctx.layers, candidate,
                [evaluator.evaluate(s, lo, hi - 1) for s, (lo, hi) in enumerate(candidate)],
                ctx.spec.hidden_size, hop_time,
            ).with_metadata(**placed)
            if not candidate_plan.feasible:
                continue
            time = evaluate_plan(
                candidate_plan, ctx.cluster, enforce_memory=False
            ).iteration_time
            if time < round_best_time - 1e-12:
                round_best = (candidate, candidate_plan)
                round_best_time = time
        if round_best is None:
            break
        boundaries, best_plan = round_best
        best_time = round_best_time

    if best_plan is plan:
        return plan
    return dataclasses.replace(best_plan, method=plan.method + method_suffix)


def plan_adapipe_refined(
    ctx: PlannerContext, method: str = "AdaPipe"
) -> PipelinePlan:
    """Two-level DP followed by simulator-guided boundary refinement."""
    return refine_partition(ctx, plan_adapipe(ctx, method))

"""Parallel, pruned, cache-reusing sweep over 3D-parallelism strategies.

The Table 3 sweep plans every valid ``(t, p, d)`` strategy and keeps the
fastest feasible plan. Planning one strategy runs the full two-level DP,
so the sweep — not any single plan — is the search layer's hot path. This
module attacks it with three cooperating optimizations:

1. **Orchestrated parallel execution** — planning work is carved into
   bound-ordered shards that idle worker processes steal from a shared
   queue (:mod:`repro.core.orchestrator`); plans cross the process
   boundary through the :mod:`repro.core.serialize` documents. Each
   worker keeps a size-bounded :class:`~repro.core.isomorphism
   .StageEvalCache`, exports its new entries back to the coordinator with
   every shard result, and receives everything the other workers have
   computed with its next shard (cache merge-back). The sweep can
   checkpoint its frontier to disk and resume after a kill
   (``resume_from=``), persist the merged cache for warm starts across
   runs (``SweepConfig.cache_path``), and stream best-so-far plans
   through a ``progress`` callback.
2. **Branch-and-bound pruning** — :func:`strategy_lower_bound` is a cheap
   *admissible* bound on a strategy's modelled iteration time (ideal
   balanced partition, plus an aggregate-memory floor on the
   recomputation any feasible plan must pay). Strategies are visited in
   bound order and skipped once their bound exceeds the incumbent best
   per-sample time; a skipped strategy provably cannot win. The incumbent
   is broadcast to workers with every shard, so pruning happens inside
   workers too, not only at dispatch time.
3. **Cross-strategy evaluation reuse** — in serial mode all contexts share
   one :class:`StageEvalCache`, so every planner that meets the same
   (fingerprint, isomorphism-class) pair — e.g. AdaPipe and Even
   Partitioning on the same strategy — reuses the inner recomputation DP's
   solution instead of re-solving it per :class:`PlannerContext`. In
   parallel mode the merge-back gives workers the same property across
   process boundaries.

Equivalence guarantee: for planners whose ``modeled_iteration_time``
follows the 1F1B cost model of Section 5.1 (all built-in planners), the
pruned and/or parallel sweep selects a best plan whose
:func:`~repro.core.serialize.plan_signature` is identical to the serial
exhaustive sweep's — pruning only ever discards strategies whose bound
already exceeds a feasible incumbent, and the final selection minimises
(per-sample time, enumeration index) deterministically. ALGORITHMS.md
§12 extends the argument to cache merge-back, incumbent broadcast, and
checkpoint/resume.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import ParallelConfig, TrainingConfig
from repro.core.isomorphism import StageEvalCache, StageTotals, kind_counts, stage_totals
from repro.core.orchestrator import (
    PlannerRef,
    ProgressCallback,
    execute_sweep,
    per_sample_time,
    resolve_planner,
)
from repro.core.plan import PipelinePlan
from repro.core.robust import (
    ROBUST_OBJECTIVES,
    evaluate_robustness_many,
    robust_metadata,
)
from repro.core.placement import best_placement_scale_floor, pool_capacity_sum
from repro.core.search import PlannerContext, enumerate_parallel_strategies, plan_adapipe
from repro.hardware.cluster import ClusterSpec
from repro.model.spec import ModelSpec
from repro.pipeline.perturb import PerturbationSpec

__all__ = [
    "PlannerRef",
    "SweepConfig",
    "SweepResult",
    "SweepStats",
    "StrategyReport",
    "resolve_planner",
    "run_sweep",
    "strategy_lower_bound",
]

# Selection objective, shared with the execution layer.
_per_sample_time = per_sample_time


@dataclass(frozen=True)
class SweepConfig:
    """Knobs of the sweep executor.

    Attributes:
        workers: process count for parallel planning. ``1`` forces the
            serial path; ``0`` (the default) picks ``min(cpu_count,
            strategies)`` but stays serial for sweeps smaller than
            ``min_parallel`` (fork + re-profile overhead would dominate).
        min_parallel: smallest sweep worth forking workers for.
        prune: enable branch-and-bound pruning via
            :func:`strategy_lower_bound`.
        share_cache: share one stage-evaluation cache across the sweep's
            contexts (serial) or merge worker cache shards through the
            coordinator (parallel).
        cache_max_entries: FIFO bound on each worker process's
            stage-evaluation cache (the coordinator/serial shared cache
            is unbounded unless the caller bounds the cache it passes).
        cache_path: optional JSON file persisting the merged evaluation
            cache across runs: loaded (if present) before planning,
            rewritten after the sweep. Requires ``share_cache``.
        checkpoint_path: optional JSON file receiving periodic frontier
            checkpoints (completed plan documents, pruned indices,
            incumbent, and the merged cache shard, so a resumed sweep
            re-plans warm). A killed sweep resumes via
            ``run_sweep(..., resume_from=checkpoint_path)``.
        checkpoint_every: completed strategies between checkpoint writes
            (the final state is always written when the sweep finishes).
        robust_objective: statistic the final selection minimises —
            ``"nominal"`` (default: the modelled iteration time, exactly
            the classic sweep) or ``"mean"`` / ``"p95"`` / ``"worst"``
            of the simulated perturbation ensemble. Non-nominal
            objectives disable pruning (the admissible bound holds for
            nominal time only) and require a ``perturbation`` spec.
        perturbation: the :class:`~repro.pipeline.perturb.PerturbationSpec`
            the robust objective evaluates plans under.
        robust_draws: ensemble size per plan for robust objectives. The
            ensembles execute each plan's 1F1B schedule.
    """

    workers: int = 0
    min_parallel: int = 4
    prune: bool = True
    share_cache: bool = True
    cache_max_entries: Optional[int] = 65536
    cache_path: Optional[str] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 8
    robust_objective: str = "nominal"
    perturbation: Optional[PerturbationSpec] = None
    robust_draws: int = 8

    def resolve_workers(self, num_strategies: int) -> int:
        if num_strategies <= 0:
            return 1
        if self.workers == 0:
            if num_strategies < self.min_parallel:
                return 1
            return max(1, min(os.cpu_count() or 1, num_strategies))
        return max(1, min(self.workers, num_strategies))


@dataclass(frozen=True)
class StrategyReport:
    """Per-strategy sweep accounting, in enumeration order.

    Attributes:
        parallel: the strategy.
        lower_bound: admissible per-sample lower bound (seconds/sample).
        pruned: True when branch-and-bound skipped the strategy.
        per_sample_time: achieved per-sample time (``None`` if pruned or
            infeasible).
        wall_seconds: planning wall clock (0 when pruned).
    """

    parallel: ParallelConfig
    lower_bound: float
    pruned: bool
    per_sample_time: Optional[float]
    wall_seconds: float


@dataclass
class SweepStats:
    """Aggregate observability counters of one sweep.

    ``strategies_planned`` / ``strategies_pruned`` count everything the
    sweep's *result* covers, including work restored from a resume
    checkpoint; ``strategies_resumed`` says how much of it was restored
    rather than recomputed, so ``strategies_planned - strategies_resumed``
    is the fresh planning work this run actually performed.
    """

    strategies_total: int = 0
    strategies_planned: int = 0
    strategies_pruned: int = 0
    strategies_resumed: int = 0
    incumbent_prunes: int = 0
    coordinator_prunes: int = 0
    shards_dispatched: int = 0
    cache_entries_merged: int = 0
    cache_entries_loaded: int = 0
    worker_cache_hits: int = 0
    worker_cache_misses: int = 0
    inner_dp_invocations: int = 0
    eval_cache_hits: int = 0
    eval_cache_misses: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    reports: List[StrategyReport] = field(default_factory=list)

    @property
    def eval_cache_hit_rate(self) -> float:
        total = self.eval_cache_hits + self.eval_cache_misses
        return self.eval_cache_hits / total if total else 0.0

    @property
    def worker_cache_hit_rate(self) -> float:
        total = self.worker_cache_hits + self.worker_cache_misses
        return self.worker_cache_hits / total if total else 0.0

    def describe(self) -> str:
        resumed = (
            f" ({self.strategies_resumed} resumed)" if self.strategies_resumed else ""
        )
        return (
            f"{self.strategies_planned}/{self.strategies_total} strategies "
            f"planned{resumed} ({self.strategies_pruned} pruned), "
            f"{self.inner_dp_invocations} inner-DP invocations, "
            f"eval-cache hit rate {self.eval_cache_hit_rate:.0%}, "
            f"{self.workers} worker(s), {self.wall_seconds:.2f}s"
        )


@dataclass(frozen=True)
class SweepResult:
    """Outcome of :func:`run_sweep`.

    Attributes:
        best: fastest feasible plan (per-sample time, enumeration-order
            tie-break), or ``None`` when every strategy is infeasible.
        plans: the planned (non-pruned) strategies' plans, in enumeration
            order.
        stats: aggregate counters plus per-strategy reports.
    """

    best: Optional[PipelinePlan]
    plans: List[PipelinePlan]
    stats: SweepStats


def strategy_lower_bound(ctx: PlannerContext) -> float:
    """Admissible lower bound on the modelled 1F1B iteration time.

    Built from three relaxations of the Section 5.1 phase model, each
    valid for every feasible partition and recomputation choice:

    * warmup + ending: ``W_0 >= sum_s F_s`` and ``E_0 >= sum_s B_s`` (drop
      the bubble terms of Equation 3), and forward/backward times are
      additive over layers, so the sums equal the whole model's forward
      and backward time — independent of the partition — plus one hop per
      stage boundary in each direction.
    * steady: the slowest stage is at least the **ideal balanced
      partition**'s average, ``max_s (F_s + B_s) >= span / p``.
    * memory: summing the per-stage capacity constraints over all ``p``
      devices (with every in-flight count relaxed to its minimum of 1)
      bounds the total bytes the strategy can keep saved; what cannot be
      saved must be recomputed, and the cheapest possible way to shed the
      excess — fractionally, best bytes-per-recompute-second first — is a
      floor on the backward time recomputation adds. When even shedding
      everything cannot fit the static state, no feasible plan exists and
      the bound is ``inf``.

    The memory relaxation is checked against the *hard* device capacity,
    so it is sound for the baseline planners too (they ignore the DP's
    conservative margin).

    On a pooled (heterogeneous) cluster the compute terms are scaled by
    the pool's **minimum** per-rank compute factor: every stage of every
    placement runs at least that factor times its nominal cost, so the
    bound stays admissible across the whole placement dimension
    (ALGORITHMS.md section 14); the memory floor pools the per-rank
    capacities, a placement-invariant sum.
    """
    totals = stage_totals(ctx.profiler, kind_counts(ctx.layers))
    p = ctx.parallel.pipeline_parallel
    n = ctx.num_micro_batches
    recompute_floor = _recompute_time_floor(ctx, totals)
    if recompute_floor == float("inf"):
        return float("inf")
    scale_floor = best_placement_scale_floor(ctx.cluster, p)
    compute = totals.forward + totals.backward_fixed + recompute_floor
    if scale_floor != 1.0:
        compute *= scale_floor
    span = compute + 2.0 * (p - 1) * ctx.hop_time
    return span + max(0, n - p) * span / p


def _recompute_time_floor(ctx: PlannerContext, totals: StageTotals) -> float:
    """Least recomputation time any feasible plan of ``ctx`` must pay.

    Aggregate memory argument: every stage satisfies ``static + buffer +
    in_flight * saved <= capacity``; summing over stages with
    ``in_flight >= 1`` gives ``static_model + p * buffer + always_model +
    optional_saved <= p * capacity``. The relaxation to 1 keeps the bound
    admissible for every schedule's accounting — the schedule-aware
    counts of :func:`repro.profiler.memory.in_flight_micro_batches`
    (``min(n, p - s)`` for 1F1B, ``n`` for GPipe, ...) are all >= 1. Bytes of optional units above that
    budget must be shed, and the fractional greedy (largest
    bytes-per-second first) lower-bounds the forward time recomputing
    them adds to the backward pass. Returns ``inf`` when the static floor
    alone exceeds the pooled capacity (provably infeasible). ``totals``
    are the whole model's; a unit type's copies shed at one rate, so each
    optional item is one greedy entry.
    """
    memory = ctx.profiler.memory
    p = ctx.parallel.pipeline_parallel
    pooled = pool_capacity_sum(ctx.cluster, p)
    if pooled is None:
        pooled = p * ctx.hard_capacity_bytes
    budget = (
        pooled
        - memory.static_bytes(ctx.layers)
        - p * memory.recompute_buffer_bytes()
    )
    items = [  # (recompute seconds, bytes)
        (item.copies * item.value, item.copies * item.weight_bytes)
        for item in totals.items
        if item.weight_bytes > 0
    ]
    optional_bytes = sum(size for _, size in items)
    budget -= totals.always_bytes
    if budget < 0:
        return float("inf")
    excess = optional_bytes - budget
    if excess <= 0:
        return 0.0
    items.sort(key=lambda item: item[0] / item[1])
    floor = 0.0
    for cost, size in items:
        shed = min(size, excess)
        floor += cost * shed / size
        excess -= shed
        if excess <= 0:
            break
    return floor


def run_sweep(
    cluster: ClusterSpec,
    spec: ModelSpec,
    train: TrainingConfig,
    num_devices: int,
    planner: PlannerRef = plan_adapipe,
    strategies: Optional[Iterable[ParallelConfig]] = None,
    config: Optional[SweepConfig] = None,
    resume_from: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    **context_kwargs,
) -> SweepResult:
    """Plan the strategy space and return the best plan plus sweep stats.

    Drop-in performance replacement for the serial Table 3 sweep: the
    selected best plan is signature-identical to the exhaustive serial
    sweep's (see the module docstring for the argument), while pruning,
    cache reuse, and (on multi-core hosts) work-stealing parallel
    planning cut the wall clock. ``resume_from`` restores a frontier
    checkpoint written by ``SweepConfig.checkpoint_path`` and re-plans
    only the strategies it does not cover; ``progress`` receives a
    :class:`~repro.core.orchestrator.SweepProgress` event per planned or
    pruned strategy, with best-so-far plans attached to improvements.
    ``context_kwargs`` are forwarded to every :class:`PlannerContext`;
    pass ``eval_cache=`` to share evaluations with work outside this
    sweep.
    """
    config = config or SweepConfig()
    if config.robust_objective not in ROBUST_OBJECTIVES:
        raise ValueError(
            f"unknown robust objective {config.robust_objective!r}; "
            f"pick from {ROBUST_OBJECTIVES}"
        )
    robust_mode = config.robust_objective != "nominal"
    if robust_mode:
        if config.perturbation is None:
            raise ValueError(
                "robust_objective requires a PerturbationSpec (SweepConfig"
                ".perturbation)"
            )
        if config.prune:
            # strategy_lower_bound is admissible for the *nominal* modelled
            # time only; a perturbed ensemble statistic may rank strategies
            # differently, so branch-and-bound would no longer be sound.
            config = dataclasses.replace(config, prune=False)
    if strategies is None:
        strategies = enumerate_parallel_strategies(num_devices, cluster, spec, train)
    strategies = list(strategies)
    started = time.perf_counter()  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity

    shared_cache = context_kwargs.pop("eval_cache", None)
    if shared_cache is None and config.share_cache:
        shared_cache = StageEvalCache()

    contexts = [
        PlannerContext(
            cluster, spec, train, parallel, eval_cache=shared_cache, **context_kwargs
        )
        for parallel in strategies
    ]
    per_sample = 1.0 / train.global_batch_size
    bounds = [strategy_lower_bound(ctx) * per_sample for ctx in contexts]
    # Visit in bound order: the most promising strategies establish a tight
    # incumbent early, maximising what branch-and-bound can skip.
    order = sorted(range(len(strategies)), key=lambda i: (bounds[i], i))

    workers = config.resolve_workers(len(strategies))
    if workers > 1:
        try:
            pickle.dumps(planner)
        except Exception:
            workers = 1  # unpicklable planner (closure/lambda): stay serial

    outcome = execute_sweep(
        cluster=cluster,
        spec=spec,
        train=train,
        strategies=strategies,
        contexts=contexts,
        bounds=bounds,
        order=order,
        planner=planner,
        config=config,
        workers=workers,
        context_kwargs=context_kwargs,
        shared_cache=shared_cache,
        resume_from=resume_from,
        progress=progress,
    )
    plans_by_index = outcome.plans_by_index
    walls = outcome.walls
    pruned = outcome.pruned

    # Deterministic selection, independent of completion order: smallest
    # per-sample time, earliest enumeration index on exact ties — the same
    # "first strict improvement wins" rule as the serial exhaustive sweep.
    best: Optional[PipelinePlan] = None
    best_key: Optional[Tuple[float, int]] = None
    for index in sorted(plans_by_index):
        achieved = _per_sample_time(plans_by_index[index])
        if achieved is None:
            continue
        key = (achieved, index)
        if best_key is None or key < best_key:
            best, best_key = plans_by_index[index], key

    stats = SweepStats(
        strategies_total=len(strategies),
        strategies_planned=len(plans_by_index),
        strategies_pruned=len(pruned),
        strategies_resumed=len(outcome.resumed_planned),
        incumbent_prunes=outcome.incumbent_prunes,
        coordinator_prunes=outcome.coordinator_prunes,
        shards_dispatched=outcome.shards_dispatched,
        cache_entries_merged=outcome.cache_entries_merged,
        cache_entries_loaded=outcome.cache_entries_loaded,
        worker_cache_hits=outcome.worker_cache_hits,
        worker_cache_misses=outcome.worker_cache_misses,
        workers=workers,
        wall_seconds=time.perf_counter() - started,  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity
    )
    plans: List[PipelinePlan] = []
    position_by_index: Dict[int, int] = {}
    for index, parallel in enumerate(strategies):
        plan = plans_by_index.get(index)
        stats.reports.append(
            StrategyReport(
                parallel=parallel,
                lower_bound=bounds[index],
                pruned=index in pruned,
                per_sample_time=_per_sample_time(plan) if plan else None,
                wall_seconds=walls.get(index, 0.0),
            )
        )
        if plan is None:
            continue
        metadata = dict(plan.metadata)
        stats.inner_dp_invocations += int(metadata.get("inner_dp_invocations", 0))
        stats.eval_cache_hits += int(metadata.get("eval_cache_hits", 0))
        stats.eval_cache_misses += int(metadata.get("eval_cache_misses", 0))
        plan = plan.with_metadata(
            sweep_lower_bound=bounds[index],
            sweep_wall_seconds=walls.get(index, 0.0),
        )
        plans_by_index[index] = plan
        position_by_index[index] = len(plans)
        plans.append(plan)
    if robust_mode:
        # Re-rank the planned strategies by the simulated perturbation
        # ensemble: each feasible plan's schedule runs under the spec's
        # K draws and the configured statistic (per sample) replaces the
        # nominal modelled time as the selection key. Every evaluated
        # plan keeps the ensemble's summary in its metadata. All
        # ensembles go through evaluate_robustness_many, so candidate
        # schedules sharing a shape (same policy/devices/micro-batches,
        # different stage durations) execute as one batched sweep with a
        # single DAG lowering (ALGORITHMS.md section 11).
        from repro.core.evaluate import build_schedule_for_plan

        best, best_key = None, None
        indices = [
            index
            for index in sorted(plans_by_index)
            if _per_sample_time(plans_by_index[index]) is not None
        ]
        schedules = [
            build_schedule_for_plan(plans_by_index[index], cluster, "1f1b")
            for index in indices
        ]
        reports = evaluate_robustness_many(
            schedules, config.perturbation, config.robust_draws
        )
        for index, report in zip(indices, reports):
            plan = plans_by_index[index].with_metadata(
                robust_objective=config.robust_objective,
                **robust_metadata(report),
            )
            plans_by_index[index] = plan
            plans[position_by_index[index]] = plan
            achieved = (
                report.objective(config.robust_objective)
                / plan.train.global_batch_size
            )
            key = (achieved, index)
            if best_key is None or key < best_key:
                best, best_key = plan, key
    if best is not None:
        # `best` predates the metadata refresh; re-point it at the enriched
        # copy and fold the sweep-level counters in (satisfies the "search
        # observability on PipelinePlan metadata" contract).
        assert best_key is not None  # best and best_key are assigned together
        best_index = best_key[1]
        best = plans_by_index[best_index].with_metadata(
            sweep_strategies_total=stats.strategies_total,
            sweep_strategies_planned=stats.strategies_planned,
            sweep_strategies_pruned=stats.strategies_pruned,
            sweep_workers=stats.workers,
        )
        plans[position_by_index[best_index]] = best
    return SweepResult(best=best, plans=plans, stats=stats)

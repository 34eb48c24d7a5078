"""End-to-end planning and 3D-parallelism strategy search (Sections 5–7).

``PlannerContext`` bundles everything a plan needs (cluster, model,
workload, strategy, memory constraint). The planners mirror the paper's
evaluated methods:

* :func:`plan_adapipe` — adaptive recomputation *and* adaptive partitioning
  (the two-level DP).
* :func:`plan_even_partitioning` — adaptive recomputation on the baselines'
  uniform partition ("Even Partitioning" in the figures).
* :func:`plan_policy` — uniform partition and a fixed policy (the
  DAPPLE-Full / DAPPLE-Non rows).

Every planner that keeps the uniform partition (these two and the
extension baselines) is a pricer handed to :func:`plan_fixed_partition`,
the one place that splits the layers evenly, places the stages on a device
pool and builds the plan.

:func:`enumerate_parallel_strategies` and :func:`search_best_strategy`
reproduce the Table 3 sweep: iterate all ``(t, p, d)`` with ``t`` within a
node, plan each, and keep the fastest feasible strategy.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import ConfigError, ParallelConfig, TrainingConfig
from repro.core.isomorphism import StageEval, StageEvalCache, StageEvaluator
from repro.core.partition_dp import (
    PartitionResult,
    even_boundaries,
    optimize_partition,
)
from repro.core.placement import (
    DeviceClass,
    device_classes,
    enumerate_placements,
    placement_metadata,
)
from repro.core.plan import PipelinePlan, build_plan
from repro.core.strategies import RecomputePolicy, stage_eval_for_policy
from repro.hardware.cluster import ClusterSpec
from repro.hardware.comm import CommModel
from repro.model.layers import Layer, build_layer_sequence
from repro.model.spec import ModelSpec
from repro.profiler.profiler import Profiler


@dataclass(frozen=True)
class Rank:
    """One pipeline rank as the planners price it.

    Attributes:
        compute_scale: slowdown against the nominal roofline device (1.0 =
            nominal); stage forward and backward times are multiplied by it.
        capacity_bytes: the recomputation DP's budget: usable memory times
            ``memory_margin``, capped by ``memory_limit_bytes``.
        hard_capacity_bytes: usable memory, the OOM line.
    """

    compute_scale: float
    capacity_bytes: float
    hard_capacity_bytes: float


#: A fixed-partition planner's pricing: (stage boundaries, ranks) -> each
#: stage's nominal-speed evaluation; stage ``s`` runs on ``ranks[s % p]``.
Pricer = Callable[[Sequence[Tuple[int, int]], Sequence[Rank]], Sequence[StageEval]]


@dataclass
class PlannerContext:
    """Everything needed to plan one (model, workload, strategy) triple.

    Attributes:
        cluster: target hardware.
        spec: model architecture.
        train: workload.
        parallel: the 3D strategy under evaluation.
        memory_limit_bytes: knapsack memory constraint; defaults to the
            device's usable capacity times ``memory_margin`` (the paper ran
            its DP against a conservative 70 GB on 80 GB devices).
        memory_margin: fraction of usable capacity given to the DP.
        profile_noise: measurement jitter passed to the profiler.
        eval_cache: optional cross-strategy stage-evaluation cache; share
            one instance across the contexts of a sweep (or across several
            planners on one context) to reuse inner-DP solutions.
    """

    cluster: ClusterSpec
    spec: ModelSpec
    train: TrainingConfig
    parallel: ParallelConfig
    memory_limit_bytes: Optional[float] = None
    memory_margin: float = 0.92
    profile_noise: float = 0.0
    eval_cache: Optional[StageEvalCache] = field(default=None, repr=False)
    _profiler: Optional[Profiler] = field(default=None, repr=False)
    _layers: Optional[List[Layer]] = field(default=None, repr=False)

    @property
    def capacity_bytes(self) -> float:
        if self.memory_limit_bytes is not None:
            return self.memory_limit_bytes
        return self.cluster.device.usable_memory_bytes * self.memory_margin

    @property
    def hard_capacity_bytes(self) -> float:
        """The physical OOM line (Figure 8's dashed capacity)."""
        return float(self.cluster.device.usable_memory_bytes)

    def ranks(
        self, placement: Optional[Sequence[DeviceClass]] = None
    ) -> Tuple[Rank, ...]:
        """Rank ``r`` on the pool's device class ``placement[r]``; without a
        placement, every rank nominal with :attr:`capacity_bytes` and
        :attr:`hard_capacity_bytes`. A class of the cluster's base device
        reduces exactly to those, keeping homogeneous pools bit-identical.
        """
        if placement is None:
            nominal = Rank(1.0, self.capacity_bytes, self.hard_capacity_bytes)
            return (nominal,) * self.parallel.pipeline_parallel
        ranks = []
        for cls in placement:
            budget = cls.device.usable_memory_bytes * self.memory_margin
            if self.memory_limit_bytes is not None:
                budget = min(self.memory_limit_bytes, budget)
            ranks.append(Rank(cls.compute_scale, budget, cls.capacity_bytes))
        return tuple(ranks)

    @property
    def profiler(self) -> Profiler:
        if self._profiler is None:
            self._profiler = Profiler(
                self.cluster,
                self.spec,
                self.train,
                self.parallel,
                noise=self.profile_noise,
            )
        return self._profiler

    @property
    def layers(self) -> List[Layer]:
        if self._layers is None:
            self._layers = build_layer_sequence(self.spec)
        return self._layers

    @property
    def num_micro_batches(self) -> int:
        return self.train.num_micro_batches(self.parallel)

    @property
    def hop_time(self) -> float:
        return CommModel(self.cluster).pipeline_hop_time(
            self.spec.hidden_size, self.train
        )

    def stage_evaluator(self, ranks: Optional[Sequence[Rank]] = None) -> StageEvaluator:
        """A stage evaluator wired to this context's shared cache (if any).

        Stage ``s`` is priced on ``ranks[s]`` (default: :meth:`ranks`,
        the nominal ranks): its compute scale multiplies the stage's times
        and its DP budget bounds the knapsack. All evaluators share
        ``eval_cache``, which holds nominal-speed entries keyed by the
        rank's budget, not its scale, so ranks of one budget share one
        knapsack per class across placements, part speeds and replans.
        """
        if ranks is None:
            ranks = self.ranks()
        return StageEvaluator(
            self.profiler,
            self.layers,
            self.capacity_bytes,
            shared_cache=self.eval_cache,
            rank_compute_scales=[rank.compute_scale for rank in ranks],
            rank_capacities=[rank.capacity_bytes for rank in ranks],
        )


def _canonical_placement(
    ctx: PlannerContext,
) -> Tuple[Optional[List[DeviceClass]], Dict[str, object]]:
    """A pooled cluster's first (fastest-ranks-first) placement and the
    plan metadata naming it; ``(None, {})`` when poolless.

    The planners that do not search placements price this one, so their
    baselines stay deterministic and comparable, and a plan priced on it
    is evaluated against the devices it was priced for.
    """
    if not ctx.cluster.device_pool:
        return None, {}
    classes = device_classes(ctx.cluster)
    placement = enumerate_placements(classes, ctx.parallel.pipeline_parallel)[0]
    return (
        [classes[index] for index in placement],
        placement_metadata(classes, placement, 1),
    )


def _too_many_stages_plan(method: str, ctx: PlannerContext) -> PipelinePlan:
    """The infeasible plan for ``p > L``: no non-empty partition exists."""
    return PipelinePlan(
        method=method,
        parallel=ctx.parallel,
        train=ctx.train,
        stages=(),
        modeled_iteration_time=None,
        feasible=False,
        hidden_size=ctx.spec.hidden_size,
        metadata={"infeasible_reason": "more pipeline stages than layers"},
    )


def _counters(evaluator: StageEvaluator) -> Dict[str, int]:
    """An evaluator's observability counters, as plan metadata."""
    return {
        "inner_dp_invocations": evaluator.inner_dp_invocations,
        "eval_cache_hits": evaluator.cache_hits,
        "eval_cache_misses": evaluator.cache_misses,
    }


def _attach_search_metadata(
    plan: PipelinePlan, counters: Sequence[Dict[str, int]], started: float
) -> PipelinePlan:
    """Fold the evaluators' summed observability counters into the plan."""
    return plan.with_metadata(
        **{key: sum(each[key] for each in counters) for key in counters[0]},
        planning_seconds=time.perf_counter() - started,  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity
    )


def plan_adapipe(ctx: PlannerContext, method: str = "AdaPipe") -> PipelinePlan:
    """Full AdaPipe: two-level DP over recomputation and partitioning.

    The DP runs once per placement. A poolless cluster has the one
    placement ``None`` (uniform pricing). A ``device_pool`` adds a
    placement dimension: every distinct class-per-rank assignment, in
    canonical lexicographic order, and the strictly fastest feasible one
    wins, so ties resolve to the earliest placement, which makes the
    choice invariant under permutations of identical pool entries. All
    placements share ``ctx.eval_cache``, whose entries are nominal-speed
    and keyed by the rank's DP budget, so a class is priced once per
    budget and reused by every placement, whatever part serves the stage
    (and by Even Partitioning, which prices the same entries). When no
    partition fits, the plan is the even partition priced on the first
    placement, and infeasible.
    """
    started = time.perf_counter()  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity
    p = ctx.parallel.pipeline_parallel
    if p > len(ctx.layers):
        return _too_many_stages_plan(method, ctx)
    classes: Tuple[DeviceClass, ...] = ()
    placements: Sequence[Optional[Tuple[int, ...]]] = [None]
    if ctx.cluster.device_pool:
        classes = device_classes(ctx.cluster)
        placements = enumerate_placements(classes, p)

    def evaluator_for(placement: Optional[Tuple[int, ...]]) -> StageEvaluator:
        return ctx.stage_evaluator(
            ctx.ranks(None if placement is None else [classes[i] for i in placement])
        )

    hop_time = ctx.hop_time
    counters: List[Dict[str, int]] = []
    best: Optional[PartitionResult] = None
    chosen = placements[0]
    for placement in placements:
        evaluator = evaluator_for(placement)
        result = optimize_partition(
            evaluator, p, ctx.num_micro_batches, hop_time=hop_time
        )
        counters.append(_counters(evaluator))
        if result.feasible and (best is None or result.total_time < best.total_time):
            best, chosen = result, placement
    if best is None:
        if placement == chosen:  # the last evaluator prices the first placement:
            counters.pop()  # reuse it, and count it after the fallback below
        else:
            evaluator = evaluator_for(chosen)
        boundaries = even_boundaries(len(ctx.layers), p)
        evals = [
            evaluator.evaluate(s, lo, hi - 1) for s, (lo, hi) in enumerate(boundaries)
        ]
        counters.append(_counters(evaluator))
    else:
        boundaries, evals = best.boundaries, best.stage_evals
    plan = build_plan(
        method, ctx.parallel, ctx.train, ctx.layers, boundaries, evals,
        ctx.spec.hidden_size, hop_time,
    )
    if chosen is not None:
        plan = plan.with_metadata(
            **placement_metadata(classes, chosen, len(placements))
        )
    return _attach_search_metadata(plan, counters, started)


def plan_fixed_partition(
    ctx: PlannerContext, method: str, price: Pricer, chunks: int = 1
) -> PipelinePlan:
    """The plan of a method that keeps the uniform partition.

    Splits the layers evenly into ``chunks * p`` stages and places them on
    the canonical placement of a device pool (poolless: the nominal ranks),
    stage ``s`` on rank ``s mod p``. ``price`` returns each stage's
    nominal-speed evaluation against the budget its method judges, and
    every evaluation is then scaled by its rank's compute scale. With more
    stages than layers no even split exists, and the plan is infeasible.
    """
    started = time.perf_counter()  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity
    p = ctx.parallel.pipeline_parallel
    if chunks * p > len(ctx.layers):
        return _too_many_stages_plan(method, ctx)
    boundaries = even_boundaries(len(ctx.layers), chunks * p)
    placement, placed = _canonical_placement(ctx)
    ranks = ctx.ranks(placement)
    evals = [
        eval_.scaled(ranks[s % p].compute_scale)
        for s, eval_ in enumerate(price(boundaries, ranks))
    ]
    plan = build_plan(
        method, ctx.parallel, ctx.train, ctx.layers, boundaries, evals,
        ctx.spec.hidden_size, ctx.hop_time,
    )
    return plan.with_metadata(
        **placed,
        planning_seconds=time.perf_counter() - started,  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity
    )


def plan_even_partitioning(
    ctx: PlannerContext, method: str = "Even Partitioning"
) -> PipelinePlan:
    """Adaptive recomputation on the uniform partition (no boundary search),
    each stage's knapsack against its rank's DP budget."""
    counters: List[Dict[str, int]] = []

    def price(boundaries, ranks):
        evaluator = ctx.stage_evaluator(
            [dataclasses.replace(rank, compute_scale=1.0) for rank in ranks]
        )
        evals = [
            evaluator.evaluate(s, lo, hi - 1) for s, (lo, hi) in enumerate(boundaries)
        ]
        counters.append(_counters(evaluator))
        return evals

    plan = plan_fixed_partition(ctx, method, price)
    return plan.with_metadata(**counters[0]) if counters else plan  # unpriced if p > L


def plan_policy(
    ctx: PlannerContext, policy: RecomputePolicy, method: str
) -> PipelinePlan:
    """Uniform partition with a fixed recomputation policy (DAPPLE rows).

    Feasibility is judged against the *hard* device capacity, not the DP's
    conservative margin — baselines don't leave headroom, they just OOM.
    """

    def price(boundaries, ranks):
        return [
            stage_eval_for_policy(
                ctx.profiler, s, ctx.layers[lo:hi], policy, ranks[s].hard_capacity_bytes
            )
            for s, (lo, hi) in enumerate(boundaries)
        ]

    return plan_fixed_partition(ctx, method, price)


def enumerate_parallel_strategies(
    num_devices: int,
    cluster: ClusterSpec,
    spec: ModelSpec,
    train: TrainingConfig,
    max_tensor_parallel: int = 8,
    min_pipeline_parallel: int = 2,
) -> List[ParallelConfig]:
    """All valid ``(t, p, d)`` strategies for the Table 3 sweep.

    Constraints (Section 7.1): ``t * p * d = num_devices``; ``t`` at most 8
    and inside one node; ``p`` at least 2 and no larger than the layer
    sequence; the global batch must divide by ``d``.
    """
    num_layers = len(build_layer_sequence(spec))
    strategies = []
    t = 1
    while t <= min(max_tensor_parallel, cluster.devices_per_node, num_devices):
        if num_devices % t == 0:
            rest = num_devices // t
            p = min_pipeline_parallel
            while p <= rest:
                if rest % p == 0 and p <= num_layers:
                    d = rest // p
                    if train.global_batch_size % d == 0:
                        candidate = ParallelConfig(t, p, d)
                        try:
                            cluster.validate_parallel(candidate, num_devices)
                        except ConfigError:
                            pass
                        else:
                            if train.num_micro_batches(candidate) >= 1:
                                strategies.append(candidate)
                p += 1
        t *= 2
    return strategies


def search_best_strategy(
    cluster: ClusterSpec,
    spec: ModelSpec,
    train: TrainingConfig,
    num_devices: int,
    planner: Callable[[PlannerContext], PipelinePlan],
    strategies: Optional[Iterable[ParallelConfig]] = None,
    **context_kwargs,
) -> Tuple[Optional[PipelinePlan], List[PipelinePlan]]:
    """Plan every strategy and return (best feasible plan, all plans).

    "Best" minimizes the modelled iteration time normalised per sample, so
    strategies with different data-parallel sizes compare fairly (a ``d=2``
    pipeline only processes half the global batch).

    This is the serial, exhaustive entry point — every strategy is planned
    and returned. :func:`repro.core.sweep.run_sweep` is the performance
    entry point with the same selection semantics plus parallel planning
    and branch-and-bound pruning.
    """
    from repro.core.sweep import SweepConfig, run_sweep

    result = run_sweep(
        cluster,
        spec,
        train,
        num_devices,
        planner=planner,
        strategies=strategies,
        config=SweepConfig(workers=1, prune=False),
        **context_kwargs,
    )
    return result.best, result.plans

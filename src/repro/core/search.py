"""End-to-end planning and 3D-parallelism strategy search (Sections 5–7).

``PlannerContext`` bundles everything a plan needs (cluster, model,
workload, strategy, memory constraint). The three planners mirror the
paper's evaluated methods:

* :func:`plan_adapipe` — adaptive recomputation *and* adaptive partitioning
  (the two-level DP).
* :func:`plan_even_partitioning` — adaptive recomputation on the baselines'
  uniform partition ("Even Partitioning" in the figures).
* :func:`plan_policy` — uniform partition and a fixed policy (the
  DAPPLE-Full / DAPPLE-Non rows).

:func:`enumerate_parallel_strategies` and :func:`search_best_strategy`
reproduce the Table 3 sweep: iterate all ``(t, p, d)`` with ``t`` within a
node, plan each, and keep the fastest feasible strategy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import ConfigError, ParallelConfig, TrainingConfig
from repro.core.isomorphism import StageEvalCache, StageEvaluator
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
from repro.core.strategies import RecomputePolicy, stage_costs_for_policy
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import DeviceSpec
from repro.hardware.comm import CommModel
from repro.model.layers import Layer, build_layer_sequence
from repro.model.spec import ModelSpec
from repro.profiler.profiler import Profiler


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

    def placement_capacity_bytes(self, device: DeviceSpec) -> float:
        """The DP memory budget when a stage lands on ``device``.

        An explicit ``memory_limit_bytes`` still caps the budget (the
        paper's conservative constraint), but a smaller part clamps it
        further — its margin-scaled capacity. For the cluster's base
        device this reduces exactly to :attr:`capacity_bytes`, which is
        what keeps homogeneous-pool planning bit-identical.
        """
        scaled = device.usable_memory_bytes * self.memory_margin
        if self.memory_limit_bytes is not None:
            return min(self.memory_limit_bytes, scaled)
        return scaled

    def rank_hard_capacity_bytes(self, rank: int) -> float:
        """Physical OOM line of the device serving pipeline rank ``rank``."""
        return float(self.cluster.rank_device(rank).usable_memory_bytes)

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

    def stage_evaluator(
        self, placement: Optional[Sequence[DeviceClass]] = None
    ) -> StageEvaluator:
        """A stage evaluator wired to this context's shared cache (if any).

        ``placement`` (one :class:`~repro.core.placement.DeviceClass` per
        pipeline rank) prices each rank with its class's compute scale
        and margin-scaled memory capacity; omitted, pricing is uniform.
        All evaluators share ``eval_cache``, and the rank class is part
        of every cache key, so evaluations flow across placements — and
        across replans — without aliasing.
        """
        if placement is None:
            return StageEvaluator(
                self.profiler,
                self.layers,
                self.capacity_bytes,
                shared_cache=self.eval_cache,
            )
        return StageEvaluator(
            self.profiler,
            self.layers,
            self.capacity_bytes,
            shared_cache=self.eval_cache,
            rank_compute_scales=[cls.compute_scale for cls in placement],
            rank_capacities=[
                self.placement_capacity_bytes(cls.device) for cls in placement
            ],
        )

    def canonical_placement(self) -> Optional[List[DeviceClass]]:
        """Pooled clusters' first (fastest-ranks-first) placement, else None.

        The fixed-partition planners (even partitioning, DAPPLE policies)
        do not search placements; they price the canonical first one so
        their baselines stay deterministic and comparable.
        """
        return _canonical_placement(self)[0]


def _canonical_placement(
    ctx: PlannerContext,
) -> Tuple[Optional[List[DeviceClass]], Dict[str, object]]:
    """:meth:`PlannerContext.canonical_placement` and the plan metadata
    naming it (empty when poolless), so a plan priced on it is evaluated
    against the devices it was priced for."""
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


def _counters(evaluator: StageEvaluator) -> Tuple[int, int, int]:
    return evaluator.inner_dp_invocations, evaluator.cache_hits, evaluator.cache_misses


def _attach_search_metadata(
    plan: PipelinePlan, counters: Sequence[Tuple[int, int, int]], started: float
) -> PipelinePlan:
    """Fold the evaluators' summed observability counters into the plan."""
    inner_dp, hits, misses = (sum(column) for column in zip(*counters))
    return plan.with_metadata(
        inner_dp_invocations=inner_dp,
        eval_cache_hits=hits,
        eval_cache_misses=misses,
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
    placements share ``ctx.eval_cache`` (the rank class is in every key),
    so isomorphic stages priced once are reused everywhere. When no
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
            None if placement is None else [classes[i] for i in placement]
        )

    hop_time = ctx.hop_time
    counters: List[Tuple[int, int, int]] = []
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


def plan_even_partitioning(
    ctx: PlannerContext, method: str = "Even Partitioning"
) -> PipelinePlan:
    """Adaptive recomputation on the uniform partition (no boundary search)."""
    started = time.perf_counter()  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity
    if ctx.parallel.pipeline_parallel > len(ctx.layers):
        return _too_many_stages_plan(method, ctx)
    placement, placed = _canonical_placement(ctx)
    evaluator = ctx.stage_evaluator(placement)
    boundaries = even_boundaries(len(ctx.layers), ctx.parallel.pipeline_parallel)
    evals = [
        evaluator.evaluate(s, lo, hi - 1) for s, (lo, hi) in enumerate(boundaries)
    ]
    plan = build_plan(
        method, ctx.parallel, ctx.train, ctx.layers, boundaries, evals,
        ctx.spec.hidden_size, ctx.hop_time,
    ).with_metadata(**placed)
    return _attach_search_metadata(plan, [_counters(evaluator)], started)


def plan_policy(
    ctx: PlannerContext, policy: RecomputePolicy, method: str
) -> PipelinePlan:
    """Uniform partition with a fixed recomputation policy (DAPPLE rows).

    Feasibility is judged against the *hard* device capacity, not the DP's
    conservative margin — baselines don't leave headroom, they just OOM.
    """
    started = time.perf_counter()  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity
    if ctx.parallel.pipeline_parallel > len(ctx.layers):
        return _too_many_stages_plan(method, ctx)
    boundaries = even_boundaries(len(ctx.layers), ctx.parallel.pipeline_parallel)
    placement, placed = _canonical_placement(ctx)
    evals = stage_costs_for_policy(
        ctx.profiler,
        boundaries,
        ctx.layers,
        policy,
        ctx.hard_capacity_bytes,
        rank_capacities=(
            [float(cls.device.usable_memory_bytes) for cls in placement]
            if placement is not None
            else None
        ),
        rank_scales=(
            [cls.compute_scale for cls in placement]
            if placement is not None
            else None
        ),
    )
    plan = build_plan(
        method, ctx.parallel, ctx.train, ctx.layers, boundaries, evals,
        ctx.spec.hidden_size, ctx.hop_time,
    )
    return plan.with_metadata(
        **placed,
        planning_seconds=time.perf_counter() - started,  # adalint: disable=determinism -- wall-clock observability metadata; never feeds a planned or simulated quantity
    )


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

"""Elastic replanning: warm-start the DPs when the cluster changes.

A running job's cluster is not static — a device drifts slow (thermal
throttling), leaves (hardware fault, preemption), or joins (capacity
freed). Searching the new cluster from scratch repeats almost all of the
work the original search already did: stage evaluations are keyed by a
content digest covering every input the recomputation knapsack reads —
model/workload profile, tensor/data-parallel sizes, in-flight count, layer
multiset, and the rank's DP budget — and the evaluator fingerprint
deliberately excludes fleet shape
(:func:`repro.core.isomorphism.evaluator_fingerprint`). Every entry is the
nominal-speed evaluation; a rank's compute scale multiplies it after the
lookup. Entries under a surviving budget therefore stay valid verbatim,
a drifted rank reuses them at its new slowdown, and only a changed budget
misses, so reuse is sound by construction: :func:`replan` simply re-runs
the sweep against the surviving
:class:`~repro.core.isomorphism.StageEvalCache` and lets the digest keys
arbitrate. The warm plan is **bit-identical** to a cold search on the new
cluster — cached values equal recomputed ones — which
``tests/test_replan.py`` pins differentially.

Scenario helpers build the common elastic transitions: a rank leaving
(:func:`pool_without_rank`), joining (:func:`pool_with_rank`), and
slowdown drift (:func:`pool_with_drift`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.config import ParallelConfig, TrainingConfig
from repro.core.isomorphism import StageEvalCache
from repro.core.plan import PipelinePlan
from repro.core.search import plan_adapipe
from repro.core.sweep import PlannerRef, SweepConfig, SweepResult, run_sweep
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import DeviceSpec, derated
from repro.model.spec import ModelSpec


@dataclass(frozen=True)
class ReplanResult:
    """Outcome of one elastic replan.

    Attributes:
        best: best feasible plan on the new cluster (``None`` when the
            shrunken/drifted fleet admits no feasible strategy).
        plans: every planned strategy's plan, enumeration order.
        sweep: the underlying sweep result (stats, reports).
        evals_reused: stage evaluations answered by the surviving cache.
        evals_recomputed: inner-DP invocations this replan actually ran.
    """

    best: Optional[PipelinePlan]
    plans: List[PipelinePlan]
    sweep: SweepResult
    evals_reused: int
    evals_recomputed: int

    @property
    def reuse_rate(self) -> float:
        """Fraction of stage-eval demand served without an inner DP."""
        total = self.evals_reused + self.evals_recomputed
        return self.evals_reused / total if total else 0.0


def replan(
    plan: PipelinePlan,
    new_cluster: ClusterSpec,
    spec: ModelSpec,
    *,
    eval_cache: StageEvalCache,
    train: Optional[TrainingConfig] = None,
    num_devices: Optional[int] = None,
    planner: PlannerRef = plan_adapipe,
    strategies: Optional[Iterable[ParallelConfig]] = None,
    config: Optional[SweepConfig] = None,
    **context_kwargs,
) -> ReplanResult:
    """Re-plan ``plan``'s job on ``new_cluster``, warm-starting from cache.

    ``eval_cache`` must be the cache the surviving plan was searched with
    (or a cache restored from ``SweepConfig.cache_path`` /
    ``save_cache_file``); its digest-keyed entries are reused wherever
    the new cluster's ranks keep a DP budget the cache was priced under,
    whatever their speed, which is what makes a device-leave replan
    re-run well under half of the stage evaluations of a cold search
    while returning a bit-identical best plan.

    ``num_devices`` defaults to the elastic interpretation of the old
    strategy: keep the surviving plan's per-pipeline-rank device count
    (``t * d``) and stretch/shrink the pipeline to the new pool's size.
    Poolless new clusters keep the old total device count (capped by the
    new cluster).
    """
    train = train if train is not None else plan.train
    if num_devices is None:
        per_rank = plan.parallel.num_devices // plan.parallel.pipeline_parallel
        if new_cluster.device_pool:
            num_devices = per_rank * len(new_cluster.device_pool)
        else:
            num_devices = min(plan.parallel.num_devices, new_cluster.num_devices)
    config = config or SweepConfig(workers=1)
    hits_before = eval_cache.hits
    result = run_sweep(
        new_cluster,
        spec,
        train,
        num_devices,
        planner=planner,
        strategies=strategies,
        config=config,
        eval_cache=eval_cache,
        **context_kwargs,
    )
    return ReplanResult(
        best=result.best,
        plans=result.plans,
        sweep=result,
        evals_reused=eval_cache.hits - hits_before,
        evals_recomputed=result.stats.inner_dp_invocations,
    )


def _require_pool(cluster: ClusterSpec) -> Tuple[DeviceSpec, ...]:
    if not cluster.device_pool:
        raise ValueError(
            f"cluster {cluster.name} has no device pool; elastic scenarios "
            f"operate on pooled clusters (see ClusterSpec.with_device_pool)"
        )
    return cluster.device_pool


def pool_without_rank(cluster: ClusterSpec, rank: int) -> ClusterSpec:
    """The cluster after pool slot ``rank`` leaves (fault, preemption)."""
    pool = _require_pool(cluster)
    if not 0 <= rank < len(pool):
        raise ValueError(f"rank {rank} out of range for pool of {len(pool)}")
    if len(pool) == 1:
        raise ValueError("cannot remove the last pool device")
    return dataclasses.replace(
        cluster, device_pool=pool[:rank] + pool[rank + 1 :]
    )


def pool_with_rank(
    cluster: ClusterSpec, device: DeviceSpec, position: Optional[int] = None
) -> ClusterSpec:
    """The cluster after ``device`` joins the pool (at ``position`` or the end)."""
    pool = _require_pool(cluster)
    if position is None:
        position = len(pool)
    if not 0 <= position <= len(pool):
        raise ValueError(
            f"position {position} out of range for pool of {len(pool)}"
        )
    return dataclasses.replace(
        cluster, device_pool=pool[:position] + (device,) + pool[position:]
    )


def pool_with_drift(
    cluster: ClusterSpec, rank: int, slowdown: float
) -> ClusterSpec:
    """The cluster after pool slot ``rank`` drifts to ``slowdown`` x nominal.

    The drifted part keeps its memory, so its DP budget and every cache
    key it prices under are unchanged: a replan reuses the nominal entries
    and scales them by the new slowdown, running no knapsack for the
    drift, and never returns times priced under the old slowdown (pinned
    by the drift regression in ``tests/test_replan.py``).
    """
    pool = _require_pool(cluster)
    if not 0 <= rank < len(pool):
        raise ValueError(f"rank {rank} out of range for pool of {len(pool)}")
    old = pool[rank]
    base = dataclasses.replace(old, name=old.name.split("*")[0], slowdown=1.0)
    drifted = derated(base, slowdown)
    return dataclasses.replace(
        cluster, device_pool=pool[:rank] + (drifted,) + pool[rank + 1 :]
    )

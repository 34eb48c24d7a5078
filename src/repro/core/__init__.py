"""AdaPipe's search engine: the paper's primary contribution.

Two cooperating dynamic programs (Sections 4 and 5):

1. **Adaptive recomputation** (:mod:`repro.core.recompute_dp`) — per stage, a
   knapsack over computation units choosing which intermediates to save,
   maximizing the recompute time avoided under the stage's memory budget.
2. **Adaptive partitioning** (:mod:`repro.core.partition_dp`) — Algorithm 1,
   a DP over layer-sequence cut points whose per-stage costs come from the
   inner DP, modelling the 1F1B warmup/steady/ending phases exactly.

:mod:`repro.core.search` wraps both into the end-to-end planner, including
the 3D-parallelism strategy enumeration of Section 7.3, and
:mod:`repro.core.strategies` provides the fixed full/none/uniform
recomputation policies the baselines use.
"""

from repro.core.isomorphism import StageEvalCache
from repro.core.plan import PipelinePlan, StagePlan
from repro.core.recompute_dp import RecomputeResult, optimize_stage_recompute
from repro.core.partition_dp import PartitionResult, optimize_partition
from repro.core.search import (
    PlannerContext,
    enumerate_parallel_strategies,
    plan_adapipe,
    plan_even_partitioning,
    search_best_strategy,
)
from repro.core.strategies import RecomputePolicy
from repro.core.sweep import (
    SweepConfig,
    SweepResult,
    SweepStats,
    run_sweep,
    strategy_lower_bound,
)

__all__ = [
    "PartitionResult",
    "PipelinePlan",
    "PlannerContext",
    "RecomputePolicy",
    "RecomputeResult",
    "StageEvalCache",
    "StagePlan",
    "SweepConfig",
    "SweepResult",
    "SweepStats",
    "enumerate_parallel_strategies",
    "optimize_partition",
    "optimize_stage_recompute",
    "plan_adapipe",
    "plan_even_partitioning",
    "run_sweep",
    "search_best_strategy",
    "strategy_lower_bound",
]

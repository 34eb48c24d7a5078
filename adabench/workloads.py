"""The benchmark's three workloads: problem tables, fixtures and ops.

Each workload is a committed table of problems. One op runs one table
entry the way a user command would run it, and returns the program's
result; ``answer`` turns that result into the plain-data record the
golden file holds for the entry (decisions and floats), and ``counters``
pulls the work counters the program itself reports.

Ops resolve every program entry point through its module attribute at
call time (``serialize.load_plan``, not a name bound at import), so the
traced run's wrappers see the calls the op makes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import methods
from repro.config import ParallelConfig, TrainingConfig
from repro.core import evaluate, orchestrator, replan as replan_mod, serialize
from repro.core.isomorphism import StageEvalCache
from repro.core.search import PlannerContext, plan_adapipe
from repro.core.sweep import SweepConfig, run_sweep
from repro.hardware.cluster import ClusterSpec, cluster_a
from repro.hardware.device import a100_80gb, ascend910_32gb, derated, device_preset
from repro.model.spec import model_by_name
from repro.pipeline.perturb import LinkDegradation, PerturbationSpec, TransientStall

GIB = 1024**3


@dataclass(frozen=True)
class Op:
    """One table entry, ready to run.

    Attributes:
        key: the entry's name in the golden file.
        cls: the op class (proportions per class are fixed by the table).
        run: the timed call.
        answer: result -> golden record (run outside the timer).
        counters: result -> work counters the program reports.
    """

    key: str
    cls: str
    run: Callable[[], object]
    answer: Callable[[object], Dict]
    counters: Callable[[object], Dict[str, float]]


def _plan_record(plan, simulated: Optional[float], oom: bool) -> Dict:
    """The decisions and times of one plan, as golden-file data."""
    return {
        "strategy": list(plan.parallel.as_tuple()),
        "feasible": bool(plan.feasible),
        "oom": bool(oom),
        "boundaries": [[s.layer_start, s.layer_end] for s in plan.stages],
        "saved_units": [dict(sorted(s.saved_unit_counts.items())) for s in plan.stages],
        "modeled_time": plan.modeled_iteration_time,
        "simulated_time": simulated,
    }


def _cluster_for(devices: int) -> ClusterSpec:
    return cluster_a(max(1, devices // 8))


# ---------------------------------------------------------------------------
# plan: cold single-strategy planning (`adapipe plan --tp --pp --dp`)
# ---------------------------------------------------------------------------

#: (key, class, model, t, p, d, seq, global batch, memory limit GiB).
#: ``agg`` entries are aggregation-bound (deep pipelines, long sequences,
#: tight limits: stage evaluation dominates); ``knap`` entries have loose
#: limits, so the recomputation knapsack dominates. Costs are graded within
#: each class, so sorted op times form a continuum around ``op_p50_s`` (in
#: ``agg``) and ``op_p90_s`` (in ``knap``) and the quantiles move smoothly
#: with host speed instead of jumping between two problems' costs.
PLAN_TABLE: Tuple[Tuple, ...] = (
    ("llama2-7b-8x2x1-s16384-m8", "agg", "llama2-7b", 8, 2, 1, 16384, 32, 8.0),
    ("llama2-7b-8x2x1-s16384-m8", "agg", "llama2-7b", 8, 2, 1, 16384, 32, 8.0),
    ("llama2-7b-8x3x1-s16384-m7", "agg", "llama2-7b", 8, 3, 1, 16384, 30, 7.0),
    ("gpt3-13b-8x3x1-s16384-m11", "agg", "gpt3-13b", 8, 3, 1, 16384, 30, 11.0),
    ("llama2-7b-8x4x1-s16384-m7", "agg", "llama2-7b", 8, 4, 1, 16384, 32, 7.0),
    ("llama2-7b-8x4x1-s16384-m7", "agg", "llama2-7b", 8, 4, 1, 16384, 32, 7.0),
    ("llama2-7b-8x2x1-s16384-m12", "knap", "llama2-7b", 8, 2, 1, 16384, 32, 12.0),
    ("bert-large-1x2x1-s4096-m4", "knap", "bert-large", 1, 2, 1, 4096, 32, 4.0),
    ("bert-large-1x2x1-s2048-m4", "knap", "bert-large", 1, 2, 1, 2048, 32, 4.0),
    ("bert-large-1x4x1-s2048-m4", "knap", "bert-large", 1, 4, 1, 2048, 32, 4.0),
)


#: The ROADMAP's two headline plans, run once per run.
PLAN_HEADLINE: Tuple[Tuple, ...] = (
    ("gpt3-175b-8x8x1-s16384", "agg", "gpt3-175b", 8, 8, 1, 16384, 32, 70.0),
    ("llama2-70b-4x8x1-s16384", "agg", "llama2-70b", 4, 8, 1, 16384, 32, 70.0),
)


def _plan_counters(evaluation) -> Dict[str, float]:
    meta = evaluation.plan.metadata
    return {
        "inner_dp": float(meta.get("inner_dp_invocations", 0)),
        "eval_hits": float(meta.get("eval_cache_hits", 0)),
    }


def _plan_answer(evaluation) -> Dict:
    return _plan_record(evaluation.plan, evaluation.iteration_time, evaluation.oom)


def _plan_op(row: Tuple) -> Op:
    key, cls, model, t, p, d, seq, batch, limit_gib = row
    spec = model_by_name(model)
    cluster = _cluster_for(t * p * d)
    train = TrainingConfig(sequence_length=seq, global_batch_size=batch)
    parallel = ParallelConfig(t, p, d)

    def run():
        ctx = PlannerContext(
            cluster,
            spec,
            train,
            parallel,
            memory_limit_bytes=limit_gib * GIB,
            eval_cache=StageEvalCache(),
        )
        return methods.evaluate_method("AdaPipe", ctx)

    return Op(key, cls, run, _plan_answer, _plan_counters)


class PlanWorkload:
    name = "plan"

    def __init__(self, scratch: str) -> None:
        del scratch
        self.table: List[Op] = []
        self.headline: List[Op] = []

    def setup(self) -> None:
        self.table = [_plan_op(row) for row in PLAN_TABLE]
        self.headline = [_plan_op(row) for row in PLAN_HEADLINE]


# ---------------------------------------------------------------------------
# replan: elastic warm starts (`adapipe replan --plan --cache`)
# ---------------------------------------------------------------------------

REPLAN_MODEL = "bert-large"
REPLAN_TRAIN = TrainingConfig(sequence_length=8192, global_batch_size=8)
REPLAN_LIMIT = 4.0 * GIB
DRIFT_SLOWDOWN = 1.6


def _base_pools() -> Dict[str, Tuple]:
    a100 = a100_80gb()
    return {
        "p3": (a100, derated(a100, 1.3), a100),
        "p4": (a100, a100, derated(a100, 1.3), ascend910_32gb()),
    }


#: (key, class, base pool, event, argument). Events: ``leave`` removes pool
#: slot ``argument``; ``join`` appends the device preset ``argument``;
#: ``drift`` derates slot ``argument`` to ``DRIFT_SLOWDOWN``.
REPLAN_TABLE: Tuple[Tuple, ...] = (
    ("p3-leave-0", "warm", "p3", "leave", 0),
    ("p3-leave-1", "warm", "p3", "leave", 1),
    ("p3-leave-2", "warm", "p3", "leave", 2),
    ("p4-leave-0", "warm", "p4", "leave", 0),
    ("p4-leave-2", "warm", "p4", "leave", 2),
    ("p4-leave-3", "warm", "p4", "leave", 3),
    ("p3-join-a100", "warm", "p3", "join", "a100"),
    ("p4-drift-3", "drift", "p4", "drift", 3),
    ("p4-drift-0", "drift", "p4", "drift", 0),
)


def changed_cluster(base: ClusterSpec, event: str, argument) -> ClusterSpec:
    if event == "leave":
        return replan_mod.pool_without_rank(base, argument)
    if event == "join":
        return replan_mod.pool_with_rank(base, device_preset(argument))
    if event == "drift":
        return replan_mod.pool_with_drift(base, argument, DRIFT_SLOWDOWN)
    raise ValueError(f"unknown elastic event {event!r}")


def cold_sweep(cluster: ClusterSpec, spec) -> Tuple[object, StageEvalCache]:
    """The 1-worker cold sweep a job's first plan comes from."""
    cache = StageEvalCache()
    result = run_sweep(
        cluster,
        spec,
        REPLAN_TRAIN,
        len(cluster.device_pool),
        config=SweepConfig(workers=1),
        eval_cache=cache,
        memory_limit_bytes=REPLAN_LIMIT,
    )
    return result, cache


def _replan_counters(outcome) -> Dict[str, float]:
    result = outcome[0]
    stats = result.sweep.stats
    return {
        "inner_dp": float(result.evals_recomputed),
        "eval_hits": float(stats.eval_cache_hits),
        "strategies": float(stats.strategies_total),
        "pruned": float(stats.strategies_pruned),
        "reused": float(result.evals_reused),
        "recomputed": float(result.evals_recomputed),
    }


def replan_record(best, cluster: ClusterSpec) -> Dict:
    """Golden record of a replan: the plan, its placement and its simulation."""
    simulated = evaluate.evaluate_plan(best, cluster)
    record = _plan_record(best, simulated.iteration_time, simulated.oom)
    record["placement"] = list(best.metadata.get("placement_devices", []))
    return record


class ReplanWorkload:
    name = "replan"

    def __init__(self, scratch: str) -> None:
        self.scratch = scratch
        self.spec = model_by_name(REPLAN_MODEL)
        self.table: List[Op] = []
        self.headline: List[Op] = []

    def setup(self) -> None:
        files: Dict[str, Tuple[str, str, ClusterSpec]] = {}
        for name, pool in _base_pools().items():
            cluster = cluster_a(1).with_device_pool(pool)
            result, cache = cold_sweep(cluster, self.spec)
            plan_path = os.path.join(self.scratch, f"{name}.plan.json")
            cache_path = os.path.join(self.scratch, f"{name}.cache.json")
            serialize.dump_plan(result.best, plan_path)
            orchestrator.save_cache_file(cache, cache_path)
            files[name] = (plan_path, cache_path, cluster)
        self.table = [self._op(row, files) for row in REPLAN_TABLE]

    def _op(self, row: Tuple, files) -> Op:
        key, cls, pool, event, argument = row
        plan_path, cache_path, base = files[pool]
        out_plan = os.path.join(self.scratch, "replanned.plan.json")
        out_cache = os.path.join(self.scratch, "replanned.cache.json")
        spec = self.spec

        def run():
            plan = serialize.load_plan(plan_path)
            cache = StageEvalCache()
            cache.merge_entries(orchestrator.load_cache_file(cache_path))
            cluster = changed_cluster(base, event, argument)
            result = replan_mod.replan(
                plan,
                cluster,
                spec,
                eval_cache=cache,
                memory_limit_bytes=REPLAN_LIMIT,
            )
            orchestrator.save_cache_file(cache, out_cache)
            serialize.dump_plan(result.best, out_plan)
            return result, cluster

        def answer(outcome) -> Dict:
            result, cluster = outcome
            return replan_record(result.best, cluster)

        return Op(key, cls, run, answer, _replan_counters)


# ---------------------------------------------------------------------------
# robust: plan evaluation under perturbation (`evaluate_plan` + ensemble)
# ---------------------------------------------------------------------------

ROBUST_MODEL = "bert-large"
ROBUST_DRAWS = 24

#: (key, t, p, d, seq, global batch, memory limit GiB): the plans set-up
#: searches. ``n`` = global batch / d micro-batches.
ROBUST_PLANS: Tuple[Tuple, ...] = (
    ("p4n16", 1, 4, 1, 2048, 16, 2.0),
    ("p8n32", 1, 8, 1, 2048, 32, 2.0),
    ("p8n64", 1, 8, 1, 2048, 64, 2.0),
)


def perturbation_specs() -> Dict[str, PerturbationSpec]:
    """The perturbation table: deterministic specs, then jittered ones."""
    return {
        "derated": PerturbationSpec.build({1: 1.3, 2: 1.1}),
        "stall-link": PerturbationSpec.build(
            {0: 1.2},
            stalls=[TransientStall(device=1, delay=0.01, first_task=2, length=4)],
            links=[LinkDegradation(src=1, dst=2, factor=3.0, added_latency=0.001)],
        ),
        "jitter": PerturbationSpec.build(jitter_sigma=0.05, seed=7),
        "jitter-derated": PerturbationSpec.build(
            {2: 1.25},
            jitter_sigma=0.08,
            seed=11,
            stalls=[TransientStall(device=0, delay=0.005, first_task=0, length=3)],
        ),
        "jitter-link": PerturbationSpec.build(
            jitter_sigma=0.05,
            seed=3,
            links=[LinkDegradation(src=0, dst=1, factor=2.0)],
        ),
    }


#: (key, class, plan, schedule kind, perturbation spec). Sorted by op time,
#: graded mid-sized ``det`` entries sit where ``op_p50_s`` falls and the
#: four Chimera entries fill the top 20%, where ``op_p90_s`` falls.
ROBUST_TABLE: Tuple[Tuple, ...] = (
    ("p4n16-1f1b-derated", "det", "p4n16", "1f1b", "derated"),
    ("p4n16-2bp-stall-link", "det", "p4n16", "2bp", "stall-link"),
    ("p4n16-overlap-derated", "det", "p4n16", "overlap", "derated"),
    ("p4n16-gpipe-stall-link", "det", "p4n16", "gpipe", "stall-link"),
    ("p4n16-chimera-derated", "det", "p4n16", "chimera", "derated"),
    ("p4n16-chimerad-stall-link", "det", "p4n16", "chimerad", "stall-link"),
    ("p4n16-interleaved-derated", "det", "p4n16", "interleaved", "derated"),
    ("p8n32-1f1b-stall-link", "det", "p8n32", "1f1b", "stall-link"),
    ("p8n32-overlap-derated", "det", "p8n32", "overlap", "derated"),
    ("p8n64-1f1b-stall-link", "det", "p8n64", "1f1b", "stall-link"),
    ("p8n64-gpipe-derated", "det", "p8n64", "gpipe", "derated"),
    ("p8n64-interleaved-derated", "det", "p8n64", "interleaved", "derated"),
    ("p8n64-2bp-stall-link", "det", "p8n64", "2bp", "stall-link"),
    ("p8n32-1f1b-jitter", "jit", "p8n32", "1f1b", "jitter"),
    ("p8n32-gpipe-jitter-derated", "jit", "p8n32", "gpipe", "jitter-derated"),
    ("p8n32-interleaved-jitter-link", "jit", "p8n32", "interleaved", "jitter-link"),
    ("p8n32-2bp-jitter", "jit", "p8n32", "2bp", "jitter"),
    ("p8n64-chimera-derated", "chimera", "p8n64", "chimera", "derated"),
    ("p8n64-chimera-derated", "chimera", "p8n64", "chimera", "derated"),
    ("p8n64-chimera-stall-link", "chimera", "p8n64", "chimera", "stall-link"),
    ("p8n64-chimera-stall-link", "chimera", "p8n64", "chimera", "stall-link"),
)


def robust_answer(evaluation) -> Dict:
    meta = evaluation.plan.metadata
    return {
        "oom": bool(evaluation.oom),
        "simulated_time": evaluation.iteration_time,
        "nominal": meta["robust_nominal_time"],
        "mean": meta["robust_mean_time"],
        "p95": meta["robust_p95_time"],
        "worst": meta["robust_worst_time"],
        "criticality": list(meta["robust_criticality"]),
        "peaks": list(evaluation.simulation.device_peak_bytes),
        "audit_conservative": bool(meta["mem_model_conservative"]),
        "audit_max_rel_gap": meta["mem_model_max_rel_gap"],
    }


def _no_counters(_result) -> Dict[str, float]:
    return {}


def robust_plans() -> Dict[str, Tuple[object, ClusterSpec]]:
    """Plan every ``ROBUST_PLANS`` entry: the fixtures robust ops evaluate."""
    spec = model_by_name(ROBUST_MODEL)
    plans = {}
    for key, t, p, d, seq, batch, limit_gib in ROBUST_PLANS:
        cluster = _cluster_for(t * p * d)
        ctx = PlannerContext(
            cluster,
            spec,
            TrainingConfig(sequence_length=seq, global_batch_size=batch),
            ParallelConfig(t, p, d),
            memory_limit_bytes=limit_gib * GIB,
        )
        plans[key] = (plan_adapipe(ctx), cluster)
    return plans


class RobustWorkload:
    name = "robust"

    def __init__(self, scratch: str) -> None:
        del scratch
        self.table: List[Op] = []
        self.headline: List[Op] = []

    def setup(self) -> None:
        plans = robust_plans()
        specs = perturbation_specs()
        self.table = [self._op(row, plans, specs) for row in ROBUST_TABLE]

    @staticmethod
    def _op(row: Tuple, plans, specs) -> Op:
        key, cls, plan_key, kind, spec_key = row
        plan, cluster = plans[plan_key]
        spec = specs[spec_key]

        def run():
            return evaluate.evaluate_plan(
                plan,
                cluster,
                kind,
                perturbation=spec,
                robust_draws=ROBUST_DRAWS,
            )

        return Op(key, cls, run, robust_answer, _no_counters)


WORKLOADS = {
    "plan": PlanWorkload,
    "replan": ReplanWorkload,
    "robust": RobustWorkload,
}


def ops_of(workload) -> Sequence[Op]:
    return list(workload.table) + list(workload.headline)

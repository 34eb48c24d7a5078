"""Property tests for the heterogeneous placement search.

The three load-bearing invariants:

* a *homogeneous* pool is invisible — the placed search must return plans
  bit-identical to the poolless planner, at every sweep worker count;
* the search depends only on the pool *multiset* — permuting identical
  devices never changes the chosen plan (or its placement metadata);
* placements are economically sane — a strictly slower part (same
  capacity) never ends up with a strictly larger stage than a faster one
  (otherwise swapping the two ranks would dominate, and the exhaustive
  placement enumeration would have found the swap).
"""

import functools
import itertools

import pytest

from repro.baselines.extensions import plan_bpipe, plan_interleaved, plan_sqrt_checkpoint
from repro.baselines.offload import OffloadModel, plan_offload
from repro.config import ParallelConfig, TrainingConfig
from repro.core.interleaved_adaptive import plan_interleaved_adaptive
from repro.core.placement import (
    MAX_PLACEMENTS,
    apply_plan_placement,
    best_placement_scale_floor,
    device_classes,
    enumerate_placements,
    placement_devices,
    pool_capacity_sum,
)
from repro.core.evaluate import evaluate_plan
from repro.core.search import (
    PlannerContext,
    plan_adapipe,
    plan_even_partitioning,
    plan_policy,
)
from repro.core.isomorphism import StageEvalCache
from repro.core.serialize import plan_signature, plan_to_dict
from repro.core.strategies import RecomputePolicy
from repro.core.sweep import SweepConfig, run_sweep
from repro.hardware.cluster import cluster_a
from repro.hardware.device import a100_80gb, ascend910_32gb, derated
from repro.model.spec import bert_large, llama2_7b, tiny_gpt

LIMIT = 8 * 1024**2


def _pool_ctx(pool, spec, train, limit=LIMIT):
    cluster = cluster_a(1).with_device_pool(tuple(pool))
    return PlannerContext(
        cluster,
        spec,
        train,
        ParallelConfig(1, len(pool), 1),
        memory_limit_bytes=limit,
    )


class TestHomogeneousPoolInvisible:
    """Pool of p identical devices == no pool at all, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_bit_identical(self, tiny_spec, tiny_train, workers):
        # A pool pins pipeline depth to the pool size, so compare over the
        # strategy space both clusters can run: pp == 4.
        base = cluster_a(1)
        config = SweepConfig(workers=workers)
        strategies = [ParallelConfig(1, 4, 1)]
        plain = run_sweep(
            base, tiny_spec, tiny_train, 4,
            strategies=strategies, config=config, memory_limit_bytes=LIMIT,
        )
        pooled = run_sweep(
            base.with_device_pool((base.device,) * 4),
            tiny_spec, tiny_train, 4,
            strategies=strategies, config=config, memory_limit_bytes=LIMIT,
        )
        assert plain.best is not None
        assert plan_signature(pooled.best) == plan_signature(plain.best)
        # Every strategy in the sweep agrees, not just the winner.
        plain_sigs = sorted(plan_signature(p) for p in plain.plans if p.feasible)
        pool_sigs = sorted(plan_signature(p) for p in pooled.plans if p.feasible)
        assert pool_sigs == plain_sigs

    @pytest.mark.parametrize("p", [2, 3])
    def test_planner_bit_identical(self, tiny_spec, tiny_train, p):
        base = cluster_a(1)
        plain = plan_adapipe(
            PlannerContext(
                base, tiny_spec, tiny_train,
                ParallelConfig(1, p, 1), memory_limit_bytes=LIMIT,
            )
        )
        pooled = plan_adapipe(_pool_ctx((base.device,) * p, tiny_spec, tiny_train))
        assert plan_signature(pooled) == plan_signature(plain)
        assert pooled.metadata["placement"] == [0] * p
        assert pooled.metadata["placement_searched"] == 1


class TestPermutationInvariance:
    """The chosen plan depends on the pool multiset, not its order."""

    def test_permuted_pools_choose_one_plan(self, tiny_spec, tiny_train):
        base = a100_80gb()
        parts = [base, base, derated(base, 1.4)]
        perms = {
            repr(perm): perm for perm in itertools.permutations(parts)
        }  # DeviceSpec holds dicts (unhashable); dedup on repr instead
        plans = [
            plan_adapipe(_pool_ctx(perm, tiny_spec, tiny_train))
            for _, perm in sorted(perms.items())
        ]
        reference = plans[0]
        assert reference.feasible
        for plan in plans[1:]:
            assert plan_signature(plan) == plan_signature(reference)
            assert plan.metadata["placement"] == reference.metadata["placement"]
            assert (
                plan.metadata["placement_devices"]
                == reference.metadata["placement_devices"]
            )

    def test_device_classes_canonical(self):
        base = a100_80gb()
        slow = derated(base, 1.4)
        forward = cluster_a(1).with_device_pool((base, slow, base))
        backward = cluster_a(1).with_device_pool((slow, base, base))
        assert device_classes(forward) == device_classes(backward)
        classes = device_classes(forward)
        assert [cls.compute_scale for cls in classes] == sorted(
            cls.compute_scale for cls in classes
        )
        assert [cls.count for cls in classes] == [2, 1]


class TestPlacementSanity:
    """A strictly slower, equal-memory part never gets a larger stage."""

    def test_slower_device_never_strictly_larger_stage(self, tiny_train):
        spec = tiny_gpt(num_layers=6, hidden_size=32, vocab_size=50)
        base = a100_80gb()
        for slowdown in (1.3, 1.6, 2.0):
            pool = (base, derated(base, slowdown), base)
            plan = plan_adapipe(_pool_ctx(pool, spec, tiny_train))
            assert plan.feasible
            scales = plan.metadata["placement_scales"]
            stages = list(plan.stages)
            # Nominal (pre-scaling) stage compute: the planner multiplied
            # each stage's times by its rank's scale, so divide it back out.
            nominal = [
                (stage.forward_time + stage.backward_time) / scale
                for stage, scale in zip(stages, scales)
            ]
            for i, j in itertools.permutations(range(len(stages)), 2):
                if scales[i] > scales[j]:
                    assert nominal[i] <= nominal[j] * (1 + 1e-12), (
                        f"slowdown {slowdown}: rank {i} "
                        f"(scale {scales[i]}) got a strictly larger stage "
                        f"than rank {j} (scale {scales[j]})"
                    )


#: Every planner that keeps the uniform partition: (planner, schedule its
#: plans run under, model chunks per device).
FIXED_PARTITION_PLANNERS = {
    "Even Partitioning": (plan_even_partitioning, "1f1b", 1),
    "DAPPLE-Full": (
        functools.partial(
            plan_policy, policy=RecomputePolicy.FULL, method="DAPPLE-Full"
        ),
        "1f1b",
        1,
    ),
    "DAPPLE-Non": (
        functools.partial(
            plan_policy, policy=RecomputePolicy.NONE, method="DAPPLE-Non"
        ),
        "1f1b",
        1,
    ),
    "Checkpoint-sqrtL": (plan_sqrt_checkpoint, "1f1b", 1),
    "BPipe": (plan_bpipe, "1f1b", 1),
    "Recompute+Offload": (plan_offload, "1f1b", 1),
    "Interleaved-Full": (
        functools.partial(plan_interleaved, policy=RecomputePolicy.FULL, chunks=2),
        "interleaved",
        2,
    ),
    "AdaPipe-Interleaved": (
        functools.partial(plan_interleaved_adaptive, chunks=2),
        "interleaved",
        2,
    ),
}


def _bert_ctx(cluster, p=4, eval_cache=None):
    return PlannerContext(
        cluster,
        bert_large(),
        TrainingConfig(sequence_length=2048, global_batch_size=16),
        ParallelConfig(1, p, 1),
        eval_cache=eval_cache,
    )


#: Plan metadata that counts search work or wall clock, not a decision.
_COUNTERS = (
    "inner_dp_invocations",
    "eval_cache_hits",
    "eval_cache_misses",
    "planning_seconds",
)


def _decisions(plan):
    """The plan document without its search counters and wall clock."""
    document = plan_to_dict(plan)
    for key in _COUNTERS:
        document["metadata"].pop(key, None)
    return document


class TestFixedPartitionPlacement:
    """Fixed-partition planners price a pool on its canonical placement, so
    their plans must name it: evaluation judges each rank's memory against
    the device the plan placed there."""

    @pytest.mark.parametrize("name", sorted(FIXED_PARTITION_PLANNERS))
    def test_a_slow_pool_scales_every_stage(self, name):
        """On four parts 1.5x slower than nominal, every stage takes exactly
        1.5x its poolless time and the same memory."""
        planner, _, _ = FIXED_PARTITION_PLANNERS[name]
        slow = derated(a100_80gb(), 1.5)
        poolless = planner(_bert_ctx(cluster_a(1)))
        pooled = planner(_bert_ctx(cluster_a(1).with_device_pool((slow,) * 4)))
        assert pooled.metadata["placement"] == [0, 0, 0, 0]
        assert pooled.metadata["placement_scales"] == [1.5] * 4
        assert pooled.feasible == poolless.feasible
        assert len(pooled.stages) == len(poolless.stages) > 0
        for got, want in zip(pooled.stages, poolless.stages):
            assert got.forward_time == 1.5 * want.forward_time
            assert got.backward_time == 1.5 * want.backward_time
            assert got.memory == want.memory
            assert got.saved_unit_counts == want.saved_unit_counts

    @pytest.mark.parametrize("name", sorted(FIXED_PARTITION_PLANNERS))
    def test_more_stages_than_layers_is_the_infeasible_plan(self, name):
        """tiny-gpt with two blocks has 6 layers: 8 ranks, or 4 ranks of 2
        chunks each, leave no even split."""
        planner, _, chunks = FIXED_PARTITION_PLANNERS[name]
        train = TrainingConfig(sequence_length=128, global_batch_size=16)
        spec = tiny_gpt(num_layers=2)
        for p in (8, 4):
            ctx = PlannerContext(cluster_a(1), spec, train, ParallelConfig(1, p, 1))
            assert len(ctx.layers) == 6
            plan = planner(ctx)
            if chunks * p <= len(ctx.layers):
                assert plan.stages
                continue
            assert not plan.feasible
            assert plan.stages == ()
            assert plan.modeled_iteration_time is None
            assert plan.metadata["infeasible_reason"] == "more pipeline stages than layers"

    def test_slow_link_offload_is_even_partitioning(self):
        """A host link too slow to beat recomputation leaves offload with
        Even Partitioning's knapsack, so on a pool it must simulate to Even
        Partitioning's time (before placement it read 30% faster)."""
        a100 = a100_80gb()
        cluster = cluster_a(1).with_device_pool(
            (a100, a100, derated(a100, 1.5), ascend910_32gb())
        )
        ctx = _bert_ctx(cluster)
        offload = plan_offload(ctx, OffloadModel(bandwidth=12e9, overlap_fraction=0.3))
        even = plan_even_partitioning(ctx)
        assert offload.metadata["placement"] == even.metadata["placement"]
        got = evaluate_plan(offload, cluster).iteration_time
        want = evaluate_plan(even, cluster).iteration_time
        assert got == pytest.approx(want, rel=1e-12)

    def test_even_partitioning_entries_serve_adapipe_on_a_pool(self):
        """Even Partitioning prices at nominal speed and AdaPipe scales after
        the lookup, so on one shared cache AdaPipe reuses every entry Even
        Partitioning left: the same plans as on their own caches, AdaPipe's
        inner DPs fewer by Even Partitioning's, and no entry AdaPipe alone
        would not have left."""
        cluster = cluster_a(1).with_device_pool((derated(a100_80gb(), 1.5),) * 4)
        alone = StageEvalCache()
        even_alone = plan_even_partitioning(_bert_ctx(cluster, eval_cache=StageEvalCache()))
        adapipe_alone = plan_adapipe(_bert_ctx(cluster, eval_cache=alone))
        shared = StageEvalCache()
        even = plan_even_partitioning(_bert_ctx(cluster, eval_cache=shared))
        adapipe = plan_adapipe(_bert_ctx(cluster, eval_cache=shared))
        assert _decisions(even) == _decisions(even_alone)
        assert _decisions(adapipe) == _decisions(adapipe_alone)
        assert even.metadata["inner_dp_invocations"] > 0
        assert adapipe.metadata["inner_dp_invocations"] == (
            adapipe_alone.metadata["inner_dp_invocations"]
            - even.metadata["inner_dp_invocations"]
        )
        assert len(shared) == len(alone)

    def test_plans_carry_the_placement_they_were_priced_on(self):
        a100 = a100_80gb()
        cluster = cluster_a(1).with_device_pool(
            (a100, a100, derated(a100, 1.5), ascend910_32gb())
        )
        ctx = PlannerContext(
            cluster,
            llama2_7b(),
            TrainingConfig(sequence_length=4096, global_batch_size=16),
            ParallelConfig(1, 4, 1),
        )
        canonical = list(enumerate_placements(device_classes(cluster), 4)[0])
        even = plan_even_partitioning(ctx)
        full = plan_policy(ctx, RecomputePolicy.FULL, "DAPPLE-Full")
        for plan in (even, full):
            assert plan.metadata["placement"] == canonical
            assert plan.metadata["placement_searched"] == 1
        # The canonical placement puts the Ascend 910 on rank 2, whose stage
        # pins 26.7 GiB; in declaration order it would serve rank 3's 29.6.
        assert even.metadata["placement_devices"][2] == "Ascend910-32GB"
        assert even.feasible
        assert not evaluate_plan(even, cluster).oom


class TestEnumeration:
    """Combinatorics of the placement space itself."""

    def test_lexicographic_multiset_permutations(self):
        base = a100_80gb()
        cluster = cluster_a(1).with_device_pool(
            (base, derated(base, 1.4), base)
        )
        classes = device_classes(cluster)
        placements = enumerate_placements(classes, 3)
        assert placements == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert placements == sorted(placements)
        devices = placement_devices(classes, placements[1])
        assert [d.name for d in devices] == [base.name, f"{base.name}*1.4", base.name]

    def test_count_mismatch_raises(self):
        cluster = cluster_a(1).with_device_pool((a100_80gb(), a100_80gb()))
        with pytest.raises(ValueError, match="2 slots.*3 pipeline"):
            enumerate_placements(device_classes(cluster), 3)

    def test_ceiling_raises_instead_of_truncating(self):
        base = a100_80gb()
        pool = tuple(derated(base, 1.0 + 0.05 * i) for i in range(1, 9))
        cluster = cluster_a(1).with_device_pool(pool)
        classes = device_classes(cluster)
        with pytest.raises(ValueError, match="exceed"):
            enumerate_placements(classes, 8, max_placements=1000)
        assert len(enumerate_placements(classes, 8, max_placements=40320)) == 40320
        assert MAX_PLACEMENTS < 40320

    def test_apply_plan_placement_reorders_pool(self, tiny_spec, tiny_train):
        base = a100_80gb()
        pool = (base, derated(base, 1.4), base)
        ctx = _pool_ctx(pool, tiny_spec, tiny_train)
        plan = plan_adapipe(ctx)
        placed = apply_plan_placement(ctx.cluster, plan)
        assert [d.name for d in placed.device_pool] == plan.metadata[
            "placement_devices"
        ]
        # A plan without placement metadata leaves the cluster alone.
        assert apply_plan_placement(ctx.cluster, plan.with_metadata()) is not None


class TestSweepBoundHelpers:
    """The pool-aware pieces of the admissible pruning bound."""

    def test_scale_floor_is_min_pool_factor(self):
        base = a100_80gb()
        cluster = cluster_a(1).with_device_pool(
            (base, derated(base, 1.4), ascend910_32gb())
        )
        floor = best_placement_scale_floor(cluster, 3)
        assert floor == min(
            cluster.pool_compute_factor(d) for d in cluster.device_pool
        )
        assert best_placement_scale_floor(cluster_a(1), 3) == 1.0

    def test_capacity_sum_is_placement_invariant(self):
        base = a100_80gb()
        small = ascend910_32gb()
        forward = cluster_a(1).with_device_pool((base, small, base))
        backward = cluster_a(1).with_device_pool((small, base, base))
        assert pool_capacity_sum(forward, 3) == pool_capacity_sum(backward, 3)
        assert pool_capacity_sum(forward, 3) == float(
            2 * base.usable_memory_bytes + small.usable_memory_bytes
        )
        assert pool_capacity_sum(cluster_a(1), 3) is None

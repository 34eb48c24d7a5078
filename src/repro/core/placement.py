"""Heterogeneous placement: device classes and stage-to-device assignment.

A :class:`~repro.hardware.cluster.ClusterSpec` with a ``device_pool``
carries one :class:`~repro.hardware.device.DeviceSpec` per pipeline rank —
mixed parts (A100 + derated A100 + Ascend) that the *planner* can see, not
just the robustness simulator. Planning such a cluster adds a placement
dimension to the search: which device class serves which pipeline stage.

This module owns the combinatorics:

* :func:`device_classes` — collapse the pool into distinct *classes*
  (identical specs share one class) in a canonical order, so permuting
  identical pool entries can never change the search.
* :func:`enumerate_placements` — all distinct assignments of classes to
  ranks (multiset permutations) in lexicographic order over the canonical
  class indices. The planner keeps the first placement that achieves the
  best total time, which makes the tie-break canonical too.
* :func:`apply_plan_placement` — re-order a cluster's pool to match the
  placement a plan chose, so downstream simulation and robustness price
  the assignment the planner actually selected.

The per-rank pricing itself lives in
:class:`~repro.core.isomorphism.StageEvaluator` (compute scale multiplies
stage times, per-rank capacity bounds the recomputation knapsack). Only
the capacity is part of a cached stage-evaluation key: entries are
nominal-speed and the compute scale is applied after the lookup, which
is what makes cross-placement — and cross-replan — cache reuse sound
(ALGORITHMS.md section 14).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import DeviceSpec

#: Ceiling on the distinct placements one strategy may enumerate. The count
#: is ``p! / prod(count_c!)`` over the pool's class multiplicities, so it
#: only explodes when a deep pipeline mixes many *distinct* device classes;
#: pools drawn from a few part types stay tiny (e.g. 8 ranks split 4+4 is
#: 70 placements). Exceeding the ceiling raises instead of silently
#: truncating — a truncated enumeration could drop the optimum.
MAX_PLACEMENTS = 10080


@dataclass(frozen=True)
class DeviceClass:
    """One distinct device type of a pool, with its planner-facing costs.

    Attributes:
        device: the accelerator spec shared by ``count`` pool slots.
        compute_scale: sustained slowdown of this part relative to the
            cluster's nominal roofline device (1.0 = nominal); stage
            forward/backward times are multiplied by it.
        capacity_bytes: usable memory of one part (the per-rank
            recomputation-knapsack budget before the planner's margin).
        count: how many pool slots hold this class.
    """

    device: DeviceSpec
    compute_scale: float
    capacity_bytes: float
    count: int


def pool_compute_factor(cluster: ClusterSpec, device: DeviceSpec) -> float:
    """Planner-visible slowdown of one pool part vs the nominal roofline.

    Delegates to :meth:`ClusterSpec.pool_compute_factor` — the part's
    sustained ``slowdown`` derating times the peak-throughput ratio to
    the cluster's base device (an Ascend slot in an A100-rooflined
    cluster runs ``312/256`` slower per FLOP before any derating).
    """
    return cluster.pool_compute_factor(device)


def device_classes(cluster: ClusterSpec) -> Tuple[DeviceClass, ...]:
    """Distinct device classes of ``cluster``'s pool, canonically ordered.

    Identical :class:`DeviceSpec` entries (dataclass equality) collapse
    into one class. The order is canonical — fastest first, then largest
    memory, then name/repr — and depends only on the *multiset* of pool
    entries, never their order, so permuting identical devices can never
    change which placement the search enumerates first.
    """
    if not cluster.device_pool:
        raise ValueError(f"cluster {cluster.name} has no device pool")
    grouped: dict = {}
    for device in cluster.device_pool:
        key = repr(device)
        if key in grouped:
            grouped[key] = (device, grouped[key][1] + 1)
        else:
            grouped[key] = (device, 1)
    classes = [
        DeviceClass(
            device=device,
            compute_scale=pool_compute_factor(cluster, device),
            capacity_bytes=float(device.usable_memory_bytes),
            count=count,
        )
        for device, count in grouped.values()
    ]
    classes.sort(
        key=lambda cls: (
            cls.compute_scale,
            -cls.capacity_bytes,
            cls.device.name,
            repr(cls.device),
        )
    )
    return tuple(classes)


def enumerate_placements(
    classes: Tuple[DeviceClass, ...],
    pipeline_parallel: int,
    max_placements: int = MAX_PLACEMENTS,
) -> List[Tuple[int, ...]]:
    """All distinct class-per-rank assignments, lexicographically ordered.

    ``classes`` must come from :func:`device_classes` (their ``count``
    fields must sum to ``pipeline_parallel``). The result enumerates the
    multiset permutations of the class indices in ascending lexicographic
    order — placement 0 puts the canonical first class on the earliest
    ranks — which is the deterministic tie-break order the planner uses.
    """
    total = sum(cls.count for cls in classes)
    if total != pipeline_parallel:
        raise ValueError(
            f"device pool has {total} slots but the strategy runs "
            f"{pipeline_parallel} pipeline stages"
        )
    count = _multiset_permutation_count(tuple(cls.count for cls in classes))
    if count > max_placements:
        raise ValueError(
            f"{count} distinct placements exceed the {max_placements} "
            f"ceiling; reduce the number of distinct device classes in "
            f"the pool (or raise max_placements)"
        )
    remaining = [cls.count for cls in classes]
    prefix: List[int] = []
    out: List[Tuple[int, ...]] = []

    def extend() -> None:
        if len(prefix) == pipeline_parallel:
            out.append(tuple(prefix))
            return
        for index in range(len(remaining)):
            if remaining[index]:
                remaining[index] -= 1
                prefix.append(index)
                extend()
                prefix.pop()
                remaining[index] += 1

    extend()
    return out


def _multiset_permutation_count(counts: Tuple[int, ...]) -> int:
    """``(sum counts)! / prod(counts!)`` without floating point."""
    total = 1
    placed = 0
    for count in counts:
        for pick in range(1, count + 1):
            placed += 1
            total = total * placed // pick
    return total


def placement_devices(
    classes: Tuple[DeviceClass, ...], placement: Tuple[int, ...]
) -> Tuple[DeviceSpec, ...]:
    """The concrete per-rank device specs of one placement."""
    return tuple(classes[index].device for index in placement)


def placement_metadata(
    classes: Tuple[DeviceClass, ...],
    placement: Tuple[int, ...],
    searched: int,
) -> dict:
    """JSON-safe plan metadata describing one chosen placement."""
    return {
        "placement": list(placement),
        "placement_devices": [classes[index].device.name for index in placement],
        "placement_scales": [classes[index].compute_scale for index in placement],
        "placement_searched": searched,
    }


def apply_plan_placement(
    cluster: ClusterSpec, plan: "object"
) -> ClusterSpec:
    """Re-order ``cluster``'s pool to the placement ``plan`` chose.

    Plans searched over a pool record the winning class-per-rank
    assignment in their metadata; simulation, memory checks, and
    robustness must price rank ``r`` with the device the planner actually
    placed there, not with the pool's declaration order. Returns the
    cluster unchanged when it has no pool or the plan carries no
    placement (e.g. a plan from a homogeneous search).
    """
    placement = getattr(plan, "metadata", {}).get("placement")
    if not cluster.device_pool or placement is None:
        return cluster
    classes = device_classes(cluster)
    pool = placement_devices(classes, tuple(int(i) for i in placement))
    if len(pool) != len(cluster.device_pool):
        return cluster
    return dataclasses.replace(cluster, device_pool=pool)


def best_placement_scale_floor(cluster: ClusterSpec, pipeline_parallel: int) -> float:
    """The smallest per-rank compute scale any placement can offer.

    Used by the sweep's admissible lower bound: every stage of every
    placement runs at least ``min_c compute_scale(c)`` times its nominal
    cost, so multiplying the nominal relaxation by this floor keeps the
    bound admissible under per-rank scaling (ALGORITHMS.md section 14).
    Returns 1.0 for poolless clusters (nominal pricing).
    """
    if not cluster.device_pool:
        return 1.0
    del pipeline_parallel
    return min(
        cluster.pool_compute_factor(device) for device in cluster.device_pool
    )


def pool_capacity_sum(cluster: ClusterSpec, pipeline_parallel: int) -> Optional[float]:
    """Total usable bytes across the pool (placement-invariant).

    Every placement assigns each pool part to exactly one rank, so the
    aggregate-memory relaxation of the sweep bound may pool
    ``sum_r capacity(r)`` — the sum is invariant under the placement
    permutation. ``None`` for poolless clusters (callers use
    ``p * capacity``).
    """
    if not cluster.device_pool:
        return None
    del pipeline_parallel
    return float(
        sum(device.usable_memory_bytes for device in cluster.device_pool)
    )

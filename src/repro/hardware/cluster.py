"""Cluster topologies.

A :class:`ClusterSpec` couples a device type with the two bandwidth tiers
that matter to 3D parallelism: intra-node links (used by tensor parallelism)
and the inter-node network (used by pipeline point-to-point transfers and
data-parallel gradient reduction).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.config import ConfigError, ParallelConfig
from repro.hardware.device import DeviceSpec, a100_80gb, ascend910_32gb


@dataclass(frozen=True)
class ClusterSpec:
    """An accelerator cluster, homogeneous by default.

    Attributes:
        name: identifier used in reports ("A" / "B").
        device: the accelerator installed in every slot; also the nominal
            roofline part that the planner prices layers against.
        num_nodes: node count.
        devices_per_node: accelerators per node.
        intra_node_bandwidth: per-direction bytes/s between two devices in
            one node (NVLink for A, on-board mesh for B).
        inter_node_bandwidth: per-device bytes/s across nodes.
        link_latency: per-message latency in seconds.
        device_factors: optional per-pipeline-rank sustained slowdown
            factors for a heterogeneous (or degraded) cluster; rank ``r``
            runs ``device_factors[r]`` times slower than nominal.
            **Fallback (documented, tested):** the tuple may be shorter
            than the pipeline depth — ranks beyond it fall back to
            ``device.slowdown`` (nominal when the base part is
            underated). The pipeline depth is not known at construction
            time, so the length cannot be validated here; callers that
            know ``p`` should pass a full-length tuple. The planners'
            roofline model stays nominal — the factors feed robustness
            evaluation (:func:`repro.core.robust.cluster_perturbation`).
        device_pool: optional per-pipeline-rank device specs for a mixed
            fleet (e.g. A100 + derated A100 + Ascend). Unlike
            ``device_factors``, a pool is planner-visible: the placement
            search (:mod:`repro.core.placement`) decides which device
            class serves which stage, pricing each rank with that class's
            compute scale and memory capacity. A pool fixes the pipeline
            depth to ``len(device_pool)`` (enforced by
            :meth:`validate_parallel`); ``device_factors`` and
            ``device_pool`` are mutually exclusive.
    """

    name: str
    device: DeviceSpec
    num_nodes: int
    devices_per_node: int
    intra_node_bandwidth: float
    inter_node_bandwidth: float
    link_latency: float = 5e-6
    device_factors: Optional[Tuple[float, ...]] = None
    device_pool: Optional[Tuple[DeviceSpec, ...]] = None

    def __post_init__(self) -> None:
        for rank, factor in enumerate(self.device_factors or ()):
            if not 0 < factor < math.inf:  # NaN fails too
                raise ValueError(
                    f"device factor of rank {rank} must be finite and > 0, "
                    f"got {factor!r}"
                )
        if self.device_pool is not None:
            if not self.device_pool:
                raise ValueError("device pool must name at least one device")
            if len(self.device_pool) > self.num_devices:
                raise ValueError(
                    f"device pool has {len(self.device_pool)} slots but "
                    f"cluster {self.name} has only {self.num_devices} devices"
                )
            if self.device_factors is not None:
                raise ValueError(
                    "device_factors and device_pool are mutually exclusive; "
                    "encode per-rank derating in the pool's DeviceSpec.slowdown"
                )

    @property
    def num_devices(self) -> int:
        return self.num_nodes * self.devices_per_node

    @property
    def heterogeneous(self) -> bool:
        """True when some rank is derated relative to a nominal part."""
        if self.device_factors and any(f != 1.0 for f in self.device_factors):
            return True
        if self.device_pool:
            if any(self.pool_compute_factor(d) != 1.0 for d in self.device_pool):
                return True
            if any(
                d.usable_memory_bytes != self.device.usable_memory_bytes
                for d in self.device_pool
            ):
                return True
        return self.device.slowdown != 1.0

    def rank_device(self, rank: int) -> DeviceSpec:
        """The device spec serving pipeline rank ``rank``.

        Pool slot ``rank`` for pooled clusters (the pool fixes the
        pipeline depth, so an out-of-range rank is a config error); the
        uniform ``device`` otherwise.
        """
        if self.device_pool:
            if rank >= len(self.device_pool):
                raise ConfigError(
                    f"pipeline rank {rank} out of range for a device pool "
                    f"of {len(self.device_pool)} slots"
                )
            return self.device_pool[rank]
        return self.device

    def pool_compute_factor(self, device: DeviceSpec) -> float:
        """Planner-visible slowdown of one pool part vs the nominal roofline.

        The planner prices every layer with ``self.device``'s roofline
        and scales stage times by this factor: the part's sustained
        ``slowdown`` derating times the peak-throughput ratio to the base
        part. A pool slot equal to the base device scales by exactly
        ``1.0``, keeping homogeneous-pool planning bit-identical to the
        poolless planner.
        """
        return device.slowdown * (self.device.peak_flops / device.peak_flops)

    def rank_compute_factor(self, rank: int) -> float:
        """Planner compute scale for pipeline rank ``rank``.

        Pool-derived for pooled clusters; exactly ``1.0`` otherwise —
        planner-side scaling activates only with an explicit pool, so
        poolless plans (including ones with ``device_factors`` or a
        derated base ``device``, which affect robustness pricing only)
        stay bit-identical to the pre-placement planner.
        """
        if self.device_pool:
            return self.pool_compute_factor(self.rank_device(rank))
        return 1.0

    def device_factor(self, rank: int) -> float:
        """Sustained slowdown factor of pipeline rank ``rank``.

        Resolution order: an explicit ``device_factors`` entry, then the
        pool part's planner compute factor, then ``device.slowdown``
        (the documented fallback for ranks past a short factors tuple —
        see the class docstring).
        """
        if self.device_factors and rank < len(self.device_factors):
            return self.device_factors[rank]
        if self.device_pool and rank < len(self.device_pool):
            return self.pool_compute_factor(self.device_pool[rank])
        return self.device.slowdown

    def with_device_factors(self, factors: Iterable[float]) -> "ClusterSpec":
        """A copy of this cluster with per-rank slowdown factors."""
        return dataclasses.replace(self, device_factors=tuple(factors))

    def with_device_pool(self, devices: Iterable[DeviceSpec]) -> "ClusterSpec":
        """A copy of this cluster with a per-rank device pool."""
        return dataclasses.replace(
            self, device_pool=tuple(devices), device_factors=None
        )

    def validate_parallel(self, parallel: ParallelConfig, num_devices: int) -> None:
        """Check that a 3D strategy fits this cluster.

        Mirrors the paper's constraints: the strategy must use exactly
        ``num_devices`` accelerators and keep tensor parallelism inside one
        node (cross-node TP saturates the network, Section 7.1).
        """
        if parallel.num_devices != num_devices:
            raise ConfigError(
                f"strategy {parallel} uses {parallel.num_devices} devices, "
                f"expected {num_devices}"
            )
        if num_devices > self.num_devices:
            raise ConfigError(
                f"{num_devices} devices requested but cluster {self.name} "
                f"has only {self.num_devices}"
            )
        if parallel.tensor_parallel > self.devices_per_node:
            raise ConfigError(
                f"tensor parallel size {parallel.tensor_parallel} exceeds "
                f"{self.devices_per_node} devices per node"
            )
        if (
            self.device_pool is not None
            and parallel.pipeline_parallel != len(self.device_pool)
        ):
            raise ConfigError(
                f"device pool has {len(self.device_pool)} slots but strategy "
                f"{parallel} runs {parallel.pipeline_parallel} pipeline "
                f"stages; a pool fixes the pipeline depth"
            )

    def tensor_parallel_bandwidth(self, tensor_parallel: int) -> float:
        """Bandwidth seen by tensor-parallel collectives (intra-node)."""
        del tensor_parallel
        return self.intra_node_bandwidth

    def pipeline_bandwidth(self) -> float:
        """Bandwidth of a stage-to-stage point-to-point transfer.

        Pipeline neighbours normally live on different nodes, which is
        exactly why pipeline parallelism is used at the inter-node level.
        """
        return self.inter_node_bandwidth


def cluster_a(num_nodes: int = 8) -> ClusterSpec:
    """Cluster A: DGX-A100 nodes, NVLink intra-node, 800 Gbps InfiniBand."""
    return ClusterSpec(
        name="A",
        device=a100_80gb(),
        num_nodes=num_nodes,
        devices_per_node=8,
        intra_node_bandwidth=300e9,   # NVLink 3, per direction
        inter_node_bandwidth=100e9,   # 800 Gbps HCA shared by 8 GPUs
    )


def cluster_b(num_nodes: int = 32) -> ClusterSpec:
    """Cluster B: Atlas 800 nodes, meshed NPU boards, 100 Gbps NICs."""
    return ClusterSpec(
        name="B",
        device=ascend910_32gb(),
        num_nodes=num_nodes,
        devices_per_node=8,
        intra_node_bandwidth=30e9,    # 30 GB/s board mesh links
        inter_node_bandwidth=12.5e9,  # 100 Gbps NIC per NPU
    )

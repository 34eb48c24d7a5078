"""The profiler: per-unit forward/backward times and saved sizes.

``Profiler`` plays the role of the paper's preliminary profiling run
(Section 6): it produces, for every computation unit of every layer kind, a
:class:`UnitProfile` with the unit's forward time (= its recompute cost),
backward time, and saved-intermediate size. Times come from the roofline
model; tensor-parallel collective costs are attached to the units where
Megatron actually issues them (the closing row-parallel GEMM in forward, the
opening column-parallel GEMM in backward), so a recomputed unit never
re-pays forward communication that its saved closing unit already covers.

An optional multiplicative noise term emulates measurement jitter; it is
deterministic per unit name so searches remain reproducible.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.config import ParallelConfig, TrainingConfig, require_non_negative
from repro.hardware.cluster import ClusterSpec
from repro.hardware.comm import CommModel
from repro.model.layers import LayerKind
from repro.model.spec import ModelSpec
from repro.model.units import ComputationUnit, units_for_layer
from repro.profiler.memory import MemoryModel
from repro.profiler.timing import unit_backward_time, unit_forward_time

# Units that carry the tensor-parallel collective in each direction.
_FORWARD_COMM_UNITS = {"attn.out", "ffn.out", "embed.lookup", "head.proj"}
_BACKWARD_COMM_UNITS = {"attn.q", "ffn.in", "embed.lookup", "head.proj"}


@dataclass(frozen=True)
class UnitProfile:
    """Measured (here: modelled) costs of one computation unit.

    Raises:
        ValueError: a time or ``saved_bytes`` is NaN, infinite or negative
            (named with the unit), so a bad measurement never reaches a
            stage evaluation.
    """

    unit: ComputationUnit
    time_forward: float
    time_backward: float
    saved_bytes: float

    def __post_init__(self) -> None:
        for name in ("time_forward", "time_backward", "saved_bytes"):
            require_non_negative(f"unit {self.unit.name} {name}", getattr(self, name))

    @property
    def name(self) -> str:
        return self.unit.name

    @property
    def always_saved(self) -> bool:
        return self.unit.always_saved


@dataclass(frozen=True)
class LayerProfile:
    """All unit profiles of one layer, with totals computed once.

    A stage holding ``c`` layers of this kind costs ``c`` times each
    total, which is how :func:`~repro.core.isomorphism.stage_totals`
    prices a stage without walking its layers.
    """

    kind: LayerKind
    units: Tuple[UnitProfile, ...]

    @functools.cached_property
    def time_forward(self) -> float:
        return sum(u.time_forward for u in self.units)

    @functools.cached_property
    def time_backward(self) -> float:
        """Backward time with every unit saved (the fixed backward)."""
        return sum(u.time_backward for u in self.units)

    @functools.cached_property
    def full_recompute_extra(self) -> float:
        """Backward-time penalty of recomputing every optional unit."""
        return sum(u.time_forward for u in self.units if not u.always_saved)

    @functools.cached_property
    def saved_bytes_always(self) -> float:
        return sum(u.saved_bytes for u in self.units if u.always_saved)

    @property
    def saved_bytes_all(self) -> float:
        return sum(u.saved_bytes for u in self.units)

    @functools.cached_property
    def always_saved_counts(self) -> Tuple[Tuple[str, int], ...]:
        """``(name, copies)`` of each always-saved unit type, in unit order."""
        counts: Dict[str, int] = {}
        for u in self.units:
            if u.always_saved:
                counts[u.name] = counts.get(u.name, 0) + 1
        return tuple(counts.items())

    @functools.cached_property
    def optional_units(self) -> Tuple[Tuple[UnitProfile, int], ...]:
        """``(first profile, copies)`` of each optional unit type, in unit order.

        The knapsack takes one item per type, priced by its first profile;
        the order decides its ties.
        """
        first: Dict[str, UnitProfile] = {}
        copies: Dict[str, int] = {}
        for u in self.units:
            if not u.always_saved:
                first.setdefault(u.name, u)
                copies[u.name] = copies.get(u.name, 0) + 1
        return tuple((u, copies[name]) for name, u in first.items())


def _jitter(name: str, seed: int, noise: float) -> float:
    """Deterministic multiplicative jitter in ``[1 - noise, 1 + noise]``."""
    if noise == 0.0:
        return 1.0
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    unit_interval = int.from_bytes(digest[:8], "big") / 2**64
    return 1.0 + noise * (2.0 * unit_interval - 1.0)


class Profiler:
    """Builds unit profiles for one (model, workload, cluster, strategy).

    Args:
        cluster: hardware the model runs on.
        spec: model architecture.
        train: workload configuration.
        parallel: the 3D parallelism strategy being evaluated.
        noise: relative amplitude of deterministic measurement jitter.
        seed: jitter seed.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        spec: ModelSpec,
        train: TrainingConfig,
        parallel: ParallelConfig,
        noise: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.cluster = cluster
        self.spec = spec
        self.train = train
        self.parallel = parallel
        self.noise = noise
        self.seed = seed
        self.comm = CommModel(cluster)
        self.memory = MemoryModel(spec, train, parallel)
        self._cache: Dict[LayerKind, LayerProfile] = {}

    def profile_layer(self, kind: LayerKind) -> LayerProfile:
        """Profile one layer kind (cached — layers are homogeneous)."""
        if kind not in self._cache:
            self._cache[kind] = self._build(kind)
        return self._cache[kind]

    def _build(self, kind: LayerKind) -> LayerProfile:
        device = self.cluster.device
        tp_time = self.comm.tensor_parallel_overhead_per_layer(
            self.spec.hidden_size, self.train, self.parallel
        )
        profiles = []
        for unit in units_for_layer(
            kind, self.spec, self.train, self.parallel.tensor_parallel
        ):
            forward = unit_forward_time(unit, device)
            backward = unit_backward_time(unit, device)
            if unit.name in _FORWARD_COMM_UNITS:
                forward += tp_time
            if unit.name in _BACKWARD_COMM_UNITS:
                backward += tp_time
            scale = _jitter(unit.name, self.seed, self.noise)
            profiles.append(
                UnitProfile(
                    unit=unit,
                    time_forward=forward * scale,
                    time_backward=backward * scale,
                    saved_bytes=self.memory.unit_saved_bytes(unit),
                )
            )
        return LayerProfile(kind=kind, units=tuple(profiles))

"""Accelerator specifications.

The roofline timing model (``repro.profiler.timing``) needs, per device, the
peak dense half-precision throughput, the memory bandwidth, and realistic
efficiency factors per operator class — dense GEMMs reach a large fraction of
peak, while norms and elementwise ops are bandwidth-bound. The memory model
needs the capacity and the slice the framework reserves (CUDA context,
workspaces, fragmentation).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.model.units import OpKind

# Fraction of peak FLOPS that each operator class achieves in practice.
_DEFAULT_EFFICIENCY: Dict[OpKind, float] = {
    OpKind.GEMM: 0.55,
    OpKind.FLASH_ATTENTION: 0.45,
    OpKind.NORM: 0.04,
    OpKind.ELEMENTWISE: 0.04,
    OpKind.EMBEDDING: 0.03,
    OpKind.CROSS_ENTROPY: 0.05,
}


@dataclass(frozen=True)
class DeviceSpec:
    """One accelerator.

    Attributes:
        name: marketing name.
        memory_bytes: HBM capacity.
        reserved_bytes: capacity the framework cannot use for model state
            (context, comm buffers, fragmentation slack).
        peak_flops: dense fp16/bf16 throughput, FLOP/s.
        memory_bandwidth: HBM bandwidth, bytes/s.
        efficiency: achieved fraction of ``peak_flops`` per operator class.
        kernel_launch_overhead: fixed seconds added per operator.
        slowdown: sustained performance derating of this accelerator
            relative to a healthy part (1.0 = nominal, 1.2 = runs 20%
            slow). The roofline model prices nominal parts; the derating
            feeds robustness evaluation
            (:func:`repro.core.robust.cluster_perturbation`) as the
            default per-device slowdown factor.
    """

    name: str
    memory_bytes: int
    reserved_bytes: int
    peak_flops: float
    memory_bandwidth: float
    efficiency: Dict[OpKind, float] = field(
        default_factory=lambda: dict(_DEFAULT_EFFICIENCY)
    )
    kernel_launch_overhead: float = 5e-6
    slowdown: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slowdown) and self.slowdown > 0):
            raise ValueError(
                f"device slowdown must be finite and > 0, got {self.slowdown}"
            )

    @property
    def usable_memory_bytes(self) -> int:
        """Capacity available to parameters, states, and activations."""
        return self.memory_bytes - self.reserved_bytes

    def achieved_flops(self, kind: OpKind) -> float:
        """Effective FLOP/s for an operator class."""
        return self.peak_flops * self.efficiency.get(kind, 0.1)


def a100_80gb() -> DeviceSpec:
    """NVIDIA A100-SXM4-80GB (cluster A)."""
    return DeviceSpec(
        name="A100-80GB",
        memory_bytes=80 * 1024**3,
        reserved_bytes=6 * 1024**3,
        peak_flops=312e12,
        memory_bandwidth=2.0e12,
    )


def ascend910_32gb() -> DeviceSpec:
    """Huawei Ascend 910 32GB (cluster B)."""
    return DeviceSpec(
        name="Ascend910-32GB",
        memory_bytes=32 * 1024**3,
        reserved_bytes=3 * 1024**3,
        peak_flops=256e12,
        memory_bandwidth=1.2e12,
    )


def derated(device: DeviceSpec, slowdown: float) -> DeviceSpec:
    """A copy of ``device`` running ``slowdown`` times slower than nominal.

    The derated part keeps its memory and roofline shape — only the
    sustained ``slowdown`` changes (thermal throttling, a flaky HBM stack
    remapped at reduced clocks). The name records the derating so mixed
    pools stay legible in reports.
    """
    name = device.name if slowdown == 1.0 else f"{device.name}*{slowdown:g}"
    return dataclasses.replace(device, name=name, slowdown=slowdown)


#: CLI-facing preset registry: ``--device-pool a100,ascend*1.2`` resolves
#: each part name here, with an optional ``*slowdown`` derating suffix.
DEVICE_PRESETS: Dict[str, Callable[[], DeviceSpec]] = {
    "a100": a100_80gb,
    "a100_80gb": a100_80gb,
    "ascend": ascend910_32gb,
    "ascend910_32gb": ascend910_32gb,
}


def device_preset(name: str) -> DeviceSpec:
    """Resolve a preset device by registry name (case-insensitive)."""
    key = name.strip().lower()
    if key not in DEVICE_PRESETS:
        known = ", ".join(sorted(DEVICE_PRESETS))
        raise ValueError(f"unknown device preset {name!r} (known: {known})")
    return DEVICE_PRESETS[key]()

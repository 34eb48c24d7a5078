"""Declarative perturbation injection for pipeline schedules.

AdaPipe's planners assume every device and link performs exactly as the
roofline profile says; this module asks the follow-up question — *how
fragile is a chosen plan when they don't?* A :class:`PerturbationSpec`
declares four failure modes observed on real clusters:

* **per-device slowdown** — a multiplicative factor on every task the
  device runs (thermal throttling, a sick HBM stack, a noisy neighbour);
* **per-task jitter** — seeded lognormal multiplicative noise, drawn
  independently per task (OS/interconnect scheduling noise);
* **transient stalls** — a fixed delay added to a window of consecutive
  tasks on one device (ECC scrub, garbage collection, a checkpoint write);
* **link degradation** — a multiplier plus latency addend on the hop time
  of one directed device-to-device link (flaky NIC, congested switch).

All four lower onto the schedule as a *pure duration / hop transform*:
:func:`perturb_schedule` returns a new :class:`Schedule` whose tasks carry
transformed durations and whose ``link_hops`` mapping overrides the hop
time of degraded links. Crucially, the task DAG — keys, dependencies,
devices, activation bytes, weights — is untouched, so:

* both simulator engines consume the perturbed schedule through their
  ordinary entry points, and the fast-vs-reference bit-equivalence
  guarantee carries over to every perturbed run for free (the
  ``TestPerturbationFuzz`` suite drives exactly this);
* the simulator's exact peak-memory accounting is preserved verbatim —
  perturbations move *when* allocations and frees happen, never *whether*
  or *in what device-order* they happen. The peaks themselves can still
  move: with zero-duration tasks, shifting one timestamp can split or
  merge a free/alloc tie (see ALGORITHMS.md section 9).

Determinism contract: the jitter draw for a task depends only on
``(spec.seed, task key)`` — never on iteration order — so a spec applied
twice to equal schedules yields digest-identical results, and the
simulation cache stays sound because the transform's full content (the
durations it wrote and the link hops it attached) is covered by
:func:`repro.pipeline.simulator.schedule_digest`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.content import content_digest
from repro.pipeline.tasks import Schedule, TaskKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.pipeline.compiled import CompiledSchedule

__all__ = [
    "LinkDegradation",
    "PerturbationSpec",
    "TransientStall",
    "jitter_multiplier",
    "lower_spec_components",
    "lowered_link_hops",
    "perturb_duration",
    "perturb_schedule",
]


@dataclass(frozen=True)
class TransientStall:
    """A fixed delay injected into a window of one device's task list.

    Attributes:
        device: the stalled device.
        delay: seconds added to each affected task's duration.
        first_task: index (in the device's execution order) of the first
            affected task.
        length: number of consecutive tasks affected.
    """

    device: int
    delay: float
    first_task: int = 0
    length: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise ValueError(f"stall delay must be finite and >= 0, got {self.delay}")
        if self.first_task < 0 or self.length < 1:
            raise ValueError("stall window must be non-empty and start at >= 0")


@dataclass(frozen=True)
class LinkDegradation:
    """Degradation of one directed device-to-device link.

    The schedule's hop time for dependencies crossing ``src -> dst``
    becomes ``hop * factor + added_latency``.

    Attributes:
        src: upstream device of the link.
        dst: downstream device.
        factor: bandwidth-degradation multiplier (>= 0; 1.0 = nominal).
        added_latency: seconds added per hop.
    """

    src: int
    dst: int
    factor: float = 1.0
    added_latency: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.factor) and self.factor >= 0):
            raise ValueError(f"link factor must be finite and >= 0, got {self.factor}")
        if not (math.isfinite(self.added_latency) and self.added_latency >= 0):
            raise ValueError(
                f"link added_latency must be finite and >= 0, got {self.added_latency}"
            )


@dataclass(frozen=True)
class PerturbationSpec:
    """A declarative, hashable bundle of schedule perturbations.

    Attributes:
        device_factors: ``(device, factor)`` pairs; each listed device's
            task durations are multiplied by ``factor`` (> 0). Devices not
            listed run at nominal speed.
        jitter_sigma: sigma of the lognormal per-task jitter multiplier
            (0 disables jitter). The multiplier's median is exactly 1.
        seed: base seed of the jitter draws; see :func:`jitter_multiplier`.
        stalls: transient stall windows.
        links: degraded links.
    """

    device_factors: Tuple[Tuple[int, float], ...] = ()
    jitter_sigma: float = 0.0
    seed: int = 0
    stalls: Tuple[TransientStall, ...] = ()
    links: Tuple[LinkDegradation, ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.jitter_sigma) and self.jitter_sigma >= 0):
            raise ValueError(
                f"jitter_sigma must be finite and >= 0, got {self.jitter_sigma}"
            )
        for device, factor in self.device_factors:
            if not (math.isfinite(factor) and factor > 0):
                raise ValueError(
                    f"device_factors: device {device} factor must be finite "
                    f"and > 0, got {factor}"
                )

    @classmethod
    def build(
        cls,
        device_factors: Union[Mapping[int, float], Sequence[float], None] = None,
        jitter_sigma: float = 0.0,
        seed: int = 0,
        stalls: Sequence[TransientStall] = (),
        links: Sequence[LinkDegradation] = (),
    ) -> "PerturbationSpec":
        """Normalising constructor: accepts a ``device -> factor`` mapping
        or a dense per-device factor sequence."""
        if device_factors is None:
            pairs: Tuple[Tuple[int, float], ...] = ()
        elif isinstance(device_factors, Mapping):
            pairs = tuple(sorted(
                (int(d), float(f)) for d, f in device_factors.items()
            ))
        else:
            pairs = tuple(
                (d, float(f)) for d, f in enumerate(device_factors)
            )
        return cls(
            device_factors=pairs,
            jitter_sigma=jitter_sigma,
            seed=seed,
            stalls=tuple(stalls),
            links=tuple(links),
        )

    def factor_for(self, device: int) -> float:
        for d, factor in self.device_factors:
            if d == device:
                return factor
        return 1.0

    def is_identity(self) -> bool:
        """True when applying this spec provably changes nothing."""
        return (
            all(factor == 1.0 for _, factor in self.device_factors)
            and self.jitter_sigma == 0.0
            and all(stall.delay == 0.0 for stall in self.stalls)
            and all(
                link.factor == 1.0 and link.added_latency == 0.0
                for link in self.links
            )
        )

    def content_digest(self) -> str:
        """Stable digest of every field, stalls and links included."""
        return content_digest(self)

    def reseeded(self, offset: int) -> "PerturbationSpec":
        """The same spec with its jitter seed shifted — one ensemble draw."""
        if offset == 0:
            return self
        return dataclasses.replace(self, seed=self.seed + offset)

    def with_device_factor(self, device: int, factor: float) -> "PerturbationSpec":
        """A copy with ``device``'s slowdown factor replaced."""
        pairs = tuple(
            (d, f) for d, f in self.device_factors if d != device
        ) + ((device, factor),)
        return dataclasses.replace(
            self, device_factors=tuple(sorted(pairs))
        )


def jitter_multiplier(seed: int, key: TaskKey, sigma: float) -> float:
    """The deterministic lognormal jitter multiplier of one task.

    Keyed off ``(seed, task identity)`` only — independent of the order
    tasks are visited in — so two applications of one spec agree bit-for-
    bit, and the multiplier of a task is unchanged by perturbing other
    tasks. ``sigma == 0`` returns exactly 1.0.
    """
    if sigma == 0.0:
        return 1.0
    digest = hashlib.blake2b(
        f"{seed}|{key.pipe}|{key.stage}|{key.micro_batch}|{key.kind.value}".encode(),
        digest_size=8,
    ).digest()
    gauss = random.Random(int.from_bytes(digest, "big")).gauss(0.0, 1.0)
    return math.exp(sigma * gauss)


def _stall_delays(
    spec: PerturbationSpec, num_devices: int
) -> Dict[int, Dict[int, float]]:
    """Per device, the summed stall delay per task position."""
    delays: Dict[int, Dict[int, float]] = {}
    for stall in spec.stalls:
        if stall.device >= num_devices:
            raise ValueError(
                f"stall targets device {stall.device} but the schedule has "
                f"{num_devices} devices"
            )
        per_device = delays.setdefault(stall.device, {})
        for offset in range(stall.length):
            position = stall.first_task + offset
            per_device[position] = per_device.get(position, 0.0) + stall.delay
    return delays


def _link_hops(spec: PerturbationSpec, schedule: Schedule) -> Dict[Tuple[int, int], float]:
    """The perturbed hop time of every degraded link, merged over the
    schedule's existing overrides (degradations compound on them)."""
    hops: Dict[Tuple[int, int], float] = dict(schedule.link_hops or {})
    for link in spec.links:
        base = hops.get((link.src, link.dst), schedule.hop_time)
        hops[(link.src, link.dst)] = base * link.factor + link.added_latency
    return hops


def perturb_duration(duration, factor, jitter=None, delay=None):
    """The perturbation transform: scale by the device factor, then by the
    jitter multiplier, then add the stall delay.

    This is the only place that order is written. It works elementwise on
    Python floats and numpy arrays alike, and numpy broadcasting shares
    work across rows: :func:`perturb_schedule` calls it per task, and the
    robustness ensemble (``repro.core.robust``) calls it per vector —
    with a ``(K, n)`` jitter matrix, ``duration * factor`` is computed once
    for all K draws. ``None`` skips a step, so a jitter-free or stall-free
    task sees exactly the operations it would without this knob.
    """
    scaled = duration * factor
    if jitter is not None:
        scaled = scaled * jitter
    if delay is not None:
        scaled = scaled + delay
    return scaled


def perturb_schedule(schedule: Schedule, spec: PerturbationSpec) -> Schedule:
    """Lower ``spec`` onto ``schedule`` as a pure duration/hop transform.

    Returns a new, structurally identical :class:`Schedule` whose task
    durations and link hop times reflect the injected perturbations. An
    identity spec returns ``schedule`` itself (same object), so the
    zero-perturbation path is bit-identical *including* its memoized
    lowering and content digest.
    """
    if spec.is_identity():
        return schedule
    stalls = _stall_delays(spec, schedule.num_devices)
    sigma = spec.jitter_sigma
    seed = spec.seed
    device_tasks = []
    for device, tasks in enumerate(schedule.device_tasks):
        factor = spec.factor_for(device)
        device_stalls = stalls.get(device, {})
        perturbed = []
        for position, task in enumerate(tasks):
            duration = perturb_duration(
                task.duration,
                factor,
                jitter_multiplier(seed, task.key, sigma) if sigma else None,
                device_stalls.get(position) or None,
            )
            if duration == task.duration:
                perturbed.append(task)
            else:
                perturbed.append(dataclasses.replace(task, duration=duration))
        device_tasks.append(perturbed)
    return Schedule(
        name=schedule.name,
        num_devices=schedule.num_devices,
        device_tasks=device_tasks,
        hop_time=schedule.hop_time,
        device_static_bytes=schedule.device_static_bytes,
        device_buffer_bytes=schedule.device_buffer_bytes,
        num_micro_batches=schedule.num_micro_batches,
        link_hops=_link_hops(spec, schedule) if spec.links else schedule.link_hops,
    )


# ---------------------------------------------------------------------------
# Duration-only lowering: a spec as vectors against a compiled schedule.
#
# The robustness ensemble never materialises perturbed Schedule objects. These
# helpers map a spec onto per-task vectors of an existing CompiledSchedule,
# which perturb_duration then applies: elementwise float64 numpy arithmetic is
# the IEEE-754 double arithmetic perturb_schedule performs per task, so the
# rows equal its durations bit for bit (fuzz-pinned in tests/test_batched.py).
# ---------------------------------------------------------------------------


def lower_spec_components(
    compiled: "CompiledSchedule", spec: PerturbationSpec
) -> Tuple[np.ndarray, np.ndarray]:
    """The spec's deterministic per-task vectors: ``(factors, delays)``.

    ``factors[i]`` is the slowdown factor of task ``i``'s device and
    ``delays[i]`` the summed stall delay landing on the task's position —
    everything in the spec except jitter and link degradations, which are
    keyed by seed and link rather than task. Both vectors depend only on
    the schedule's *shape* (device assignment and per-device positions),
    never on durations, so batched sweeps share them across every
    schedule with the same shape digest.

    Raises:
        ValueError: when a stall targets a device the schedule does not
            have (matching :func:`perturb_schedule`).
    """
    schedule = compiled.schedule
    num_tasks = compiled.num_tasks
    factor_by_device = np.array(
        [spec.factor_for(d) for d in range(schedule.num_devices)],
        dtype=np.float64,
    )
    factors = factor_by_device[np.asarray(compiled.device, dtype=np.intp)]
    delays = np.zeros(num_tasks, dtype=np.float64)
    if spec.stalls:
        stall_map = _stall_delays(spec, schedule.num_devices)
        base = 0
        for device, tasks in enumerate(schedule.device_tasks):
            per_device = stall_map.get(device)
            if per_device:
                for position, delay in per_device.items():
                    if position < len(tasks):
                        delays[base + position] = delay
            base += len(tasks)
    return factors, delays


def lowered_link_hops(
    spec: PerturbationSpec, schedule: Schedule
) -> Optional[Dict[Tuple[int, int], float]]:
    """The ``link_hops`` mapping a perturbed schedule would carry.

    ``None`` means the spec leaves hop times untouched (no degraded
    links) — the batched executor then keeps its precompiled edge
    addends instead of overriding them.
    """
    if not spec.links:
        return None
    return _link_hops(spec, schedule)

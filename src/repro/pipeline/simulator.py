"""Event-driven execution of a pipeline schedule.

Each device executes its task list strictly in order; a task starts once the
device is free and all its dependencies have completed (cross-device
dependencies add the schedule's hop time). This is exactly how a static
pipeline schedule executes on a real cluster, so the resulting makespan *is*
the iteration time.

The simulator also tracks activation memory per device: a micro-batch's
intermediates are pinned from the start of its forward until the end of its
releasing backward twin — the grad-weight half when the backward is split
(2BP), the plain backward otherwise — sitting on top of the device's static
state and recompute buffer.
The per-device high-water mark supports the paper's Figure 1/Figure 8 memory
profiles and OOM detection for infeasible baselines.

One fast path and one oracle implement these semantics:

* :func:`simulate` runs the schedule's memoized
  :class:`~repro.pipeline.batched.BatchedSchedule` — the compiled lowering
  (:mod:`repro.pipeline.compiled`) evaluated as a level wavefront — on one
  duration row, the schedule's own, and builds the result from that run's
  start and finish times. Peak memory sums each device's events in the
  reference's ``(time, delta)`` order, read from the same times.
* :func:`simulate_reference` is the original O(devices x passes) polling
  loop, kept as the equivalence oracle: both produce
  bit-identical results (asserted by the engine-equivalence, perturbation
  and heterogeneous-pool fuzz tests).

On top sits a digest-keyed cross-run :class:`SimulationCache`: experiments
that re-simulate structurally identical schedules (the same plan evaluated
for several figures, repeated probe simulations, rebuilt executors) reuse
the memoized :class:`SimulationResult` instead of re-running the engine.
The cache is keyed by :func:`schedule_digest` — schedule *content*, not
identity — and can be disabled with ``cache=False`` or
``REPRO_SIM_CACHE=0``. Cached results share their timing/memory
structures; treat :class:`SimulationResult` as read-only. The same FIFO
class backs the whole-ensemble cache of ``repro.core.robust``, and
:func:`resolve_cache` resolves the ``cache`` argument for both.
"""

from __future__ import annotations

import dataclasses
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Generic, List, Optional, Tuple, TypeVar, Union

from repro.content import content_digest
from repro.pipeline.batched import batched_simulator
from repro.pipeline.compiled import SimulationError, deadlock_message
from repro.pipeline.tasks import RELEASE_KINDS, Schedule, Task, TaskKey, TaskKind

__all__ = [
    "SimulationCache",
    "SimulationError",
    "SimulationResult",
    "global_simulation_cache",
    "resolve_cache",
    "schedule_digest",
    "simulate",
    "simulate_reference",
    "simulate_with_info",
    "simulation_cache_disabled",
]

_CACHE_ENV = "REPRO_SIM_CACHE"

V = TypeVar("V")


@dataclass
class SimulationResult:
    """Outcome of simulating one training iteration.

    Attributes:
        iteration_time: makespan in seconds.
        start_times / end_times: per-task timing.
        device_busy_time: seconds each device spent computing.
        device_peak_bytes: memory high-water mark per device (static +
            buffer + activations).
        device_micro_batch_passes: weighted useful work per device — the
            sum of ``Task.weight`` over the device's tasks, counting each
            forward or backward micro-batch pass once (so ChimeraD's
            doubled forwards count as 2).
        schedule: the simulated schedule (for rendering).
    """

    iteration_time: float
    start_times: Dict[TaskKey, float]
    end_times: Dict[TaskKey, float]
    device_busy_time: List[float]
    device_peak_bytes: List[float]
    device_micro_batch_passes: List[int]
    schedule: Schedule

    @property
    def bubble_ratio(self) -> float:
        """Fraction of device-time spent idle inside the iteration."""
        total = self.iteration_time * len(self.device_busy_time)
        if total == 0:
            return 0.0
        return 1.0 - sum(self.device_busy_time) / total

    @property
    def micro_batch_passes(self) -> int:
        """Total weighted forward+backward micro-batch passes executed."""
        return sum(self.device_micro_batch_passes)

    def peak_bytes(self) -> float:
        return max(self.device_peak_bytes, default=0.0)

    def oom_devices(self, capacity_bytes: float) -> List[int]:
        """Devices whose peak memory exceeds ``capacity_bytes``."""
        return [
            d
            for d, peak in enumerate(self.device_peak_bytes)
            if peak > capacity_bytes
        ]


# -- simulation cache ---------------------------------------------------------


def schedule_digest(schedule: Schedule) -> str:
    """Content digest of everything that determines a simulation's numbers.

    :func:`repro.content.content_digest` over the schedule's fields, its
    tasks' and their keys', so a new field is covered without an edit
    here. Only the fields declared ``omit`` on :class:`Schedule` are left
    out — ``name`` and ``num_micro_batches``, which label the schedule but
    move no simulated number, so e.g. a relabelled 1F1B schedule replays
    a cached result. Memoized per instance via :meth:`Schedule.digest`.

    The digest reads the source fields, not the lowered arrays: the
    lowering folds ``hop_time - overlap`` into one edge addend, yet the
    robust path reads ``overlap`` and the hop separately, so two schedules
    with equal addends can still answer differently under a degraded
    link. The ``link_hops`` coverage is load-bearing for perturbation
    injection (:mod:`repro.pipeline.perturb`): a link-degraded schedule
    has the same tasks, durations and edges as its nominal twin. An
    empty mapping digests like no mapping at all, since the two simulate
    identically.
    """
    return content_digest(schedule)


class SimulationCache(Generic[V]):
    """Cross-run FIFO memo keyed by content digest.

    Holds :class:`SimulationResult` objects keyed by
    :func:`schedule_digest` for :func:`simulate`, and whole robustness
    reports keyed by ``ensemble_digest`` for ``repro.core.robust``.
    Entries are evicted FIFO past ``max_entries``. Stored values are
    shared between hits — read-only by contract.
    """

    def __init__(self, max_entries: int = 256) -> None:
        self._entries: "OrderedDict[str, V]" = OrderedDict()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def get(self, key: str) -> Optional[V]:
        found = self._entries.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def put(self, key: str, value: V) -> None:
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


_GLOBAL_CACHE: "SimulationCache[SimulationResult]" = SimulationCache()


def global_simulation_cache() -> "SimulationCache[SimulationResult]":
    """The process-wide cache ``simulate`` consults by default."""
    return _GLOBAL_CACHE


def simulation_cache_disabled() -> bool:
    """True when ``REPRO_SIM_CACHE`` disables digest-keyed caching
    process-wide (every cache :func:`resolve_cache` defaults to)."""
    return os.environ.get(_CACHE_ENV, "").lower() in ("0", "off", "false")


def resolve_cache(
    cache: Union[SimulationCache[V], bool, None],
    default: SimulationCache[V],
) -> Optional[SimulationCache[V]]:
    """The cache a ``cache=`` argument names.

    ``None`` means ``default`` unless ``REPRO_SIM_CACHE`` disables
    caching, ``True`` means ``default``, ``False`` means no cache, and a
    :class:`SimulationCache` instance means itself.
    """
    if cache is None:
        return None if simulation_cache_disabled() else default
    if cache is True:
        return default
    if cache is False:
        return None
    return cache


# -- public entry points ------------------------------------------------------


def simulate(
    schedule: Schedule,
    *,
    cache: Union[SimulationCache[SimulationResult], bool, None] = None,
) -> SimulationResult:
    """Execute ``schedule`` and return timing and memory results.

    Args:
        schedule: the schedule to execute.
        cache: ``None`` uses the global :class:`SimulationCache` (unless
            ``REPRO_SIM_CACHE=0``), ``True`` always uses it, ``False``
            disables caching, or pass a cache instance to scope
            memoization explicitly.

    Raises:
        SimulationError: if the schedule deadlocks (a device's next task
            waits on a task that can never run) or references unknown tasks.
    """
    return simulate_with_info(schedule, cache=cache)[0]


def simulate_with_info(
    schedule: Schedule,
    *,
    cache: Union[SimulationCache[SimulationResult], bool, None] = None,
) -> Tuple[SimulationResult, Dict[str, object]]:
    """:func:`simulate` plus an observability record.

    The second element carries ``cache_hit`` (whether this call replayed a
    memoized result) and the consulted cache's cumulative
    ``cache_hits``/``cache_misses`` (zeros when caching is off) — the
    counters plan metadata surfaces.
    """
    use_cache = resolve_cache(cache, _GLOBAL_CACHE)
    if use_cache is None:
        return _simulate_batched(schedule), {
            "cache_hit": False,
            "cache_hits": 0,
            "cache_misses": 0,
        }
    key = schedule.digest()
    found = use_cache.get(key)
    if found is None:
        found = _simulate_batched(schedule)
        use_cache.put(key, found)
        hit = False
    else:
        found = dataclasses.replace(found, schedule=schedule)
        hit = True
    return found, {
        "cache_hit": hit,
        "cache_hits": use_cache.hits,
        "cache_misses": use_cache.misses,
    }


def _simulate_batched(schedule: Schedule) -> SimulationResult:
    """One R = 1 run of the schedule's batched wavefront.

    Busy time and weighted passes are execution-independent, so the
    lowering already holds them; everything else comes from the run's
    per-task start and finish times.
    """
    sim = batched_simulator(schedule)
    compiled = sim.compiled
    starts, finish, iteration = sim.timeline()
    num_devices = schedule.num_devices
    statics = schedule.device_static_bytes or [0.0] * num_devices
    buffers = schedule.device_buffer_bytes or [0.0] * num_devices
    activations = sim.activation_peaks(starts, finish)
    keys = compiled.keys
    return SimulationResult(
        iteration_time=iteration,
        start_times=dict(zip(keys, starts.tolist())),
        end_times=dict(zip(keys, finish.tolist())),
        device_busy_time=list(compiled.device_busy),
        device_peak_bytes=[
            statics[d] + buffers[d] + activations[d] for d in range(num_devices)
        ],
        device_micro_batch_passes=list(compiled.device_passes),
        schedule=schedule,
    )


# -- reference engine (equivalence oracle) ------------------------------------


def simulate_reference(schedule: Schedule) -> SimulationResult:
    """The original round-robin polling engine, kept as the oracle.

    O(devices x passes) with per-dependency ``TaskKey`` dict lookups and an
    end-of-run memory-event sort — slow, but defined directly from the
    scheduling semantics. :func:`simulate` must match it bit-for-bit.
    """
    task_map = schedule.task_map()
    for index, tasks in enumerate(schedule.device_tasks):
        for task in tasks:
            if task.device != index:
                raise ValueError(
                    f"{task.key}: device {task.device} but listed under device {index}"
                )
    for task in task_map.values():
        for dep in task.deps:
            if dep not in task_map:
                raise SimulationError(f"{task.key} depends on missing task {dep}")

    end_times: Dict[TaskKey, float] = {}
    start_times: Dict[TaskKey, float] = {}
    device_time = [0.0] * schedule.num_devices
    device_busy = [0.0] * schedule.num_devices
    device_passes = [0] * schedule.num_devices
    pointers = [0] * schedule.num_devices
    remaining = sum(len(tasks) for tasks in schedule.device_tasks)

    # Memory bookkeeping: activations pinned between forward start and
    # backward end, tracked as (time, delta) events per device.
    memory_events: List[List[Tuple[float, float]]] = [
        [] for _ in range(schedule.num_devices)
    ]

    while remaining > 0:
        progressed = False
        for device in range(schedule.num_devices):
            tasks = schedule.device_tasks[device]
            while pointers[device] < len(tasks):
                task = tasks[pointers[device]]
                ready_at = device_time[device]
                blocked = False
                for dep in task.deps:
                    if dep not in end_times:
                        blocked = True
                        break
                    dep_end = end_times[dep]
                    if task_map[dep].device != device:
                        add = schedule.hop_for(task_map[dep].device, device)
                        if task.overlap:
                            # Compute/comm overlap window: the task's
                            # first `overlap` seconds run while the hop is
                            # in flight. Same float ops as the compiled
                            # lowering's `hop - overlap` addend, so both
                            # engines stay bit-identical.
                            add -= task.overlap
                        dep_end += add
                    ready_at = max(ready_at, dep_end)
                if blocked:
                    break
                start_times[task.key] = ready_at
                end = ready_at + task.duration
                end_times[task.key] = end
                device_time[device] = end
                device_busy[device] += task.duration
                device_passes[device] += task.weight
                _record_memory(task, ready_at, device, memory_events, task_map)
                pointers[device] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise SimulationError(deadlock_message(schedule, end_times))

    peaks = _memory_peaks(schedule, memory_events)
    return SimulationResult(
        iteration_time=max(device_time, default=0.0),
        start_times=start_times,
        end_times=end_times,
        device_busy_time=device_busy,
        device_peak_bytes=peaks,
        device_micro_batch_passes=device_passes,
        schedule=schedule,
    )


def _record_memory(
    task: Task,
    start: float,
    device: int,
    memory_events: List[List[Tuple[float, float]]],
    task_map: Dict[TaskKey, Task],
) -> None:
    """Pin activations at forward start, release them at the end of the
    forward's releasing twin (grad-weight under a split backward, the
    plain backward otherwise). Grad-input and recompute tasks touch no
    activation accounting. The activations live on the forward's device,
    so the release is charged there, wherever the releasing task runs and
    whichever of the two runs first."""
    kind = task.key.kind
    if kind == TaskKind.FORWARD:
        if task.activation_bytes > 0:
            memory_events[device].append((start, task.activation_bytes))
        return
    if kind not in RELEASE_KINDS:
        return
    if kind == TaskKind.BACKWARD and (
        TaskKey(
            task.key.pipe, task.key.stage, task.key.micro_batch,
            TaskKind.BACKWARD_WEIGHT,
        )
        in task_map
    ):
        # Mixed plain/split backwards fail validation; mirror the compiled
        # lowering and never double-release regardless.
        return
    twin = TaskKey(
        task.key.pipe, task.key.stage, task.key.micro_batch, TaskKind.FORWARD
    )
    twin_task = task_map.get(twin)
    if twin_task is not None and twin_task.activation_bytes > 0:
        release_at = start + task.duration
        memory_events[twin_task.device].append(
            (release_at, -twin_task.activation_bytes)
        )


def _memory_peaks(
    schedule: Schedule, memory_events: List[List[Tuple[float, float]]]
) -> List[float]:
    statics = schedule.device_static_bytes or [0.0] * schedule.num_devices
    buffers = schedule.device_buffer_bytes or [0.0] * schedule.num_devices
    peaks: List[float] = []
    for device in range(schedule.num_devices):
        level = 0.0
        peak = 0.0
        # Frees sort before allocations at equal timestamps so an exactly
        # back-to-back free/alloc pair does not inflate the peak.
        for _, delta in sorted(memory_events[device], key=lambda item: (item[0], item[1])):
            level += delta
            peak = max(peak, level)
        peaks.append(statics[device] + buffers[device] + peak)
    return peaks
